import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rekern.crown import CrownDecomposition
from rekern.errors import (
    InvalidCrown,
    ModificationMismatch,
    NotACover,
    WitnessNotACover,
)
from rekern.graphs import (
    EdgeAdd,
    EdgeDel,
    Graph,
    apply_modification,
    complete_graph,
    path_graph,
    star_graph,
)
from rekern.instances import KernelResult, ReoptInstance
from rekern.matching import Matching
from rekern.oracles import (
    membership,
    solve_exact,
    verify_kernel_equivalence,
)
from rekern.problems import ProblemKind as PK
from rekern.vc_kernels import (
    build_reopt_partition,
    crown_reduce_vc,
    reopt_vc_kernelize_2k_report,
    vc_kernelize_3k,
)


def vc_instance(g, k, witness, u, v, k2=None):
    return ReoptInstance(
        PK.VERTEX_COVER, g, k, witness, EdgeAdd(u, v), k if k2 is None else k2
    )


# --- crown_reduce_vc ---------------------------------------------------------


def test_crown_reduce_star():
    g = star_graph(4)
    cd = CrownDecomposition.of({1, 2, 3, 4}, {0}, set(), Matching.of([(0, 1)]))
    reduced, k = crown_reduce_vc(g, 2, cd)
    assert reduced.n == 0 and k == 1


def test_crown_reduce_path():
    g = path_graph(4)
    cd = CrownDecomposition.of({0}, {1}, {2, 3}, Matching.of([(0, 1)]))
    reduced, k = crown_reduce_vc(g, 2, cd)
    assert reduced.n == 2 and reduced.edges == frozenset({(0, 1)}) and k == 1


def test_crown_reduce_rejects_invalid():
    g = path_graph(4)
    bad = CrownDecomposition.of({0, 3}, {1}, {2}, Matching.of([(0, 1)]))
    with pytest.raises(InvalidCrown):
        crown_reduce_vc(g, 2, bad)


def random_star_union(rng, centers, leaves):
    """Sparse graphs with small covers: the shape that yields crowns."""
    n = centers + leaves
    edges = set()
    for leaf in range(centers, n):
        edges.add((rng.randrange(centers), leaf))
    for _ in range(rng.randint(0, centers)):
        a, b = rng.sample(range(centers), 2) if centers >= 2 else (0, 0)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, edges)


def test_crown_reduce_preserves_membership(rng):
    from rekern.crown import crown_or_matching

    checked = 0
    for _ in range(200):
        g = random_star_union(rng, rng.randint(1, 3), rng.randint(5, 9))
        if g.isolated_vertices():
            continue
        k_max = (g.n - 1) // 3
        if k_max < 1:
            continue
        k = rng.randint(1, k_max)
        out = crown_or_matching(g, k)
        if out.crown is None:
            continue
        reduced, k2 = crown_reduce_vc(g, k, out.crown)
        lhs = membership(PK.VERTEX_COVER, g, k)
        rhs = k2 >= 0 and membership(PK.VERTEX_COVER, reduced, k2)
        assert lhs == rhs
        checked += 1
    assert checked > 20


# --- 3k kernel ---------------------------------------------------------------


def test_3k_kernel_spec_examples():
    assert vc_kernelize_3k(star_graph(9), 1).answer is True
    out = vc_kernelize_3k(complete_graph(4), 2)
    assert out.is_reduced and out.graph.n == 4 and out.graph.n <= 6
    assert membership(PK.VERTEX_COVER, out.graph, out.parameter) is False
    three_edges = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert vc_kernelize_3k(three_edges, 1).answer is False


def test_3k_kernel_bound_and_equivalence(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6))
        k = rng.randint(0, g.n)
        out = vc_kernelize_3k(g, k)
        if out.is_reduced:
            assert out.graph.n <= 3 * out.parameter
        assert verify_kernel_equivalence(PK.VERTEX_COVER, g, k, out)


def test_3k_kernel_holds_no_adjacency_of_its_input():
    g = path_graph(4)
    g.adjacency
    out = vc_kernelize_3k(g, 2)
    assert out.is_reduced and out.graph == g and out.graph.edges is g.edges
    assert "adjacency" not in out.graph.__dict__


# --- partition ---------------------------------------------------------------


def test_partition_star_example():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = build_reopt_partition(g, frozenset({0}))
    assert p.matching.pairs == frozenset({(0, 1)})
    assert p.b_unmatched == {2, 3}
    assert p.a1 == {0} and p.b1 == {1}
    assert not p.a2 and not p.a3


def test_partition_perfect_matching_all_a3():
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    p = build_reopt_partition(g, frozenset({0, 1}))
    assert p.a3 == {0, 1} and p.b3 == {2, 3}
    assert not p.a1 and not p.a2 and not p.b_unmatched


def test_partition_mixed_example():
    g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 4)])
    p = build_reopt_partition(g, frozenset({0, 1}))
    assert p.matching.pairs == frozenset({(0, 2), (1, 4)})
    assert p.b_unmatched == {3}
    assert p.a1 == {0} and p.b1 == {2}
    assert p.a3 == {1} and p.b3 == {4}


def test_partition_rejects_non_cover():
    with pytest.raises(NotACover):
        build_reopt_partition(path_graph(4), frozenset({0}))


def test_partition_invariants_random(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        cover = solve_exact(PK.VERTEX_COVER, g).witness
        p = build_reopt_partition(g, cover)
        a, b = p.cover, p.independent
        assert a | b == set(g.vertices) and not (a & b)
        assert all(not (u in b and v in b) for u, v in g.edges)
        assert p.a1 | p.a2 | p.a3 | p.a_unmatched == a
        assert p.b1 | p.b2 | p.b3 | p.b_unmatched == b
        partners = p.matching.partner_map()
        for ai, bi in ((p.a1, p.b1), (p.a2, p.b2), (p.a3, p.b3)):
            assert {partners[x] for x in ai} == set(bi)


# --- 2k reoptimization kernel --------------------------------------------------


def test_reopt_trivial_yes():
    g = path_graph(4)
    rep = reopt_vc_kernelize_2k_report(vc_instance(g, 2, frozenset({1, 2}), 0, 2))
    assert rep.branch == "trivial" and rep.result.answer is True
    assert rep.trace == ("trivial",)
    again = reopt_vc_kernelize_2k_report(vc_instance(g, 3, frozenset({1, 2}), 1, 3))
    assert again is rep


def test_decided_results_are_shared_and_result_types_have_no_dict():
    for answer in (False, True):
        shared = KernelResult.decided(answer)
        assert shared is KernelResult.decided(answer)
        assert shared == KernelResult(kind="decided", answer=answer)
    with pytest.raises(ValueError):
        KernelResult.decided(None)
    rep = reopt_vc_kernelize_2k_report(vc_instance(path_graph(5), 2, {1, 3}, 0, 4))
    assert rep.result.is_reduced
    solution = solve_exact(PK.VERTEX_COVER, path_graph(3))
    for value in (rep, rep.result, KernelResult.decided(True), solution):
        assert not hasattr(value, "__dict__")


def test_reopt_trivial_tight_budget_reduces():
    # witness larger than the modified budget: falls back to crown reduction
    g = path_graph(5)
    witness = frozenset({1, 2, 3})
    inst = vc_instance(g, 3, witness, 0, 2, k2=2)
    rep = reopt_vc_kernelize_2k_report(inst)
    assert rep.branch == "trivial"
    assert verify_kernel_equivalence(PK.VERTEX_COVER, inst.modified, 2, rep.result)


def test_reopt_case2_star_example():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    rep = reopt_vc_kernelize_2k_report(vc_instance(g, 1, frozenset({0}), 2, 3))
    assert rep.branch == "case2"
    assert rep.result.is_decided and rep.result.answer is False


def test_reopt_case3_example():
    g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 4)])
    inst = vc_instance(g, 2, frozenset({0, 1}), 3, 4)
    rep = reopt_vc_kernelize_2k_report(inst)
    assert rep.branch == "case3"
    assert rep.result.is_reduced
    assert rep.result.graph.n == 3 and rep.result.parameter == 1
    assert membership(PK.VERTEX_COVER, rep.result.graph, 1) is True
    assert verify_kernel_equivalence(PK.VERTEX_COVER, inst.modified, 2, rep.result)


def test_reopt_case5_degenerate_path():
    inst = vc_instance(path_graph(3), 1, frozenset({1}), 0, 2)
    rep = reopt_vc_kernelize_2k_report(inst)
    assert rep.branch == "case5" and "case5-degenerate" in rep.trace
    assert rep.result.is_reduced
    assert rep.result.graph.n == 3 == 2 * 1 + 1
    assert rep.result.parameter == 1
    assert verify_kernel_equivalence(PK.VERTEX_COVER, inst.modified, 1, rep.result)


def test_reopt_isolated_leaf_branch():
    # star plus an isolated vertex; the new edge hangs off a leaf
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    inst = vc_instance(g, 1, frozenset({0}), 4, 1)
    rep = reopt_vc_kernelize_2k_report(inst)
    assert rep.branch == "isolated-leaf"
    assert rep.result.is_decided and rep.result.answer is False
    assert verify_kernel_equivalence(PK.VERTEX_COVER, inst.modified, 1, rep.result)


def test_reopt_rejects_bad_witness_and_modification():
    g = path_graph(4)
    with pytest.raises(WitnessNotACover):
        reopt_vc_kernelize_2k_report(vc_instance(g, 1, frozenset({0}), 0, 2))
    with pytest.raises(WitnessNotACover):
        reopt_vc_kernelize_2k_report(vc_instance(g, 2, None, 0, 2))
    with pytest.raises(WitnessNotACover):
        reopt_vc_kernelize_2k_report(vc_instance(g, 1, frozenset({1, 2}), 0, 2))
    inst = ReoptInstance(
        PK.VERTEX_COVER, g, 2, frozenset({1, 2}), EdgeDel(0, 1), 2
    )
    with pytest.raises(ModificationMismatch):
        reopt_vc_kernelize_2k_report(inst)


def test_reopt_exhaustive_small(rng):
    """All graphs on up to 5 labeled vertices, all minimum covers, all
    absent edges: equivalence, size bounds, branch sanity."""
    from tests.conftest import absent_pairs, all_labeled_graphs, all_minimum_vertex_covers

    seen_branches = set()
    for n in range(2, 5):
        for g in all_labeled_graphs(n):
            covers = all_minimum_vertex_covers(g)
            for cover in covers:
                k = len(cover)
                for u, v in absent_pairs(g):
                    inst = vc_instance(g, k, cover, u, v)
                    rep = reopt_vc_kernelize_2k_report(inst)
                    seen_branches.add(rep.branch)
                    assert verify_kernel_equivalence(
                        PK.VERTEX_COVER, inst.modified, k, rep.result
                    ), (g, cover, (u, v))
                    if rep.result.is_reduced:
                        bound = (
                            2 * k + 1
                            if "case5-degenerate" in rep.trace
                            else 2 * k
                        )
                        assert rep.result.graph.n <= bound
    assert "trivial" in seen_branches and "case1" in seen_branches


def test_reopt_builds_an_adjacency_only_where_it_is_read():
    """A trivial "yes" leaves its input without an adjacency, every other
    branch builds the input's, and no kernel holds one: neither the 2k
    kernel's residual, with or without a crown removed, nor the 3k kernel
    of a modified graph derived from an input that holds one."""
    from tests.conftest import absent_pairs, all_labeled_graphs, all_minimum_vertex_covers

    seen = set()
    for n in range(2, 5):
        for g in all_labeled_graphs(n):
            for cover in all_minimum_vertex_covers(g):
                k = len(cover)
                for u, v in absent_pairs(g):
                    h = Graph(g.n, g.edges)
                    result = reopt_vc_kernelize_2k_report(
                        vc_instance(h, k, cover, u, v)
                    ).result
                    trivial_yes = u in cover or v in cover
                    assert ("adjacency" in h.__dict__) is not trivial_yes
                    classic = vc_kernelize_3k(apply_modification(h, EdgeAdd(u, v)), k)
                    for out in (result, classic):
                        if out.is_reduced:
                            assert "adjacency" not in out.graph.__dict__
                    if result.is_reduced:
                        seen.add("kept" if result.graph.n == n else "crown removed")
    assert seen == {"kept", "crown removed"}


def test_reopt_non_tight_witness(rng):
    from rekern.smallgraphs import random_graph
    from tests.conftest import absent_pairs

    from rekern.oracles import is_vertex_cover

    checked = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 8), 0.35)
        absent = absent_pairs(g)
        if not absent:
            continue
        cover = set(solve_exact(PK.VERTEX_COVER, g).witness)
        extras = [v for v in range(g.n) if v not in cover and rng.random() < 0.3]
        cover |= set(extras)
        assert is_vertex_cover(g, cover)
        k = len(cover) + rng.randint(0, 2)
        k2 = rng.randint(max(0, len(cover) - 1), k)
        u, v = absent[rng.randrange(len(absent))]
        inst = vc_instance(g, k, frozenset(cover), u, v, k2=k2)
        rep = reopt_vc_kernelize_2k_report(inst)
        assert verify_kernel_equivalence(
            PK.VERTEX_COVER, inst.modified, k2, rep.result
        )
        if rep.result.is_reduced:
            bound = 2 * k + 1 if "case5-degenerate" in rep.trace else 2 * k
            assert rep.result.graph.n <= bound
        checked += 1
    assert checked > 80


def test_reopt_isolated_vertices_only_relabel_the_kernel(rng):
    """Isolated vertices inserted anywhere, inside the witness or outside
    it, leave the 2k kernel's branch, trace, parameter and residual graph
    as they were: the residual keeps every vertex's label, and no inserted
    vertex reaches it."""
    from rekern.smallgraphs import random_graph
    from tests.conftest import absent_pairs

    branches = set()
    joined_total = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.15, 0.5))
        absent = absent_pairs(g)
        if not absent:
            continue
        labelled = Graph(g.n, g.edges, tuple(f"v{w}" for w in g.vertices))
        cover = set(solve_exact(PK.VERTEX_COVER, g).witness)
        cover |= {w for w in g.vertices if rng.random() < 0.2}
        k = len(cover) + rng.randint(0, 2)
        k2 = rng.randint(max(0, len(cover) - 1), k)
        outside = [e for e in absent if not cover.intersection(e)]
        u, v = rng.choice(outside if outside and rng.random() < 0.8 else absent)
        before = reopt_vc_kernelize_2k_report(
            vc_instance(labelled, k, frozenset(cover), u, v, k2=k2)
        )

        n = g.n + rng.randint(1, 3)
        inserted = sorted(rng.sample(range(n), n - g.n))
        kept = [w for w in range(n) if w not in inserted]  # new index of old vertex
        labels = [f"v{kept.index(w)}" if w in kept else f"iso{w}" for w in range(n)]
        grown = Graph.from_edges(n, [(kept[a], kept[b]) for a, b in g.edges], labels)
        # The trivial branch compares the whole witness with k', so inserted
        # vertices join the witness only on the other branches.
        room = 0 if before.branch == "trivial" else k - len(cover)
        joined = rng.sample(inserted, min(room, rng.randint(0, len(inserted))))
        witness = frozenset(kept[w] for w in cover) | set(joined)
        after = reopt_vc_kernelize_2k_report(
            vc_instance(grown, k, witness, kept[u], kept[v], k2=k2)
        )
        assert after == before, (g, cover, (u, v), inserted, joined)
        branches.add(before.branch)
        joined_total += len(joined)
    assert branches == {
        "trivial", "isolated-leaf", "case1", "case2", "case3", "case4", "case5"
    }
    assert joined_total > 50


def test_reopt_determinism():
    g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 4)])
    inst = vc_instance(g, 2, frozenset({0, 1}), 3, 4)
    first = reopt_vc_kernelize_2k_report(inst).result
    assert first == reopt_vc_kernelize_2k_report(inst).result


# --- at scale -------------------------------------------------------------------


def _cover_number(edges: list[tuple[int, int]], in_a) -> int:
    """Cover number of a bipartite graph between ``in_a`` and the other
    vertices plus at most one edge among the others: an endpoint of that
    edge is in every cover, and what is left is bipartite (König)."""
    import networkx as nx

    def konig(kept):
        h = nx.Graph(kept)
        top = [w for w in h if in_a(w)]
        return len(nx.bipartite.hopcroft_karp_matching(h, top_nodes=top)) // 2

    inside = [e for e in edges if not in_a(e[0]) and not in_a(e[1])]
    if not inside:
        return konig(edges)
    ((x, y),) = inside
    return 1 + min(konig([e for e in edges if w not in e]) for w in (x, y))


@pytest.mark.slow
def test_both_kernel_modes_on_a_planted_cover_of_100000_vertices(tmp_path, capsys):
    """The 2k kernel of the 10^5-vertex planted-cover document and the 3k'
    kernel of its modified graph, through ``run_command``: both exit 0,
    meet their bounds, and answer as König's theorem does."""
    import json

    from rekern.cli import run_command
    from tests.conftest import planted_cover_document

    n = 100_000
    reopt = json.loads(planted_cover_document(n, seed=1))
    k = reopt["k"]
    added = (reopt["modification"]["u"], reopt["modification"]["v"])
    modified = sorted(map(tuple, reopt["graph"]["edges"])) + [added]
    classic = {**reopt, "graph": {**reopt["graph"], "edges": modified}}
    del classic["witness"], classic["modification"]
    truth = _cover_number(modified, lambda w: w < n // 3) <= k

    def kernelize(mode, doc):
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(doc))
        code = run_command(["kernelize", "vc", "--mode", mode, "--input", str(path)])
        assert code == 0, mode
        return json.loads(capsys.readouterr().out)

    def answer(result):
        if result["kind"] == "decided":
            return result["answer"]
        graph = result["graph"]
        # Each kernel vertex keeps the label "v<input index>".
        in_a = [int(label[1:]) < n // 3 for label in graph["labels"]]
        edges = [tuple(e) for e in graph["edges"]]
        return _cover_number(edges, in_a.__getitem__) <= result["parameter"]

    out2 = kernelize("reopt2k", reopt)
    out3 = kernelize("classic3k", classic)
    if out2["kind"] == "reduced":
        assert out2["graph"]["n"] <= 2 * k
    if out3["kind"] == "reduced":
        assert out3["graph"]["n"] <= 3 * k
    assert answer(out2) is truth and answer(out3) is truth


@st.composite
def _planted_reopt(draw):
    """A vertex cover instance on 50 to 2,000 vertices, labelled ``v<i>``:
    side A, the first |A| vertices, is independent and covers every edge;
    each vertex of side B has one to ``spread`` neighbours in A, or, with
    probability ``lone``, none.  The added edge joins two B vertices that
    have edges (any two, or two with a common neighbour), touches A, or
    has an end at an isolated vertex of B; k >= |A| and k' <= k.  The
    per-vertex choices come from a seeded generator, since drawing them
    one by one through Hypothesis costs several times the test's budget;
    n, the shape draws and the seed still shrink."""
    n = draw(st.integers(50, 2000))
    size_a = n * draw(st.sampled_from((1, 3, 5))) // 10
    spread = draw(st.integers(1, 4))  # below |A|: each b has a non-neighbour
    lone = draw(st.sampled_from((0.0, 0.05, 0.3)))
    place = draw(st.sampled_from(("inside-b", "siblings", "touching-a", "isolated")))
    k = size_a + draw(st.integers(0, 2))
    k2 = k - draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    isolated = {b for b in range(size_a, n) if rng.random() < lone}
    if place == "isolated":
        isolated.add(n - 1)
    busy = [b for b in range(size_a, n) if b not in isolated]
    assume(len(busy) >= 2)
    edges = {
        (a, b) for b in busy for a in rng.sample(range(size_a), rng.randint(1, spread))
    }
    if place == "touching-a":
        v = rng.randrange(size_a, n)
        u = rng.choice([a for a in range(size_a) if (a, v) not in edges])
    elif place == "siblings":
        below: dict[int, list[int]] = {}
        for a, b in sorted(edges):
            below.setdefault(a, []).append(b)
        shared = [bs for bs in below.values() if len(bs) > 1]
        assume(shared)
        u, v = rng.sample(rng.choice(shared), 2)
    else:
        u = n - 1 if place == "isolated" else rng.choice(busy)
        v = rng.choice([b for b in busy if b != u])
    g = Graph.from_edges(n, edges, [f"v{i}" for i in range(n)])
    return vc_instance(g, k, frozenset(range(size_a)), u, v, k2=k2)


def _kernel_answer(result: KernelResult, size_a: int) -> bool:
    """The kernel's answer; a reduced graph's sides are read from its
    ``v<i>`` labels."""
    if result.is_decided:
        return result.answer
    in_a = [int(label[1:]) < size_a for label in result.graph.labels]
    return _cover_number(sorted(result.graph.edges), in_a.__getitem__) <= result.parameter


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_planted_reopt())
def test_both_kernels_answer_as_koenig_on_planted_covers(inst):
    """On planted covers, the 2k kernel and the 3k' kernel of the modified
    graph answer as König's theorem does, and each meets its size bound:
    2k, or 2k + 1 on the degenerate case-5 branch, and 3k'."""
    size_a = len(inst.witness)
    modified = inst.modified
    truth = _cover_number(sorted(modified.edges), lambda w: w < size_a) <= inst.k_modified
    report = reopt_vc_kernelize_2k_report(inst)
    classic = vc_kernelize_3k(modified, inst.k_modified)
    if report.result.is_reduced:
        kept = report.result.graph.n
        degenerate = "case5-degenerate" in report.trace
        assert kept <= 2 * inst.k or (degenerate and kept == 2 * inst.k + 1)
    if classic.is_reduced:
        assert classic.graph.n <= 3 * inst.k_modified
    assert _kernel_answer(report.result, size_a) is truth, report.trace
    assert _kernel_answer(classic, size_a) is truth
