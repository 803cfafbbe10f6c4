from itertools import combinations

import pytest

from rekern.errors import DegreeTooHigh, SpecModificationMismatch
from rekern.framework import (
    ComponentKernelizer,
    Compositionality,
    Monotonicity,
    builtin_spec,
    check_composition,
    compositional_reopt_kernelize,
    environment,
    exact_component_kernelizer,
    ivst_reopt_kernelize_eplus,
)
from rekern.gadgets import build_extremal
from rekern.graphs import (
    EdgeAdd,
    EdgeDel,
    Graph,
    VertexAdd,
    VertexDel,
    apply_modification,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    path_graph,
    star_graph,
)
from rekern.instances import KernelResult, ReoptInstance
from rekern.oracles import membership, solve_exact
from rekern.problems import ProblemKind as PK


# --- environment ---------------------------------------------------------------


def test_environment_edge_add_merges():
    g = disjoint_union(path_graph(2), path_graph(2))
    envs = environment(g, EdgeAdd(1, 2))
    assert len(envs) == 1 and envs[0][0].n == 4


def test_environment_edge_del_splits():
    envs = environment(path_graph(3), EdgeDel(1, 2))
    assert sorted(e[0].n for e in envs) == [1, 2]
    # deletion inside a cycle keeps one component
    envs = environment(cycle_graph(4), EdgeDel(0, 1))
    assert len(envs) == 1 and envs[0][0].n == 4


def test_environment_vertex_del_star():
    envs = environment(star_graph(3), VertexDel(0))
    assert len(envs) == 3 and all(e[0].n == 1 for e in envs)


def test_environment_vertex_add():
    g = disjoint_union(path_graph(2), path_graph(2))
    envs = environment(g, VertexAdd(frozenset({0, 2})))
    assert len(envs) == 1 and envs[0][0].n == 5


def reference_environment(g: Graph, m):
    """The components of the modified graph that meet the touched vertices,
    as induced subgraphs, ordered by smallest vertex."""
    after = apply_modification(g, m)
    if isinstance(m, (EdgeAdd, EdgeDel)):
        touched = {m.u, m.v}
    elif isinstance(m, VertexAdd):
        touched = {g.n}
    else:
        touched = {w if w < m.v else w - 1 for w in g.adjacency[m.v]}
    return [induced_subgraph(after, c) for c in components(after) if touched & set(c)]


def admitted_modifications(g: Graph):
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                yield EdgeDel(u, v) if g.has_edge(u, v) else EdgeAdd(u, v)
        yield VertexDel(u)
    for mask in range(1 << g.n):
        yield VertexAdd(frozenset(v for v in range(g.n) if mask >> v & 1))


def test_environment_equals_the_touched_components_on_the_atlas():
    """Every atlas graph with up to 6 vertices, labelled so labels are
    carried too, under every modification it admits."""
    from rekern.smallgraphs import all_graphs_upto

    for plain in all_graphs_upto(6):
        g = Graph(plain.n, plain.edges, tuple(f"v{i}" for i in range(plain.n)))
        for m in admitted_modifications(g):
            envs, expected = environment(g, m), reference_environment(g, m)
            assert envs == expected, (g, m)
            assert [e[0].labels for e in envs] == [e[0].labels for e in expected]


def test_environment_of_an_edge_deletion_ignores_the_end_order():
    g = path_graph(3)
    assert environment(g, EdgeDel(2, 1)) == environment(g, EdgeDel(1, 2))
    assert [idx for _, idx in environment(g, EdgeDel(2, 1))] == [(0, 1), (2,)]


@pytest.mark.parametrize("witness, k", [(None, 4), ((1, 0, 2), 2)])
def test_vertex_deletion_dispatch_builds_one_environment(monkeypatch, witness, k):
    """The environment built for the degree bound is the one dispatched on,
    and a dispatch that re-solves every component builds no second one."""
    import rekern.framework as framework

    calls = []
    built = framework.environment

    def counted(g, m):
        calls.append(m)
        return built(g, m)

    monkeypatch.setattr(framework, "environment", counted)
    g = disjoint_union(star_graph(3), path_graph(4))
    inst = ReoptInstance(PK.LONGEST_PATH, g, k, witness, VertexDel(0), k)
    out = compositional_reopt_kernelize(
        inst, builtin_spec(PK.LONGEST_PATH), exact_ck(PK.LONGEST_PATH)
    )
    assert calls == [VertexDel(0)]
    assert out.is_decided
    assert out.answer == membership(PK.LONGEST_PATH, inst.modified, k)


# --- dispatch ---------------------------------------------------------------


def exact_ck(kind):
    return exact_component_kernelizer(kind)


def test_or_comonotone_witness_present_is_pure():
    # corrupt graph: the yes branch must not look at it
    corrupt = Graph.from_edges(2, [])
    inst = ReoptInstance(PK.IVST, corrupt, 3, frozenset({(0, 1)}), EdgeAdd(0, 1), 3)
    spec = builtin_spec(PK.IVST)

    def exploding(comp, k):
        raise AssertionError("component kernelizer must not run on the yes branch")

    ck = ComponentKernelizer("exploding", exploding)
    out = compositional_reopt_kernelize(inst, spec, ck)
    assert out.is_decided and out.answer is True


def test_or_monotone_deletion_example():
    g = disjoint_union(path_graph(3), path_graph(3))
    inst = ReoptInstance(PK.LONGEST_PATH, g, 5, None, EdgeDel(0, 1), 5)
    out = compositional_reopt_kernelize(
        inst, builtin_spec(PK.LONGEST_PATH), exact_ck(PK.LONGEST_PATH)
    )
    assert out.is_decided and out.answer is False


def test_and_monotone_addition_no_witness():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    inst = ReoptInstance(PK.TREEWIDTH, g, 2, None, EdgeAdd(0, 4), 2)
    out = compositional_reopt_kernelize(
        inst, builtin_spec(PK.TREEWIDTH), exact_ck(PK.TREEWIDTH)
    )
    assert out.is_decided and out.answer is False


def test_and_monotone_addition_with_witness_checks_environment():
    g = disjoint_union(path_graph(3), path_graph(3))
    witness = solve_exact(PK.TREEWIDTH, g).witness
    inst = ReoptInstance(PK.TREEWIDTH, g, 1, witness, EdgeAdd(0, 3), 1)
    out = compositional_reopt_kernelize(
        inst, builtin_spec(PK.TREEWIDTH), exact_ck(PK.TREEWIDTH)
    )
    assert out.is_decided
    assert out.answer == membership(PK.TREEWIDTH, inst.modified, 1)


def _exploding(comp, k):
    raise AssertionError("component kernelizer must not run on the yes branch")


@pytest.mark.parametrize(
    "kind, g, k, k_modified, witness, modification",
    [
        # G + e for clique, IVST and treewidth with k' != k: the witness
        # solves G at k but says nothing about k'.
        (PK.CLIQUE, Graph.from_edges(4, [(0, 1)]), 2, 3, frozenset({0, 1}), EdgeAdd(2, 3)),
        (PK.IVST, Graph.from_edges(4, [(0, 1), (1, 2)]), 1, 3,
         frozenset({(0, 1), (1, 2)}), EdgeAdd(0, 3)),
        (PK.TREEWIDTH, Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]), 2, 1,
         "from-oracle", EdgeAdd(4, 5)),
        # A deletion that breaks the witness path.
        (PK.LONGEST_PATH, path_graph(3), 2, 2, (0, 1, 2), EdgeDel(0, 1)),
        (PK.LONGEST_PATH, path_graph(3), 2, 2, (0, 1, 2), VertexDel(2)),
    ],
)
def test_witness_shortcut_only_where_sound(kind, g, k, k_modified, witness, modification):
    if witness == "from-oracle":
        witness = solve_exact(kind, g).witness
    inst = ReoptInstance(kind, g, k, witness, modification, k_modified)
    out = compositional_reopt_kernelize(inst, builtin_spec(kind), exact_ck(kind))
    assert membership(kind, inst.modified, k_modified) is False
    assert out.is_decided and out.answer is False
    if kind is PK.IVST:
        out = ivst_reopt_kernelize_eplus(inst, exact_ck(kind))
        assert out.is_decided and out.answer is False


@pytest.mark.parametrize("modification", [EdgeDel(3, 4), VertexDel(4)])
def test_witness_avoiding_the_deletion_short_circuits(modification):
    g = disjoint_union(path_graph(3), path_graph(2))
    inst = ReoptInstance(PK.LONGEST_PATH, g, 2, (0, 1, 2), modification, 2)
    ck = ComponentKernelizer("exploding", _exploding)
    out = compositional_reopt_kernelize(inst, builtin_spec(PK.LONGEST_PATH), ck)
    assert out.is_decided and out.answer is True


def test_dispatch_rejects_wrong_modification():
    g = path_graph(4)
    inst = ReoptInstance(PK.IVST, g, 1, None, EdgeDel(0, 1), 1)
    with pytest.raises(SpecModificationMismatch):
        compositional_reopt_kernelize(inst, builtin_spec(PK.IVST), exact_ck(PK.IVST))


def test_vertex_del_degree_bound():
    g = star_graph(9)
    inst = ReoptInstance(PK.LONGEST_PATH, g, 3, None, VertexDel(0), 3)
    with pytest.raises(DegreeTooHigh):
        compositional_reopt_kernelize(
            inst,
            builtin_spec(PK.LONGEST_PATH),
            exact_ck(PK.LONGEST_PATH),
            max_env_components=4,
        )


def test_dispatch_agrees_with_oracle_random(rng):
    from rekern.smallgraphs import random_graph
    from tests.conftest import absent_pairs

    cases = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 7), 0.35)
        k = rng.randint(1, 4)
        # OR + comonotone: IVST, edge addition, no witness stored when G is a no
        if membership(PK.IVST, g, k):
            continue
        absent = absent_pairs(g)
        if not absent:
            continue
        u, v = absent[rng.randrange(len(absent))]
        inst = ReoptInstance(PK.IVST, g, k, None, EdgeAdd(u, v), k)
        out = compositional_reopt_kernelize(
            inst, builtin_spec(PK.IVST), exact_ck(PK.IVST)
        )
        assert out.is_decided
        assert out.answer == membership(PK.IVST, inst.modified, k)
        cases += 1
    assert cases > 25


def _sweep_modifications(g: Graph, allowed):
    """Every modification of ``g`` of an allowed type; vertex additions
    take at most 12 neighbour sets, spread evenly over all of them."""
    from tests.conftest import absent_pairs

    if EdgeAdd in allowed:
        yield from (EdgeAdd(u, v) for u, v in absent_pairs(g))
    if VertexAdd in allowed:
        sets = [frozenset(c) for r in range(g.n + 1) for c in combinations(g.vertices, r)]
        if len(sets) > 12:
            sets = [sets[i * (len(sets) - 1) // 11] for i in range(12)]
        yield from (VertexAdd(s) for s in sets)
    if EdgeDel in allowed:
        yield from (EdgeDel(u, v) for u, v in sorted(g.edges))
    if VertexDel in allowed:
        yield from (VertexDel(v) for v in g.vertices)


def _dispatch_sweep(max_n: int) -> int:
    """Every atlas graph on 1..max_n vertices, every builtin spec, every
    supported modification, every k in 0..n+1 and every allowed k', with the
    oracle's witness exactly when the original is a yes at k; returns the
    number of dispatches, each checked against the oracle."""
    from rekern.framework import _SUPPORTED
    from rekern.problems import Direction
    from rekern.smallgraphs import all_graphs_upto

    dispatches = 0
    for kind in (PK.IVST, PK.CLIQUE, PK.LONGEST_PATH, PK.TREEWIDTH):
        spec, ck = builtin_spec(kind), exact_ck(kind)
        allowed = _SUPPORTED[(spec.compositionality, spec.monotonicity)]
        for g in all_graphs_upto(max_n):
            solution = solve_exact(kind, g)
            for k in range(g.n + 2):
                witness = solution.witness if membership(kind, g, k) else None
                for m in _sweep_modifications(g, allowed):
                    n_modified = g.n + (1 if isinstance(m, VertexAdd) else 0)
                    if spec.direction is Direction.MIN:
                        allowed_k = range(k + 1)
                    else:
                        allowed_k = range(k, n_modified + 2)
                    for k_modified in allowed_k:
                        inst = ReoptInstance(kind, g, k, witness, m, k_modified)
                        out = compositional_reopt_kernelize(inst, spec, ck)
                        expected = membership(kind, inst.modified, k_modified)
                        assert out.is_decided and out.answer == expected, (
                            kind, g, k, k_modified, m, witness
                        )
                        dispatches += 1
    return dispatches


def test_dispatch_agrees_with_oracle_on_every_small_graph():
    assert _dispatch_sweep(5) == 80_118


@pytest.mark.slow
def test_dispatch_agrees_with_oracle_on_every_graph_up_to_six_vertices():
    assert _dispatch_sweep(6) == 514_422


def test_dispatch_on_a_deletion_that_leaves_no_vertex():
    """A longest path of length 0 exists in the empty graph, so deleting the
    only vertex keeps a yes at k' = 0 even though no component is left."""
    inst = ReoptInstance(PK.LONGEST_PATH, Graph.from_edges(1), 0, (0,), VertexDel(0), 0)
    out = compositional_reopt_kernelize(
        inst, builtin_spec(PK.LONGEST_PATH), exact_ck(PK.LONGEST_PATH)
    )
    assert membership(PK.LONGEST_PATH, inst.modified, 0) is True
    assert out.is_decided and out.answer is True


def test_union_of_reduced_component_kernels():
    identity = ComponentKernelizer(
        "identity", lambda comp, k: KernelResult.reduced(comp, k)
    )
    g = disjoint_union(path_graph(3), path_graph(4))
    inst = ReoptInstance(PK.LONGEST_PATH, g, 9, None, EdgeDel(1, 2), 9)
    out = compositional_reopt_kernelize(
        inst, builtin_spec(PK.LONGEST_PATH), identity
    )
    assert out.is_reduced
    envs = environment(g, EdgeDel(1, 2))
    assert out.graph.n == sum(comp.n for comp, _ in envs)


# --- IVST e+ ---------------------------------------------------------------


def test_ivst_eplus_witness_yes_without_graph_access():
    corrupt = Graph.from_edges(3, [])
    inst = ReoptInstance(
        PK.IVST, corrupt, 2, frozenset({(0, 1), (1, 2)}), EdgeAdd(0, 1), 2
    )

    def exploding(comp, k):
        raise AssertionError("must not inspect components on the yes branch")

    out = ivst_reopt_kernelize_eplus(
        inst, ComponentKernelizer("exploding", exploding)
    )
    assert out.is_decided and out.answer is True


def test_ivst_eplus_bridging_triangles():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    inst = ReoptInstance(PK.IVST, g, 2, None, EdgeAdd(0, 3), 2)
    out = ivst_reopt_kernelize_eplus(inst, exact_ck(PK.IVST))
    assert out.is_decided and out.answer is True


def test_ivst_eplus_bridging_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    inst = ReoptInstance(PK.IVST, g, 1, None, EdgeAdd(1, 2), 1)
    out = ivst_reopt_kernelize_eplus(inst, exact_ck(PK.IVST))
    assert out.is_decided and out.answer is True


def test_ivst_eplus_union_kernel_variant():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    inst = ReoptInstance(PK.IVST, g, 1, None, EdgeAdd(1, 2), 1)
    prior = build_extremal(PK.IVST, 1)
    out = ivst_reopt_kernelize_eplus(inst, exact_ck(PK.IVST), prior_kernel=prior)
    assert out.is_reduced
    assert out.graph.n >= prior.n
    assert membership(PK.IVST, out.graph, 1)


def test_canonical_yes_instance_sizes():
    assert build_extremal(PK.IVST, 1).n == 3  # 2k bound only holds from k = 2
    for k in range(2, 6):
        g = build_extremal(PK.IVST, k)
        assert g.n == k + 2 <= 2 * k
        assert membership(PK.IVST, g, k)


# --- composition checks ---------------------------------------------------------------


def test_check_composition_small_bounds():
    assert check_composition(builtin_spec(PK.IVST), Compositionality.OR, 3).holds
    assert check_composition(builtin_spec(PK.CLIQUE), Compositionality.OR, 3).holds
    report = check_composition(
        builtin_spec(PK.LONGEST_PATH), Compositionality.AND, 3
    )
    assert not report.holds
    g1, g2, k = report.counterexample
    lhs = membership(PK.LONGEST_PATH, g1, k) and membership(PK.LONGEST_PATH, g2, k)
    from rekern.graphs import disjoint_union as du

    assert lhs != membership(PK.LONGEST_PATH, du(g1, g2), k)


def test_builtin_spec_table():
    """Each built-in spec is one shared object built from its problem's
    row; a row that declares no compositionality has no spec."""
    from rekern.errors import UnsupportedCombination
    from rekern.oracles import solve_exact, verify_solution
    from rekern.problems import PROBLEMS

    assert builtin_spec(PK.IVST).monotonicity is Monotonicity.COMONOTONE
    assert builtin_spec(PK.TREEWIDTH).compositionality is Compositionality.AND
    with pytest.raises(Exception):
        builtin_spec(PK.VERTEX_COVER)
    declared = {}
    g = disjoint_union(cycle_graph(3), path_graph(3))
    for kind, row in PROBLEMS.items():
        if row.compositionality is Compositionality.NEITHER:
            assert row.monotonicity is Monotonicity.NEITHER
            with pytest.raises(UnsupportedCombination):
                builtin_spec(kind)
            continue
        spec = builtin_spec(kind)
        assert spec is builtin_spec(kind) and spec.kind is kind
        assert spec.name == kind.value and spec.direction is row.direction
        declared[kind] = (spec.monotonicity, spec.compositionality)
        solution = solve_exact(kind, g)
        for k in range(4):
            assert spec.oracle(g, k) == membership(kind, g, k)
            assert spec.verifier(g, k, solution.witness) == verify_solution(
                kind, g, solution.witness, k
            )
    assert declared == {
        PK.IVST: (Monotonicity.COMONOTONE, Compositionality.OR),
        PK.CLIQUE: (Monotonicity.COMONOTONE, Compositionality.OR),
        PK.LONGEST_PATH: (Monotonicity.MONOTONE, Compositionality.OR),
        PK.TREEWIDTH: (Monotonicity.MONOTONE, Compositionality.AND),
    }


def test_and_comonotone_deletion_rule():
    """The fourth dispatch rule, driven by a custom spec: every component
    has minimum degree >= k (AND-compositional, closed under additions)."""
    from rekern.framework import ProblemSpec
    from rekern.problems import Direction

    def min_degree_at_least(g: Graph, k: int) -> bool:
        return all(g.degree(v) >= k for v in g.vertices)

    spec = ProblemSpec(
        name="min-degree",
        kind=PK.VERTEX_COVER,  # placeholder tag; oracle below is what runs
        direction=Direction.MAX,
        monotonicity=Monotonicity.COMONOTONE,
        compositionality=Compositionality.AND,
        verifier=lambda g, k, cand: min_degree_at_least(g, k),
        oracle=min_degree_at_least,
    )
    ck = ComponentKernelizer(
        "min-degree-exact",
        lambda comp, k: KernelResult.decided(min_degree_at_least(comp, k)),
    )
    # no witness: deleting an edge cannot create membership
    g = disjoint_union(cycle_graph(3), path_graph(3))
    inst = ReoptInstance(PK.VERTEX_COVER, g, 2, None, EdgeDel(0, 1), 2)
    out = compositional_reopt_kernelize(inst, spec, ck)
    assert out.is_decided and out.answer is False
    # witness present: the environment components get re-checked
    g = disjoint_union(cycle_graph(3), cycle_graph(4))
    inst = ReoptInstance(PK.VERTEX_COVER, g, 2, "any", EdgeDel(3, 4), 2)
    out = compositional_reopt_kernelize(inst, spec, ck)
    assert out.is_decided
    assert out.answer == min_degree_at_least(inst.modified, 2) is False
    # ... and a deletion that keeps every degree high enough stays yes
    g = disjoint_union(complete_graph(4), cycle_graph(3))
    inst = ReoptInstance(PK.VERTEX_COVER, g, 2, "any", EdgeDel(0, 1), 2)
    out = compositional_reopt_kernelize(inst, spec, ck)
    assert out.answer is True


def test_spec_verifier_and_oracle_agree():
    """Whenever the spec's oracle says yes, the solver's witness passes the
    spec's verifier at that parameter."""
    from rekern.smallgraphs import all_graphs_upto

    for g in all_graphs_upto(5):
        for kind in (PK.IVST, PK.LONGEST_PATH, PK.CLIQUE, PK.TREEWIDTH):
            spec = builtin_spec(kind)
            solution = solve_exact(kind, g)
            for k in range(0, g.n + 2):
                if spec.oracle(g, k):
                    assert spec.verifier(g, k, solution.witness), (kind, g, k)
