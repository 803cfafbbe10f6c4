"""The benchmark's four workloads.

Each workload makes a fixed list of cases from a seed (``build``), runs
one case through rekern (``run``), checks an output against answers
computed without rekern (``check``) and counts the vertices of the
kernels an output holds (``kernel_vertices``).  ``build`` does all input
generation and reference answers; ``run`` is the only part that is timed.

Every rekern function is looked up on its module at call time, so the
spans that ``tracing.Tracer`` installs see the calls.
"""

from __future__ import annotations

import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Any

import networkx as nx

import reference
from rekern import cli, decomposition, framework, graphs, instances, oracles, vc_kernels
from rekern.problems import ProblemKind

VC = ProblemKind.VERTEX_COVER
DEGENERATE = "case5-degenerate"


@dataclass(frozen=True)
class Case:
    data: Any
    expect: Any


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _normalize(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


# --- checks shared by the vertex cover workloads ------------------------------


def kernel_from_result(result) -> dict[str, Any]:
    """A ``KernelResult`` in the shape of the CLI's result document."""
    if result.is_decided:
        return {"kind": "decided", "answer": result.answer}
    graph = {"n": result.graph.n, "edges": sorted(result.graph.edges)}
    if result.graph.labels is not None:
        graph["labels"] = list(result.graph.labels)
    return {"kind": "reduced", "graph": graph, "parameter": result.parameter}


def kernel_size(doc: dict[str, Any]) -> int:
    """Vertices of a kernel document; a decided answer counts as the
    2-vertex instance ``instances.as_concrete_instance`` makes of it."""
    return doc["graph"]["n"] if doc["kind"] == "reduced" else 2


def check_vc_kernel(
    doc: dict[str, Any],
    *,
    answer: bool,
    k_modified: int,
    bound: int,
    cover_number,
    trace: tuple[str, ...] = (),
    degenerate_bound: int | None = None,
) -> list[str]:
    """Problems with one vertex cover kernel, given the true answer on the
    modified instance.  ``cover_number(graph_doc)`` is the reference solver
    for the reduced graph."""
    if doc["kind"] == "decided":
        if doc["answer"] is not answer:
            return [f"decided {doc['answer']}, reference says {answer}"]
        return []
    if doc["kind"] != "reduced":
        return [f"unknown result kind {doc['kind']!r}"]
    problems = []
    n, parameter = doc["graph"]["n"], doc["parameter"]
    if parameter > k_modified:
        problems.append(f"parameter {parameter} above k' = {k_modified}")
    allowed = bound
    if degenerate_bound is not None and DEGENERATE in trace:
        allowed = degenerate_bound
    if n > allowed:
        problems.append(f"kernel of {n} vertices above the bound {allowed}")
    reduced_answer = parameter >= 0 and cover_number(doc["graph"]) <= parameter
    if reduced_answer is not answer:
        problems.append(
            f"kernel answers {reduced_answer}, reference says {answer}"
        )
    return problems


def labelled_cover_number(graph: dict[str, Any]) -> int:
    """Cover number of a kernel whose labels name each vertex's side."""
    labels = graph.get("labels")
    if labels is None or len(labels) != graph["n"]:
        raise ValueError("kernel lost the side labels")
    side_a = {i for i, label in enumerate(labels) if label.startswith("a")}
    return reference.cover_number([tuple(e) for e in graph["edges"]], side_a)


def _side_labels(n: int, side_a: set[int]) -> list[str]:
    return [f"a{v}" if v in side_a else f"b{v}" for v in range(n)]


def _added_edge_cover_number(edges, side_a, u: int, v: int) -> int:
    """Cover number after adding ``uv`` inside B to a bipartite graph:
    some endpoint joins every cover, and what remains is bipartite."""
    return 1 + min(
        reference.konig_cover_number([e for e in edges if w not in e], side_a)
        for w in (u, v)
    )


# --- reopt2k-large --------------------------------------------------------------

BLOCK_A = 40
# Block kinds, repeated in this order.  A crown block has many B leaves
# and is removed by the crowns; a tight block is perfectly matched and
# stays in the kernel; a surplus block has more A than B vertices, so A is
# not a minimum cover there and unmatched A vertices stay in the kernel.
# The first A-vertex of a crown block has two private leaves, "twins", and
# no other neighbour.
GROUP = ("crown", "crown", "tight", "surplus")
B_PER_BLOCK = {"crown": 4 * BLOCK_A, "tight": BLOCK_A, "surplus": BLOCK_A // 2}
# Where the added edge's two endpoints lie, one pair per case in turn.
# Joining twins lands in case 5 whichever twin the matching takes, and no
# alternating path lets the matching give both up.
ENDPOINT_BLOCKS = (
    ("crown", "crown"),
    ("tight", "tight"),
    ("crown", "tight"),
    ("surplus", "tight"),
    ("twin", "twin"),
)
LARGE_GROUPS = (6, 8, 10, 12, 14, 6, 8, 10, 12, 14)
LARGE_GROUPS_TINY = (1, 1, 1, 1, 1)


def planted_cover_graph(rng: random.Random, groups: int):
    """A bipartite graph between a planted cover A and the rest B.

    It is a disjoint union of blocks with ``BLOCK_A`` A-vertices each, so
    an augmenting path never holds more than ``BLOCK_A`` A-vertices.
    Returns ``(n, edges, side_a, block_of_b, twins)``, where ``twins``
    lists the leaf pairs of the crown blocks.
    """
    edges: set[tuple[int, int]] = set()
    side_a: list[int] = []
    block_of_b: dict[int, str] = {}
    twins: list[tuple[int, int]] = []
    n = 0
    for block in range(groups * len(GROUP)):
        kind = GROUP[block % len(GROUP)]
        a_ids = list(range(n, n + BLOCK_A))
        b_ids = list(range(n + BLOCK_A, n + BLOCK_A + B_PER_BLOCK[kind]))
        n += BLOCK_A + B_PER_BLOCK[kind]
        side_a += a_ids
        block_of_b.update((b, kind) for b in b_ids)
        if kind == "crown":
            for b in b_ids:
                for a in rng.sample(a_ids[1:], rng.choice((1, 1, 2, 3))):
                    edges.add((a, b))
            for a in a_ids[1:]:
                edges.add((a, rng.choice(b_ids)))
            twins.append((n, n + 1))
            edges.update({(a_ids[0], n), (a_ids[0], n + 1)})
            n += 2
        elif kind == "tight":
            for a, b in zip(a_ids, rng.sample(b_ids, len(b_ids))):
                edges.add((a, b))
            for b in b_ids:
                for a in rng.sample(a_ids, 2):
                    edges.add((a, b))
        else:
            for b in b_ids:
                for a in rng.sample(a_ids, 3):
                    edges.add((a, b))
            for a in a_ids:
                edges.add((a, rng.choice(b_ids)))
    return n, sorted(edges), side_a, block_of_b, twins


def _document(n, edges, labels, k, **fields) -> str:
    doc = {
        "format": "rekern-instance",
        "version": 1,
        "problem": "vertex_cover",
        "graph": {"n": n, "edges": edges, "labels": labels},
        "k": k,
        **fields,
    }
    return json.dumps(doc)


def run_cli(argv: list[str], text: str) -> tuple[int, str]:
    """``rekern`` in process, reading ``text`` and returning exit code and
    standard output."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli.run_command(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved


class Reopt2kLarge:
    """Each case runs ``rekern kernelize vc --mode reopt2k`` on the
    reoptimization document, then ``--mode classic3k`` on the modified
    graph with k', both through ``cli.run_command``."""

    name = "reopt2k-large"
    REOPT = ["kernelize", "vc", "--mode", "reopt2k"]
    CLASSIC = ["kernelize", "vc", "--mode", "classic3k"]

    def build(self, seed: int, tiny: bool = False) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for i, groups in enumerate(LARGE_GROUPS_TINY if tiny else LARGE_GROUPS):
            n, edges, side_a, block_of_b, twins = planted_cover_graph(rng, groups)
            a_set = set(side_a)
            want = ENDPOINT_BLOCKS[i % len(ENDPOINT_BLOCKS)]
            present = set(edges)
            if want == ("twin", "twin"):
                u, v = rng.choice(twins)
            else:
                pools = [[b for b, k in block_of_b.items() if k == w] for w in want]
                while True:
                    u, v = rng.choice(pools[0]), rng.choice(pools[1])
                    if u != v and _normalize(u, v) not in present:
                        break
            # k' is the optimum of the original graph: the question is
            # whether the new edge forces a larger cover.
            k_modified = reference.konig_cover_number(edges, a_set)
            tau = _added_edge_cover_number(edges, a_set, u, v)
            labels = _side_labels(n, a_set)
            modified_edges = sorted(present | {_normalize(u, v)})
            reopt = _document(
                n, edges, labels, len(side_a),
                k_modified=k_modified,
                witness=side_a,
                modification={"op": "edge_add", "u": u, "v": v},
            )
            classic = _document(n, modified_edges, labels, k_modified)
            expect = {
                "k": len(side_a),
                "k_modified": k_modified,
                "answer": tau <= k_modified,
            }
            cases.append(Case((reopt, classic), expect))
        return cases

    def run(self, case: Case):
        reopt, classic = case.data
        return run_cli(self.REOPT, reopt), run_cli(self.CLASSIC, classic)

    def check(self, case: Case, output) -> list[str]:
        (code2, out2), (code3, out3) = output
        if code2 or code3:
            return [f"exit codes {code2} and {code3}"]
        e = case.expect
        doc2, doc3 = json.loads(out2), json.loads(out3)
        problems = check_vc_kernel(
            doc2,
            answer=e["answer"],
            k_modified=e["k_modified"],
            bound=2 * e["k"],
            degenerate_bound=2 * e["k"] + 1,
            trace=tuple(doc2.get("notes", {}).get("trace", ())),
            cover_number=labelled_cover_number,
        )
        problems += check_vc_kernel(
            doc3,
            answer=e["answer"],
            k_modified=e["k_modified"],
            bound=3 * e["k_modified"],
            cover_number=labelled_cover_number,
        )
        return problems

    def kernel_vertices(self, output) -> int:
        (_, out2), (_, out3) = output
        return kernel_size(json.loads(out2)) + kernel_size(json.loads(out3))


# --- augmenting-chain -----------------------------------------------------------

CHAIN_SIZES = (400, 500, 600, 700, 800)
CHAIN_SIZES_TINY = (12, 16)


def staircase(a_side: int, leaf_at: int):
    """A staircase chain: A-vertex i is adjacent to B-vertices i - 1 and i,
    and one more B leaf hangs off A-vertex ``leaf_at``.

    A-vertices are ``0 .. a_side - 1``, B-vertex i is ``a_side + i`` and
    the leaf is ``2 * a_side``.  Scanning A in index order, every A-vertex
    up to ``leaf_at`` first tries the B-vertex its predecessor holds, so
    Kuhn's search for A-vertex i fails along the whole chain below it
    before it succeeds: quadratic work, and a search as deep as the chain
    below the leaf.
    """
    edges = [(i, a_side + i) for i in range(a_side)]
    edges += [(i, a_side + i - 1) for i in range(1, a_side)]
    edges.append((leaf_at, 2 * a_side))
    return 2 * a_side + 1, sorted(edges)


def _chain_variants(rng: random.Random, a_side: int) -> list[tuple[int, int]]:
    """``(leaf_at, x)`` for the four cases of one chain size; the added
    edge joins the leaf to B-vertex ``x``.

    With the leaf on the top A-vertex, every other B-vertex lies outside
    the alternating paths from unmatched B (case 3), and the top B-vertex
    is reachable only through the leaf (the degenerate case 5).  With the
    leaf a little lower, the matching hands the leaf to its A-vertex, so
    the added edge needs a rematch first (case 4 below the leaf, case 5
    above it).
    """
    top = a_side - 1
    lower = top - 1 - rng.randrange(max(1, a_side // 50))
    return [
        (top, rng.randrange(top)),
        (top, top),
        (lower, rng.randrange(lower)),
        (lower, rng.randrange(lower, top)),
    ]


class AugmentingChain:
    """Each case runs the 2k kernel on a staircase chain whose leaf hangs
    near the top, so the matching search is nearly as deep as the A side,
    with an added edge from the leaf into the chain."""

    name = "augmenting-chain"

    def build(self, seed: int, tiny: bool = False) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for a_side in CHAIN_SIZES_TINY if tiny else CHAIN_SIZES:
            for leaf_at, x in _chain_variants(rng, a_side):
                n, edges = staircase(a_side, leaf_at)
                side_a = set(range(a_side))
                u, v = a_side + x, 2 * a_side
                tau = _added_edge_cover_number(edges, side_a, u, v)
                data = (n, edges, _side_labels(n, side_a), a_side, (u, v))
                cases.append(Case(data, {"k": a_side, "answer": tau <= a_side}))
        return cases

    def run(self, case: Case):
        n, edges, labels, k, (u, v) = case.data
        g = graphs.Graph.from_edges(n, edges, labels=labels)
        inst = instances.ReoptInstance(
            VC, g, k, frozenset(range(k)), graphs.EdgeAdd(u, v), k
        )
        return vc_kernels.reopt_vc_kernelize_2k_report(inst)

    def check(self, case: Case, report) -> list[str]:
        k = case.expect["k"]
        return check_vc_kernel(
            kernel_from_result(report.result),
            answer=case.expect["answer"],
            k_modified=k,
            bound=2 * k,
            degenerate_bound=2 * k + 1,
            trace=report.trace,
            cover_number=labelled_cover_number,
        )

    def kernel_vertices(self, report) -> int:
        return kernel_size(kernel_from_result(report.result))


# --- atlas-sweep ---------------------------------------------------------------

ATLAS_MAX_SMALL = 6
SEVEN_STRIDE = 8
DISPATCH_BUNDLES = 23


def _relabelled(gnx, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    n = gnx.number_of_nodes()
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(_normalize(perm[u], perm[v]) for u, v in gnx.edges())


def _sweep_size(gnx) -> int:
    """Instances the sweep makes of a 7-vertex graph."""
    return len(reference.minimum_covers(7, gnx.edges())) * (21 - gnx.number_of_edges())


def atlas_graphs(rng: random.Random, max_small: int, with_seven: bool):
    """One graph per isomorphism class on 2 to ``max_small`` vertices, plus
    (``with_seven``) a seeded eighth of the 7-vertex classes; every graph
    gets a seeded relabelling.

    The 7-vertex classes are ranked by how many sweep instances they give
    (minimum covers times absent edges) and one is drawn from each run of
    ``SEVEN_STRIDE`` in that ranking, so every seed sweeps about as many
    instances.
    """
    atlas = nx.graph_atlas_g()
    small = [g for g in atlas if 2 <= g.number_of_nodes() <= max_small]
    chosen = [_relabelled(g, rng) for g in small]
    if with_seven:
        seven = [g for g in atlas if g.number_of_nodes() == 7]
        seven.sort(key=_sweep_size)
        for start in range(0, len(seven), SEVEN_STRIDE):
            block = seven[start : start + SEVEN_STRIDE]
            chosen.append(_relabelled(block[rng.randrange(len(block))], rng))
    return chosen


class AtlasSweep:
    """For every minimum cover and every absent edge of each atlas graph,
    run the 2k kernel, the 3k kernel on the modified graph and
    ``oracles.verify_kernel_equivalence`` on the 2k result."""

    name = "atlas-sweep"

    def build(self, seed: int, tiny: bool = False) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for n, edges in atlas_graphs(rng, 4 if tiny else ATLAS_MAX_SMALL, not tiny):
            present = set(edges)
            absent = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in present
            ]
            covers = reference.minimum_covers(n, edges)
            # Adding uv keeps the cover number (so k' = k still suffices)
            # iff some minimum cover already holds u or v.
            answers = [any(u in c or v in c for c in covers) for u, v in absent]
            for cover in covers:
                for edge, answer in zip(absent, answers):
                    expect = {"k": len(cover), "answer": answer}
                    cases.append(Case((n, edges, cover, edge), expect))
        return cases

    def run(self, case: Case):
        n, edges, cover, (u, v) = case.data
        g = graphs.Graph.from_edges(n, edges)
        k = len(cover)
        inst = instances.ReoptInstance(
            VC, g, k, frozenset(cover), graphs.EdgeAdd(u, v), k
        )
        report = vc_kernels.reopt_vc_kernelize_2k_report(inst)
        modified = graphs.apply_modification(g, graphs.EdgeAdd(u, v))
        classic = vc_kernels.vc_kernelize_3k(modified, k)
        equivalent = oracles.verify_kernel_equivalence(VC, modified, k, report.result)
        return report, classic, equivalent

    def check(self, case: Case, output) -> list[str]:
        report, classic, equivalent = output
        k = case.expect["k"]
        answer = case.expect["answer"]

        def cover_number(graph):
            return reference.brute_cover_number(graph["n"], graph["edges"])

        problems = [] if equivalent else ["verify_kernel_equivalence said no"]
        problems += check_vc_kernel(
            kernel_from_result(report.result),
            answer=answer,
            k_modified=k,
            bound=2 * k,
            degenerate_bound=2 * k + 1,
            trace=report.trace,
            cover_number=cover_number,
        )
        problems += check_vc_kernel(
            kernel_from_result(classic),
            answer=answer,
            k_modified=k,
            bound=3 * k,
            cover_number=cover_number,
        )
        return problems

    def kernel_vertices(self, output) -> int:
        report, classic, _ = output
        return kernel_size(kernel_from_result(report.result)) + kernel_size(
            kernel_from_result(classic)
        )


# --- oracle-dispatch ------------------------------------------------------------


class OracleDispatch:
    """``framework.compositional_reopt_kernelize`` with the exact component
    kernelizer, in the three rules criterion 4 of the acceptance suite
    drives: longest path under deletions with no witness, and IVST and
    treewidth under additions with and without a witness.

    One case is every dispatch on every ``DISPATCH_BUNDLES``-th graph of
    the atlas order, so each case holds graphs of every size.  Single
    dispatches range from a witness shortcut of microseconds to an oracle
    run of milliseconds, and the dispatches of one graph grow steeply with
    its density; the median of either would jump between neighbouring
    values from run to run.
    """

    name = "oracle-dispatch"

    def build(self, seed: int, tiny: bool = False) -> list[Case]:
        rng = _rng(self.name, seed)
        jobs = []
        for n, edges in atlas_graphs(rng, 4 if tiny else ATLAS_MAX_SMALL, False):
            present = set(edges)
            absent = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in present
            ]
            deletions = [("edge_del", e) for e in rng.sample(edges, min(4, len(edges)))]
            deletions += [("vertex_del", v) for v in rng.sample(range(n), min(3, n))]
            added = rng.sample(absent, min(4, len(absent)))
            additions = [("edge_add", e) for e in added]
            additions.append(("vertex_add", tuple(range(n))))
            additions.append(("vertex_add", (rng.randrange(n),)))
            dispatches, truths = [], []

            k = reference.longest_path_edges(n, edges) + 1
            for mod in deletions:
                n2, edges2 = _modified(n, edges, mod)
                dispatches.append(("longest_path", k, None, mod))
                truths.append(reference.longest_path_edges(n2, edges2) >= k)

            after = [_modified(n, edges, mod) for mod in additions]
            value, tree = reference.max_internal_subtree(n, edges)
            values = [reference.max_internal_subtree(*g)[0] for g in after]
            for k in sorted({max(1, value), value + 1}):
                witness = tree if value >= k else None
                for mod, value_after in zip(additions, values):
                    dispatches.append(("ivst", k, witness, mod))
                    truths.append(value_after >= k)

            width, order = reference.treewidth(n, edges)
            bags, tree_edges = reference.decomposition_from_order(n, edges, order)
            td = decomposition.TreeDecomposition(
                graphs.Graph.from_edges(len(bags), tree_edges), tuple(bags)
            )
            widths = [reference.treewidth(*g)[0] for g in after]
            for k in sorted({max(1, width), width + 1}):
                witness = td if width <= k else None
                for mod, width_after in zip(additions, widths):
                    dispatches.append(("treewidth", k, witness, mod))
                    truths.append(width_after <= k)
            jobs.append(((n, edges, tuple(dispatches)), tuple(truths)))
        bundles = [jobs[b::DISPATCH_BUNDLES] for b in range(DISPATCH_BUNDLES)]
        return [
            Case(
                tuple(graph for graph, _ in bundle),
                tuple(truth for _, truths in bundle for truth in truths),
            )
            for bundle in bundles
            if bundle
        ]

    def run(self, case: Case):
        results = []
        for n, edges, dispatches in case.data:
            g = graphs.Graph.from_edges(n, edges)
            results += [self._dispatch(g, *d) for d in dispatches]
        return results

    @staticmethod
    def _dispatch(g, kind_name: str, k: int, witness, modification):
        op, arg = modification
        if op == "edge_add":
            mod = graphs.EdgeAdd(*arg)
        elif op == "edge_del":
            mod = graphs.EdgeDel(*arg)
        elif op == "vertex_add":
            mod = graphs.VertexAdd(frozenset(arg))
        else:
            mod = graphs.VertexDel(arg)
        kind = ProblemKind(kind_name)
        inst = instances.ReoptInstance(kind, g, k, witness, mod, k)
        # As in criterion 4: the deletion rule keeps its default component
        # bound, the addition rules allow any.
        extra = {}
        if kind is not ProblemKind.LONGEST_PATH:
            extra["max_env_components"] = g.n + 1
        return framework.compositional_reopt_kernelize(
            inst,
            framework.builtin_spec(kind),
            framework.exact_component_kernelizer(kind),
            **extra,
        )

    def check(self, case: Case, results) -> list[str]:
        problems = []
        kinds = [d[0] for _, _, dispatches in case.data for d in dispatches]
        for kind_name, truth, result in zip(kinds, case.expect, results):
            if result.is_decided:
                member = result.answer
            else:
                k, n = result.parameter, result.graph.n
                edges = sorted(result.graph.edges)
                if kind_name == "longest_path":
                    member = reference.longest_path_edges(n, edges) >= k
                elif kind_name == "ivst":
                    member = reference.max_internal_subtree(n, edges)[0] >= k
                else:
                    member = reference.treewidth(n, edges)[0] <= k
            if member is not truth:
                problems.append(f"{kind_name}: answer {member}, reference says {truth}")
        if len(results) != len(case.expect):
            problems.append(f"{len(results)} results for {len(case.expect)} dispatches")
        return problems

    def kernel_vertices(self, results) -> int:
        return sum(r.graph.n if r.is_reduced else 2 for r in results)


def _modified(n: int, edges, mod) -> tuple[int, list[tuple[int, int]]]:
    """The graph after one modification, in rekern's indexing."""
    op, arg = mod
    if op == "edge_add":
        return n, sorted(set(edges) | {arg})
    if op == "edge_del":
        return n, [e for e in edges if e != arg]
    if op == "vertex_add":
        return n + 1, sorted(set(edges) | {(w, n) for w in arg})
    shift = lambda w: w if w < arg else w - 1  # noqa: E731
    return n - 1, [(shift(a), shift(b)) for a, b in edges if arg not in (a, b)]


WORKLOADS = {
    w.name: w
    for w in (Reopt2kLarge(), AugmentingChain(), AtlasSweep(), OracleDispatch())
}
