import json
from itertools import combinations, permutations
from pathlib import Path

import pytest

from rekern.decomposition import TreeDecomposition, validate_tree_decomposition
from rekern.errors import SizeGuardExceeded
from rekern.graphs import (
    Digraph,
    Graph,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    path_graph,
    star_graph,
)
from rekern.instances import KernelResult
from rekern import oracles
from rekern.oracles import (
    is_clique,
    is_connected_vertex_cover,
    is_vertex_cover,
    membership,
    solve_exact,
    verify_kernel_equivalence,
    verify_solution,
)
from rekern.problems import PROBLEMS, ProblemKind as PK
from rekern.setcover import SetCoverInstance

IVST_VALUES = Path(__file__).with_name("data") / "ivst_values.json"
TREEWIDTH_VALUES = Path(__file__).with_name("data") / "treewidth_values.json"
LONGEST_PATH_VALUES = Path(__file__).with_name("data") / "longest_path_values.json"
# K_{2,3} plus an edge inside its larger side: degeneracy 2, min-degree
# width 3, treewidth 3.
K23_PLUS = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)])
# Three legs of length 2 around vertex 0: every path misses at least two
# vertices, so IVST runs its subset DP.
SPIDER = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def brute_vc(g: Graph) -> int:
    for size in range(g.n + 1):
        for sub in combinations(range(g.n), size):
            if is_vertex_cover(g, sub):
                return size
    raise AssertionError


def brute_treewidth(g: Graph) -> int:
    best = None
    for order in permutations(range(g.n)):
        adj = {v: set(g.adjacency[v]) for v in g.vertices}
        width = -1
        for v in order:
            nbrs = adj[v]
            width = max(width, len(nbrs))
            for a in nbrs:
                adj[a] |= nbrs - {a}
                adj[a].discard(v)
            del adj[v]
            if best is not None and width >= best:
                break
        if best is None or width < best:
            best = width
    return best if best is not None else -1


def test_vc_known_values():
    assert solve_exact(PK.VERTEX_COVER, cycle_graph(5)).value == 3
    assert solve_exact(PK.VERTEX_COVER, complete_graph(4)).value == 3
    assert solve_exact(PK.VERTEX_COVER, star_graph(9)).value == 1


def test_vc_matches_brute_force_and_witness_is_lex_min(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        got = solve_exact(PK.VERTEX_COVER, g)
        assert got.value == brute_vc(g)
        assert is_vertex_cover(g, got.witness) and len(got.witness) == got.value
        lex_min = min(
            (
                tuple(sub)
                for sub in combinations(range(g.n), got.value)
                if is_vertex_cover(g, sub)
            ),
            default=(),
        )
        assert tuple(sorted(got.witness)) == lex_min


def test_treewidth_known_values_and_brute(rng):
    from rekern.smallgraphs import random_graph

    assert solve_exact(PK.TREEWIDTH, path_graph(6)).value == 1
    assert solve_exact(PK.TREEWIDTH, star_graph(5)).value == 1
    assert solve_exact(PK.TREEWIDTH, cycle_graph(6)).value == 2
    assert solve_exact(PK.TREEWIDTH, complete_graph(5)).value == 4
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        got = solve_exact(PK.TREEWIDTH, g)
        assert got.value == brute_treewidth(g)
        assert validate_tree_decomposition(g, got.witness) == []
        assert got.witness.width == got.value


def _reference_validate(g: Graph, td: TreeDecomposition) -> list[str]:
    """``validate_tree_decomposition`` with the subtree clause written as
    one induced subgraph of the bag tree plus ``components`` per vertex."""
    violations: list[str] = []
    if td.tree.n == 0:
        return ["decomposition has no bags"]
    if td.tree.n > 1 and len(td.tree.edges) != td.tree.n - 1:
        violations.append("bag graph is not a tree (wrong edge count)")
    if len(components(td.tree)) != 1:
        violations.append("bag graph is not connected")
    if frozenset().union(*td.bags) != frozenset(g.vertices):
        violations.append("bags do not cover every vertex")
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            violations.append(f"edge {(u, v)} inside no bag")
    for v in g.vertices:
        holding = [i for i, bag in enumerate(td.bags) if v in bag]
        if holding and len(components(induced_subgraph(td.tree, holding)[0])) != 1:
            violations.append(f"bags containing vertex {v} do not form a subtree")
    return violations


def _decomposition(bags, tree_edges) -> TreeDecomposition:
    return TreeDecomposition(
        Graph.from_edges(len(bags), tree_edges), tuple(frozenset(b) for b in bags)
    )


@pytest.mark.parametrize(
    "g, td, violation",
    [
        (path_graph(3), _decomposition([], []), "decomposition has no bags"),
        (
            path_graph(3),
            _decomposition([{0, 1}, {1, 2}, {1}], [(0, 1), (1, 2), (0, 2)]),
            "bag graph is not a tree (wrong edge count)",
        ),
        (
            path_graph(3),
            _decomposition([{0, 1}, {1, 2}, {1}, set()], [(0, 1), (1, 2), (0, 2)]),
            "bag graph is not connected",
        ),
        (
            Graph.from_edges(4, [(0, 1), (1, 2)]),
            _decomposition([{0, 1}, {1, 2}], [(0, 1)]),
            "bags do not cover every vertex",
        ),
        (
            path_graph(3),
            _decomposition([{0, 1}, {1, 2, 3}], [(0, 1)]),
            "bags do not cover every vertex",
        ),
        (path_graph(3), _decomposition([{0, 1}, {2}], [(0, 1)]), "edge (1, 2) inside no bag"),
        (
            path_graph(3),
            _decomposition([{0, 1}, {1, 2}, {0}], [(0, 1), (1, 2)]),
            "bags containing vertex 0 do not form a subtree",
        ),
    ],
)
def test_each_tree_decomposition_clause_fires_alone(g, td, violation):
    assert validate_tree_decomposition(g, td) == [violation]
    assert _reference_validate(g, td) == [violation]


def test_validator_verdicts_on_mutated_decompositions_match_the_reference(rng):
    """Optimal decompositions of every atlas graph up to 5 vertices, each
    mutated three times by dropping or adding a bag vertex, adding a vertex
    outside the graph, dropping a tree edge, adding a tree edge or adding a
    bag; the verdict lists equal the reference's."""
    from rekern.smallgraphs import all_graphs_upto

    clauses = (
        "bag graph is not a tree",
        "bag graph is not connected",
        "bags do not cover",
        "edge (",
        "bags containing vertex",
    )
    fired = set()
    for g in all_graphs_upto(5):
        td = solve_exact(PK.TREEWIDTH, g).witness
        for _ in range(3):
            bags = [set(bag) for bag in td.bags]
            edges = set(td.tree.edges)
            for _ in range(rng.randint(1, 3)):
                op = rng.randrange(6)
                if op == 0:
                    rng.choice(bags).discard(rng.randrange(g.n))
                elif op == 1:
                    rng.choice(bags).add(rng.randrange(g.n))
                elif op == 2 and edges:
                    edges.discard(rng.choice(sorted(edges)))
                elif op == 3:
                    bags.append({rng.randrange(g.n)})
                    if rng.random() < 0.5:
                        edges.add((rng.randrange(len(bags) - 1), len(bags) - 1))
                elif op == 4:
                    rng.choice(bags).add(rng.choice((-1, g.n)))
                elif op == 5 and len(bags) > 2:
                    a, b = rng.sample(range(len(bags)), 2)
                    edges.add((min(a, b), max(a, b)))
            mutated = _decomposition(bags, edges)
            verdict = validate_tree_decomposition(g, mutated)
            assert verdict == _reference_validate(g, mutated), (g, mutated)
            fired.update(c for c in clauses for line in verdict if line.startswith(c))
    assert fired == set(clauses)


def test_treewidth_outputs_match_the_pinned_fill_degree_search():
    """Width, elimination order and decomposition (bags in order, tree
    edges) equal those pinned in ``tests/data/treewidth_values.json``, and
    every decomposition validates."""
    from rekern.graphs import components
    from rekern.smallgraphs import all_graphs_upto

    data = json.loads(TREEWIDTH_VALUES.read_text())
    atlas = [g for g in all_graphs_upto(7) if len(components(g)) == 1]
    assert len(atlas) == len(data["atlas"]) == 996 and len(data["random"]) == 20
    cases = list(zip(atlas, data["atlas"]))
    for entry in data["random"]:
        g = Graph.from_edges(entry["n"], [tuple(e) for e in entry["edges"]])
        assert len(components(g)) == 1 and 8 <= g.n <= 10
        cases.append((g, entry))
    for g, entry in cases:
        width, order, _ = oracles._tw_elimination(oracles.adjacency_masks(g))
        assert (width, order) == (entry["width"], entry["order"]), g
        solution = oracles._solve_treewidth(g)
        td = solution.witness
        assert solution.value == entry["width"], g
        assert [sorted(bag) for bag in td.bags] == entry["bags"], g
        assert sorted(list(e) for e in td.tree.edges) == entry["tree"], g
        assert validate_tree_decomposition(g, td) == []


def test_treewidth_subset_dp_runs_only_where_the_bounds_differ(monkeypatch):
    calls = []
    elimination = oracles._tw_elimination
    monkeypatch.setattr(
        oracles, "_tw_elimination", lambda m: calls.append(m) or elimination(m)
    )
    for g, width in ((path_graph(6), 1), (cycle_graph(7), 2)):
        solution = oracles._solve_treewidth(g)
        assert solution.value == width and calls == []
    g = K23_PLUS
    assert oracles._tw_bounds(oracles.adjacency_masks(g))[:2] == (2, 3)
    solution = oracles._solve_treewidth(g)
    assert solution.value == 3 and calls == [oracles.adjacency_masks(g)]
    assert validate_tree_decomposition(g, solution.witness) == []


def test_treewidth_bounds_enclose_the_pinned_width():
    """Degeneracy <= treewidth <= min-degree width on every connected atlas
    graph up to 7 vertices, and the min-degree order's decomposition has
    exactly the upper bound's width."""
    from rekern.smallgraphs import all_graphs_upto

    data = json.loads(TREEWIDTH_VALUES.read_text())
    atlas = [g for g in all_graphs_upto(7) if len(components(g)) == 1]
    for g, entry in zip(atlas, data["atlas"]):
        lower, upper, order, later = oracles._tw_bounds(oracles.adjacency_masks(g))
        assert lower <= entry["width"] <= upper, g
        assert sorted(order) == list(g.vertices)
        assert oracles._td_from_order(order, later).width == upper, g


def _reference_later_sets(g: Graph, order: list[int]) -> list[int]:
    """Each vertex's later set, as a mask, from eliminating ``order`` on
    plain neighbour sets: an eliminated vertex's remaining neighbours
    become a clique."""
    nbrs = {v: set(g.adjacency[v]) for v in g.vertices}
    later = [0] * g.n
    for v in order:
        rest = nbrs.pop(v)
        later[v] = sum(1 << w for w in rest)
        for w in rest:
            nbrs[w] |= rest
            nbrs[w] -= {v, w}
    return later


def test_later_sets_equal_a_reference_elimination_with_fill():
    """Both elimination passes hand over the later sets of their own order,
    as a set-based elimination with fill finds them: on every connected
    atlas graph up to 7 vertices, and on seeded random connected graphs
    of 8 to 10 vertices where the bounds differ, so the subset DP runs."""
    import random

    from rekern.smallgraphs import all_graphs_upto, random_graph

    graphs = [g for g in all_graphs_upto(7) if len(components(g)) == 1]
    rng = random.Random(1976)
    differ = 0
    while differ < 20:
        g = random_graph(rng, rng.randint(8, 10), rng.choice([0.3, 0.45, 0.6]))
        bounds = oracles._tw_bounds(oracles.adjacency_masks(g))[:2]
        if len(components(g)) == 1 and bounds[0] != bounds[1]:
            graphs.append(g)
            differ += 1
    for g in graphs:
        masks = oracles.adjacency_masks(g)
        _, _, order, later = oracles._tw_bounds(masks)
        assert later == _reference_later_sets(g, order), g
        _, order, later = oracles._tw_elimination(masks)
        assert later == _reference_later_sets(g, order), g


@pytest.mark.parametrize(
    "solve, graphs",
    [
        (oracles._solve_treewidth, [path_graph(6), K23_PLUS]),
        (oracles._solve_ivst, [cycle_graph(7), SPIDER]),
    ],
    ids=["treewidth", "ivst"],
)
def test_each_solve_builds_its_masks_once(solve, graphs, monkeypatch):
    """The subset DPs take the masks that their solver built, so a solve
    builds them once whether its bounds settle the answer or not."""
    built = []
    real = oracles.adjacency_masks
    monkeypatch.setattr(
        oracles, "adjacency_masks", lambda g: built.append(g) or real(g)
    )
    for g in graphs:
        solve(g)
        assert built == [g]
        built.clear()


def test_ivst_known_values():
    assert solve_exact(PK.IVST, path_graph(4)).value == 2
    assert solve_exact(PK.IVST, star_graph(4)).value == 1
    assert solve_exact(PK.IVST, complete_graph(4)).value == 2
    assert solve_exact(PK.IVST, Graph.from_edges(2, [(0, 1)])).value == 0


def _pinned_ivst_values():
    """(graph, value) pairs from ``tests/data/ivst_values.json``."""
    from rekern.graphs import components
    from rekern.smallgraphs import all_graphs_upto

    data = json.loads(IVST_VALUES.read_text())
    atlas = [g for g in all_graphs_upto(7) if len(components(g)) == 1]
    assert len(atlas) == len(data["atlas"]) == 996
    pairs = list(zip(atlas, data["atlas"]))
    for entry in data["random"]:
        g = Graph.from_edges(entry["n"], [tuple(e) for e in entry["edges"]])
        assert len(components(g)) == 1 and 8 <= g.n <= 10
        pairs.append((g, entry["value"]))
    return pairs


def test_ivst_values_match_the_pinned_subset_dp():
    """The shortcut and the canonical-order subset DP each give the pinned
    optimum, with a witness subtree that reaches it."""
    for g, value in _pinned_ivst_values():
        shortcut = oracles._solve_ivst(g)
        subset_dp = oracles._ivst_subset_dp(oracles.adjacency_masks(g))
        for name, solution in (("shortcut", shortcut), ("subset DP", subset_dp)):
            assert solution.value == value, (name, g)
            assert verify_solution(PK.IVST, g, solution.witness, value)


def test_ivst_subset_dp_runs_only_without_a_path_on_n_minus_1_vertices(monkeypatch):
    calls = []
    subset_dp = oracles._ivst_subset_dp
    monkeypatch.setattr(
        oracles, "_ivst_subset_dp", lambda m: calls.append(m) or subset_dp(m)
    )
    hamiltonian = cycle_graph(7)
    solution = oracles._solve_ivst(hamiltonian)
    assert solution.value == 5 and calls == []
    assert verify_solution(PK.IVST, hamiltonian, solution.witness, 5)
    # Legs of length 2, 2 and 1 around vertex 0: no Hamiltonian path, but
    # one on the five vertices off the short leg, so n - 3.
    short_spider = Graph.from_edges(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    solution = oracles._solve_ivst(short_spider)
    assert solution.value == 3 and calls == []
    assert verify_solution(PK.IVST, short_spider, solution.witness, 3)
    assert subset_dp(oracles.adjacency_masks(short_spider)).value == 3
    solution = oracles._solve_ivst(SPIDER)
    assert solution.value == 4 and calls == [oracles.adjacency_masks(SPIDER)]
    assert verify_solution(PK.IVST, SPIDER, solution.witness, 4)


def test_longest_path_known_values():
    assert solve_exact(PK.LONGEST_PATH, complete_graph(3)).value == 2
    assert solve_exact(PK.LONGEST_PATH, path_graph(5)).value == 4
    assert solve_exact(PK.LONGEST_PATH, star_graph(4)).value == 2


def test_longest_path_outputs_match_the_pinned_extension_table():
    """Value and witness path equal those pinned in
    ``tests/data/longest_path_values.json``, up to the 16-vertex guard."""
    from rekern.smallgraphs import all_graphs_upto

    data = json.loads(LONGEST_PATH_VALUES.read_text())
    atlas = [g for g in all_graphs_upto(7) if len(components(g)) == 1]
    assert len(atlas) == len(data["atlas"]) == 996 and len(data["random"]) == 20
    cases = list(zip(atlas, data["atlas"]))
    for entry in data["random"]:
        g = Graph.from_edges(entry["n"], [tuple(e) for e in entry["edges"]])
        assert len(components(g)) == 1 and 8 <= g.n <= 16
        cases.append((g, entry))
    assert max(g.n for g, _ in cases) == PROBLEMS[PK.LONGEST_PATH].size_guard
    for g, entry in cases:
        solution = oracles._solve_longest_path(g)
        assert solution == oracles.ExactSolution(entry["value"], tuple(entry["path"])), g
        assert verify_solution(PK.LONGEST_PATH, g, solution.witness, entry["value"])


def test_clique_known_values():
    assert solve_exact(PK.CLIQUE, complete_graph(5)).value == 5
    assert solve_exact(PK.CLIQUE, cycle_graph(5)).value == 2
    assert solve_exact(PK.CLIQUE, Graph.from_edges(3, [])).value == 1


def test_cvc_examples_and_relation_to_vc(rng):
    from rekern.smallgraphs import random_graph

    assert solve_exact(PK.CONNECTED_VERTEX_COVER, star_graph(4)).value == 1
    assert solve_exact(PK.CONNECTED_VERTEX_COVER, path_graph(4)).value == 2
    # edges in two components: no connected cover exists
    two = disjoint_union(path_graph(2), path_graph(2))
    assert solve_exact(PK.CONNECTED_VERTEX_COVER, two).value is None
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        from rekern.graphs import components

        cvc = solve_exact(PK.CONNECTED_VERTEX_COVER, g)
        vc = solve_exact(PK.VERTEX_COVER, g)
        if len(components(g)) == 1:
            assert cvc.value is not None and cvc.value >= vc.value
            assert is_connected_vertex_cover(g, cvc.witness)


def _first_optimum(g: Graph, sizes, accept):
    """The first vertex subset that ``accept`` takes, over ``sizes`` in order
    and ``itertools.combinations`` within a size: the lexicographically
    first optimum, as ``(size, set)``, or ``(None, None)``."""
    for size in sizes:
        for subset in combinations(range(g.n), size):
            if accept(subset):
                return size, frozenset(subset)
    return None, None


def _connected_within(g: Graph, vertices) -> bool:
    sub, _ = induced_subgraph(g, vertices)
    return len(components(sub)) <= 1


def _brute_force_optima(g: Graph):
    up, down = range(g.n + 1), range(g.n, -1, -1)
    return {
        PK.VERTEX_COVER: _first_optimum(g, up, lambda s: is_vertex_cover(g, s)),
        PK.CLIQUE: _first_optimum(g, down, lambda s: is_clique(g, s)),
        PK.CONNECTED_VERTEX_COVER: _first_optimum(
            g, up, lambda s: is_vertex_cover(g, s) and _connected_within(g, s)
        ),
    }


def test_cover_clique_and_cvc_witnesses_are_the_first_brute_force_optimum():
    """Every atlas graph up to 7 vertices (1,252 graphs, connected or not)."""
    from rekern.smallgraphs import all_graphs_upto

    checked = 0
    for g in all_graphs_upto(7):
        for kind, expected in _brute_force_optima(g).items():
            got = solve_exact(kind, g)
            assert (got.value, got.witness) == expected, (kind, g)
        checked += 1
    assert checked == 1252


def test_cover_and_clique_witnesses_on_larger_random_graphs(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(40):
        g = random_graph(rng, rng.randint(8, 12), rng.choice([0.25, 0.5, 0.75]))
        optima = _brute_force_optima(g)
        for kind in (PK.VERTEX_COVER, PK.CLIQUE, PK.CONNECTED_VERTEX_COVER):
            got = solve_exact(kind, g)
            assert (got.value, got.witness) == optima[kind], (kind, g)


def test_cvc_membership_equals_the_unbudgeted_value():
    """For every atlas graph up to 6 vertices and every k from 0 to n + 1
    (1,583 cases), the capped search answers as the minimum does."""
    from rekern.smallgraphs import all_graphs_upto

    cases = 0
    for g in all_graphs_upto(6):
        optimum = solve_exact(PK.CONNECTED_VERTEX_COVER, g)
        for k in range(g.n + 2):
            member = membership(PK.CONNECTED_VERTEX_COVER, g, k)
            assert member == oracles.meets(PK.CONNECTED_VERTEX_COVER, optimum, k), (g, k)
            cases += 1
    assert cases == 1583


def test_leaf_out_tree_star_and_path():
    star = Digraph.from_arcs(4, [(0, 1), (0, 2), (0, 3)])
    assert solve_exact(PK.LEAF_OUT_TREE, star).value == 3
    chain = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert solve_exact(PK.LEAF_OUT_TREE, chain).value == 1


def test_leaf_out_tree_guards_every_weak_component_before_solving_any(monkeypatch):
    """Every weak component is guarded before any is solved; equal
    components share one cached solve."""
    calls = []
    row = oracles._ORACLES[PK.LEAF_OUT_TREE]

    def counting(d):
        calls.append(d.n)
        return row.solve(d)

    counted = row._replace(solve=counting)
    monkeypatch.setitem(oracles._ORACLES, PK.LEAF_OUT_TREE, counted)
    oracles._solve_component.cache_clear()
    m = 1000
    arcs = [(2 * i, 2 * i + 1) for i in range(m)]
    got = solve_exact(PK.LEAF_OUT_TREE, Digraph.from_arcs(2 * m, arcs))
    assert (got.value, got.witness) == (1, frozenset({(0, 1)}))
    assert calls == [2]
    calls.clear()
    oracles._solve_component.cache_clear()
    # A 9-vertex path after the arcs is over the guard of 8 vertices.
    tail = [(2 * m + i, 2 * m + i + 1) for i in range(8)]
    with pytest.raises(SizeGuardExceeded):
        solve_exact(PK.LEAF_OUT_TREE, Digraph.from_arcs(2 * m + 9, arcs + tail))
    assert calls == []


def _first_best_weak_component(d: Digraph) -> oracles.ExactSolution:
    """Leaf out tree by hand: each weak component's digraph, built from
    the arcs inside it, solved by the raw solver and mapped back; the
    first best wins."""
    best = None
    for comp in components(Graph.from_edges(d.n, d.arcs)):
        index = {v: i for i, v in enumerate(comp)}
        local = Digraph.from_arcs(
            len(comp), [(index[u], index[v]) for u, v in d.arcs if u in index]
        )
        got = oracles._leaf_out_tree_component(local)
        if best is None or got.value > best.value:
            witness = frozenset((comp[u], comp[v]) for u, v in got.witness)
            best = oracles.ExactSolution(got.value, witness)
    return best or oracles.ExactSolution(0, frozenset())


def test_leaf_out_tree_is_the_first_best_weak_component(rng):
    """On random disconnected digraphs, a cold and a warm ``solve_exact``
    both equal the first best weak component solved on its own."""
    checked = 0
    for _ in range(150):
        n = rng.randint(0, 12)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = [arc for arc in pairs if rng.random() < 0.12]
        d = Digraph.from_arcs(n, arcs)
        comps = components(Graph.from_edges(n, arcs))
        if len(comps) < 2 or max(map(len, comps)) > 8:
            continue
        expected = _first_best_weak_component(d)
        oracles._solve_component.cache_clear()
        assert solve_exact(PK.LEAF_OUT_TREE, d) == expected, d
        assert solve_exact(PK.LEAF_OUT_TREE, d) == expected, d
        checked += 1
    assert checked == 86


def test_many_disjoint_edges_solve_in_one_split():
    """10^4 disjoint edges and a triangle: one pass hands every edge to its
    component, and equal components share one cached solve."""
    m = 10_000
    edges = [(2 * i, 2 * i + 1) for i in range(m)]
    edges += [(2 * m, 2 * m + 1), (2 * m + 1, 2 * m + 2), (2 * m, 2 * m + 2)]
    got = solve_exact(PK.VERTEX_COVER, Graph.from_edges(2 * m + 3, edges))
    assert got.value == m + 2
    assert got.witness == frozenset(range(0, 2 * m, 2)) | {2 * m, 2 * m + 1}


def test_set_cover_solver():
    sc = SetCoverInstance.of(3, [{1}, {2}, {1, 2, 3}], 2)
    got = solve_exact(PK.SET_COVER, sc)
    assert got.value == 1 and got.witness == (2,)
    sc2 = SetCoverInstance.of(3, [{1}, {2}], 2)
    assert solve_exact(PK.SET_COVER, sc2).value is None


def test_verify_solution_examples():
    assert verify_solution(PK.CONNECTED_VERTEX_COVER, star_graph(3), {0}, 1)
    assert not verify_solution(PK.CONNECTED_VERTEX_COVER, path_graph(4), {0, 3}, 2)
    g = cycle_graph(5)
    assert verify_solution(PK.IVST, g, {(0, 1), (1, 2), (2, 3)}, 2)
    assert not verify_solution(PK.IVST, g, {(0, 1), (2, 3)}, 1)  # forest, not tree
    assert verify_solution(PK.LONGEST_PATH, g, (0, 1, 2), 2)
    assert not verify_solution(PK.LONGEST_PATH, g, (0, 2), 1)  # not adjacent


def test_vertex_cover_check_builds_no_adjacency():
    from rekern.smallgraphs import all_graphs_upto

    for g in all_graphs_upto(6):
        h = Graph(g.n, g.edges)  # a fresh copy: the atlas graphs are shared
        for mask in range(1 << g.n):
            subset = [v for v in range(g.n) if mask >> v & 1]
            expect = all(any(u in subset for u in e) for e in g.edges)
            assert is_vertex_cover(h, subset) is expect
            for outside in (-1, g.n):
                assert not is_vertex_cover(h, [*subset, outside])
        assert "adjacency" not in h.__dict__


def test_witnesses_verify_across_kinds(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), 0.45)
        for kind in (PK.VERTEX_COVER, PK.IVST, PK.LONGEST_PATH, PK.CLIQUE, PK.TREEWIDTH):
            got = solve_exact(kind, g)
            assert verify_solution(kind, g, got.witness, got.value), (kind, g)


def test_oracle_determinism(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(15):
        g = random_graph(rng, 7, 0.4)
        for kind in (PK.VERTEX_COVER, PK.IVST, PK.LONGEST_PATH, PK.CLIQUE):
            assert solve_exact(kind, g) == solve_exact(kind, g)


def test_size_guards():
    big = Graph.from_edges(25, [(i, i + 1) for i in range(24)])
    with pytest.raises(SizeGuardExceeded):
        solve_exact(PK.VERTEX_COVER, big)
    # explicit limit override admits it
    assert solve_exact(PK.VERTEX_COVER, big, limit=25).value == 12
    # ... and its cached answer does not get past the default guard
    with pytest.raises(SizeGuardExceeded):
        solve_exact(PK.VERTEX_COVER, big)
    with pytest.raises(SizeGuardExceeded):
        solve_exact(PK.TREEWIDTH, complete_graph(11))


def test_components_stream_through_the_combine_rule():
    """``solve_exact`` hands the combine rule one mapped component at a
    time, so on 5,000 isolated vertices the peak traced memory of a vertex
    cover or treewidth solve stays near that of finding and splitting the
    components alone.  On Python 3.10 to 3.13 the ratios read 1.00 and
    2.99 to 3.01; keeping every mapped part until the combine gave 1.77 to
    1.80 and 3.76 to 4.12."""
    import tracemalloc

    from rekern.graphs import split

    n = 5_000
    g = Graph.from_edges(n, [])

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak(lambda: split(n, g.edges, components(g)))
    assert peak(lambda: solve_exact(PK.VERTEX_COVER, g)) < 1.3 * alone
    assert peak(lambda: solve_exact(PK.TREEWIDTH, g)) < 3.4 * alone


@pytest.mark.parametrize(
    "kind",
    [PK.VERTEX_COVER, PK.TREEWIDTH, PK.CONNECTED_VERTEX_COVER],
    ids=lambda k: k.value,
)
def test_guards_run_before_any_adjacency_mask(kind, monkeypatch):
    """Every component is guarded by its size before any is solved, so a
    long path is refused without its masks, which take about n^2 / 16
    bytes, and a small component ahead of a large one is not solved."""
    built = []
    real = oracles.adjacency_masks

    def counting(g):
        built.append(g.n)
        return real(g)

    monkeypatch.setattr(oracles, "adjacency_masks", counting)
    oracles._solve_component.cache_clear()
    n = 100_000
    for g in (path_graph(n), disjoint_union(path_graph(3), path_graph(n))):
        with pytest.raises(SizeGuardExceeded):
            solve_exact(kind, g)
    assert built == []


CEILING_KINDS = [PK.LONGEST_PATH, PK.IVST, PK.CLIQUE]


@pytest.mark.parametrize("kind", CEILING_KINDS, ids=lambda k: k.value)
def test_membership_above_the_ceiling_equals_the_unbudgeted_value(kind):
    """For every k from 0 to n + 1, ``membership`` equals the comparison
    with the unbudgeted optimum: on the empty graph, on every atlas graph
    up to 6 vertices, and on the disjoint union of each of them with each
    atlas graph up to 4 vertices (3,744 unions; all 21,736 pairs of the
    6-vertex atlas take about 4 s per kind)."""
    from rekern.smallgraphs import all_graphs_upto

    atlas = list(all_graphs_upto(6, min_n=0))
    small = list(all_graphs_upto(4))
    graphs = atlas + [disjoint_union(g, h) for g in atlas[1:] for h in small]
    for g in graphs:
        value = solve_exact(kind, g).value
        for k in range(g.n + 2):
            assert membership(kind, g, k) == (value >= k), (g, k)


@pytest.mark.parametrize(
    "kind, g, k",
    [
        (PK.LONGEST_PATH, path_graph(5), 5),
        (PK.LONGEST_PATH, Graph.from_edges(0), 1),
        (PK.IVST, path_graph(5), 4),
        (PK.IVST, Graph.from_edges(2, [(0, 1)]), 1),
        (PK.CLIQUE, disjoint_union(complete_graph(3), path_graph(4)), 5),
    ],
    ids=["lp-path", "lp-empty", "ivst-path", "ivst-edge", "clique-union"],
)
def test_budget_above_the_ceiling_builds_and_solves_nothing(kind, g, k, monkeypatch):
    """Above the largest component's ceiling the answer is no with no
    copy, mask, cache lookup or solve."""

    def refuse(*_args):
        raise AssertionError("nothing may be built or solved above the ceiling")

    for name in ("_solve_component", "split", "adjacency_masks"):
        monkeypatch.setattr(oracles, name, refuse)
    assert solve_exact(kind, g, budget=k) == oracles.ExactSolution(None, None)
    assert membership(kind, g, k) is False


@pytest.mark.parametrize("kind", CEILING_KINDS, ids=lambda k: k.value)
def test_size_guard_runs_before_the_ceiling(kind):
    with pytest.raises(SizeGuardExceeded):
        membership(kind, path_graph(100_000), 1_000_000)


# The five component kinds, each with its raw (uncached) solver.
RAW_SOLVERS = [
    pytest.param(kind, raw, id=kind.value)
    for kind, raw in [
        (PK.VERTEX_COVER, oracles._solve_vertex_cover),
        (PK.TREEWIDTH, oracles._solve_treewidth),
        (PK.IVST, oracles._solve_ivst),
        (PK.LONGEST_PATH, oracles._solve_longest_path),
        (PK.CLIQUE, oracles._solve_clique),
    ]
]


@pytest.mark.parametrize("kind, raw", RAW_SOLVERS)
def test_component_cache_is_transparent(kind, raw):
    """On every connected atlas graph up to 7 vertices, a cold and a warm
    ``solve_exact`` both equal the raw solver, and the warm call is a hit."""
    from rekern.graphs import components
    from rekern.smallgraphs import all_graphs_upto

    oracles._solve_component.cache_clear()
    for g in all_graphs_upto(7):
        if len(components(g)) != 1:
            continue
        expected = raw(g)
        before = oracles._solve_component.cache_info()
        assert solve_exact(kind, g) == expected
        middle = oracles._solve_component.cache_info()
        assert middle.misses == before.misses + 1
        assert solve_exact(kind, g) == expected
        assert oracles._solve_component.cache_info().hits == middle.hits + 1


def _component_route(kind, raw, g: Graph):
    """``solve_exact`` as one ``components`` + ``induced_subgraph`` copy
    per component, each solved by the raw solver and mapped back."""
    parts = [
        (raw(sub), idx)
        for sub, idx in (induced_subgraph(g, comp) for comp in components(g))
    ]
    if not parts:
        return raw(g)
    if kind is PK.VERTEX_COVER:
        cover = frozenset(idx[v] for local, idx in parts for v in local.witness)
        return oracles.ExactSolution(sum(local.value for local, _ in parts), cover)
    if kind is PK.TREEWIDTH:
        bags, tree_edges = [], []
        for local, idx in parts:
            offset = len(bags)
            if offset:
                tree_edges.append((offset - 1, offset))
            tree_edges += [(offset + a, offset + b) for a, b in local.witness.tree.edges]
            bags += [frozenset(idx[v] for v in bag) for bag in local.witness.bags]
        td = TreeDecomposition(Graph.from_edges(len(bags), tree_edges), tuple(bags))
        return oracles.ExactSolution(max(local.value for local, _ in parts), td)
    local, idx = max(parts, key=lambda part: part[0].value)
    if kind is PK.LONGEST_PATH:
        witness = tuple(idx[v] for v in local.witness)
    elif kind is PK.IVST:
        witness = frozenset(tuple(sorted((idx[u], idx[v]))) for u, v in local.witness)
    else:
        witness = frozenset(idx[v] for v in local.witness)
    return oracles.ExactSolution(local.value, witness)


@pytest.mark.parametrize("kind, raw", RAW_SOLVERS)
def test_bitmask_component_split_equals_the_component_route(kind, raw):
    """On every atlas graph with up to 6 vertices (the empty and the
    disconnected ones included), ``solve_exact`` equals the route through
    ``components`` and ``induced_subgraph`` in value and witness."""
    from rekern.smallgraphs import all_graphs_upto

    checked = disconnected = 0
    for g in all_graphs_upto(6, min_n=0):
        assert solve_exact(kind, g) == _component_route(kind, raw, g), g
        checked += 1
        disconnected += len(components(g)) > 1
    assert checked == 209 and disconnected == 65


def test_verify_kernel_equivalence_examples():
    k4 = complete_graph(4)
    assert verify_kernel_equivalence(
        PK.VERTEX_COVER, k4, 2, KernelResult.reduced(k4, 2)
    )
    assert verify_kernel_equivalence(
        PK.VERTEX_COVER, star_graph(9), 1, KernelResult.decided(True)
    )
    assert not verify_kernel_equivalence(
        PK.VERTEX_COVER, cycle_graph(3), 1, KernelResult.decided(True)
    )


def test_min_problem_monotone_under_edge_addition(rng):
    from rekern.smallgraphs import random_graph
    from tests.conftest import absent_pairs

    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), 0.4)
        base = solve_exact(PK.VERTEX_COVER, g).value
        for u, v in absent_pairs(g):
            from rekern.graphs import EdgeAdd, apply_modification

            bigger = solve_exact(
                PK.VERTEX_COVER, apply_modification(g, EdgeAdd(u, v))
            ).value
            assert bigger >= base
