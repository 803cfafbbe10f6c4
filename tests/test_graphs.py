import pytest

from rekern.errors import ModificationInvalid, VertexOutOfRange
from rekern.graphs import (
    Digraph,
    EdgeAdd,
    EdgeDel,
    Graph,
    VertexAdd,
    VertexDel,
    adjacency_masks,
    apply_modification,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    mask_reach,
    path_graph,
    reach_within,
    split,
)


def test_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1)], labels=["only-one"])


def test_duplicate_edges_collapse():
    g = Graph.from_edges(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_edge_add_turns_path_into_triangle():
    g = path_graph(3)
    out = apply_modification(g, EdgeAdd(0, 2))
    assert out.edges == cycle_graph(3).edges
    assert g.edges != out.edges  # original untouched


def test_vertex_del_reindexes_and_keeps_labels():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], labels=["a", "b", "c"])
    out = apply_modification(g, VertexDel(0))
    assert out.n == 2 and out.edges == frozenset({(0, 1)})
    assert out.labels == ("b", "c")


def test_edge_add_derives_an_adjacency_only_from_a_parent_that_holds_one():
    from rekern.smallgraphs import all_graphs_upto
    from tests.conftest import absent_pairs

    for g in all_graphs_upto(6):
        for u, v in absent_pairs(g):
            # fresh copies: the atlas graphs are shared between tests
            bare, held = Graph(g.n, g.edges), Graph(g.n, g.edges)
            held.adjacency
            child = apply_modification(bare, EdgeAdd(u, v))
            assert "adjacency" not in bare.__dict__
            assert "adjacency" not in child.__dict__
            child = apply_modification(held, EdgeAdd(u, v))
            assert "adjacency" in child.__dict__
            assert child.adjacency == Graph(child.n, child.edges).adjacency


def test_edge_add_existing_rejected():
    with pytest.raises(ModificationInvalid):
        apply_modification(path_graph(3), EdgeAdd(0, 1))
    with pytest.raises(ModificationInvalid):
        apply_modification(path_graph(3), EdgeAdd(1, 1))
    with pytest.raises(ModificationInvalid):
        apply_modification(path_graph(3), EdgeDel(0, 2))
    with pytest.raises(ModificationInvalid):
        apply_modification(path_graph(3), VertexDel(7))
    with pytest.raises(ModificationInvalid):
        apply_modification(path_graph(3), VertexAdd(frozenset({9})))


def test_vertex_add_appends_last_index():
    g = path_graph(2)
    out = apply_modification(g, VertexAdd(frozenset({0, 1})))
    assert out.n == 3 and out.has_edge(2, 0) and out.has_edge(2, 1)


def test_modification_round_trip(rng):
    from rekern.smallgraphs import random_graph
    from tests.conftest import absent_pairs

    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        absent = absent_pairs(g)
        if not absent:
            continue
        u, v = absent[rng.randrange(len(absent))]
        there = apply_modification(g, EdgeAdd(u, v))
        back = apply_modification(there, EdgeDel(u, v))
        assert back == g


def test_components_partition_and_split():
    g = disjoint_union(path_graph(3), path_graph(2))
    comps = components(g)
    assert comps == [[0, 1, 2], [3, 4]]
    assert split(g.n, g.edges, comps) == [
        frozenset({(0, 1), (1, 2)}),
        frozenset({(0, 1)}),
    ]


def test_split_equals_the_induced_subgraphs_and_keeps_arc_directions(rng):
    """On every atlas graph with up to 6 vertices, labelled, each part's
    edges are those of the induced copy of its component; on random
    digraphs, each part's arcs are those inside its weak component, in
    their direction."""
    from rekern.smallgraphs import all_graphs_upto

    for plain in all_graphs_upto(6, min_n=0):
        g = Graph(plain.n, plain.edges, tuple(f"v{i}" for i in range(plain.n)))
        comps = components(g)
        got = split(g.n, g.edges, comps)
        assert got == [induced_subgraph(g, comp)[0].edges for comp in comps]
    for _ in range(60):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        d = Digraph.from_arcs(n, [arc for arc in pairs if rng.random() < 0.1])
        comps = components(Graph.from_edges(n, d.arcs))
        got = split(n, d.arcs, comps)
        assert len(got) == len(comps)
        for comp, arcs in zip(comps, got):
            inside = set(comp)
            assert {(comp[u], comp[v]) for u, v in arcs} == {
                (u, v) for u, v in d.arcs if u in inside
            }


def test_components_cover_disjoint_connected(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), 0.25)
        comps = components(g)
        seen = [v for comp in comps for v in comp]
        assert sorted(seen) == list(range(g.n))
        assert len(seen) == len(set(seen))
        lookup = {v: i for i, comp in enumerate(comps) for v in comp}
        for u, v in g.edges:
            assert lookup[u] == lookup[v]
        for comp in comps:
            sub, _ = induced_subgraph(g, comp)
            assert len(components(sub)) == 1


def test_mask_reach_equals_reach_within(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), 0.3)
        masks = adjacency_masks(g)
        assert masks == [sum(1 << u for u in g.adjacency[v]) for v in g.vertices]
        within = {v for v in g.vertices if rng.random() < 0.7}
        for start in sorted(within):
            expected = reach_within(g, start, within)
            got = mask_reach(masks, 1 << start, sum(1 << v for v in within))
            assert got == sum(1 << v for v in expected)


def test_disjoint_union_shifts_and_counts():
    g = disjoint_union(path_graph(2), path_graph(2))
    assert g.n == 4 and len(g.edges) == 2 and len(components(g)) == 2
    assert disjoint_union(Graph.from_edges(0), path_graph(3)) == path_graph(3)
    k33 = disjoint_union(complete_graph(3), complete_graph(3))
    assert k33.n == 6 and len(k33.edges) == 6


def test_disjoint_union_commutes_with_components(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(25):
        g1 = random_graph(rng, rng.randint(1, 6), 0.4)
        g2 = random_graph(rng, rng.randint(1, 6), 0.4)
        union = disjoint_union(g1, g2)
        shifted = [[v + g1.n for v in comp] for comp in components(g2)]
        assert components(union) == components(g1) + shifted


def test_induced_subgraph_index_map():
    g = cycle_graph(5)
    sub, idx = induced_subgraph(g, [0, 2, 3])
    assert sub.n == 3 and idx == (0, 2, 3)
    assert sub.edges == frozenset({(1, 2)})  # only 2-3 survives


def _bfs_components(g):
    """Reference split: breadth-first search over the neighbour sets."""
    from collections import deque

    seen = [False] * g.n
    result = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp, queue = [], deque([start])
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        result.append(sorted(comp))
    return result


def test_components_equal_a_breadth_first_split_and_build_no_adjacency(rng):
    """Every atlas graph up to 7 vertices, under three seeded relabellings
    each, the empty graph, and graphs with isolated vertices."""
    from rekern.smallgraphs import all_graphs_upto

    cases = [Graph.from_edges(0), Graph.from_edges(4), Graph.from_edges(6, [(1, 4)])]
    for g in all_graphs_upto(7):
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            cases.append(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    for g in cases:
        got = components(g)
        assert "adjacency" not in g.__dict__
        assert got == _bfs_components(g)


def test_induced_subgraph_on_every_vertex_shares_the_edge_set():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)], labels=list("abcde"))
    g.adjacency  # a held adjacency is not carried over
    sub, idx = induced_subgraph(g, range(g.n))
    assert sub == g and sub.edges is g.edges and sub.labels == g.labels
    assert idx == tuple(range(g.n))
    assert "adjacency" not in sub.__dict__
    with pytest.raises(VertexOutOfRange):
        induced_subgraph(g, [g.n])
