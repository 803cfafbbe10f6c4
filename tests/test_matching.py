import hashlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from rekern.errors import SidesOverlap, TargetUnmatched, VertexOutOfRange
from rekern.graphs import Graph, cycle_graph, path_graph, star_graph
from rekern.matching import (
    Matching,
    alternating_reachability,
    maximum_bipartite_matching,
    rematch_to_expose,
)


MATCHING_PINS = Path(__file__).with_name("data") / "matching_pairs_sha256.json"


def brute_max_matching(g: Graph, side_a: set[int], side_b: set[int]) -> int:
    """Independent oracle: best disjoint set of cross edges, all subsets."""
    cross = [
        e
        for e in g.sorted_edges()
        if (e[0] in side_a and e[1] in side_b) or (e[0] in side_b and e[1] in side_a)
    ]
    best = 0
    for size in range(len(cross), 0, -1):
        if size <= best:
            break
        for subset in combinations(cross, size):
            used = [v for e in subset for v in e]
            if len(used) == len(set(used)):
                best = max(best, size)
                break
    return best


def test_matching_type_rejects_shared_vertices():
    with pytest.raises(ValueError):
        Matching.of([(0, 1), (1, 2)])


def test_star_matching_size_one():
    g = star_graph(3)
    m = maximum_bipartite_matching(g, {0}, {1, 2, 3})
    assert m.size == 1


def test_c4_perfect_matching():
    g = cycle_graph(4)
    m = maximum_bipartite_matching(g, {0, 2}, {1, 3})
    assert m.size == 2


def test_two_by_three_example():
    # A={a1,a2}, B={b1,b2,b3}, edges a1b1, a1b2, a2b1 -> size 2
    g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 2)])
    m = maximum_bipartite_matching(g, {0, 1}, {2, 3, 4})
    assert m.size == 2
    assert sorted(m.pairs) == [(0, 3), (1, 2)]


def test_sides_overlap_rejected():
    with pytest.raises(SidesOverlap):
        maximum_bipartite_matching(star_graph(2), {0, 1}, {1, 2})


def test_matching_matches_brute_force(rng):
    from rekern.smallgraphs import random_graph

    checked = 0
    for _ in range(120):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.45)
        if len(g.edges) > 12:
            continue
        side_a = {v for v in range(n) if rng.random() < 0.5}
        side_b = set(range(n)) - side_a
        m = maximum_bipartite_matching(g, side_a, side_b)
        assert m.size == brute_max_matching(g, side_a, side_b)
        for u, v in m.pairs:
            assert g.has_edge(u, v)
            assert (u in side_a) != (v in side_a)
        checked += 1
    assert checked > 60


def test_matching_determinism(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(20):
        g = random_graph(rng, 7, 0.5)
        side_a = {0, 1, 2}
        side_b = {3, 4, 5, 6}
        first = maximum_bipartite_matching(g, side_a, side_b)
        second = maximum_bipartite_matching(g, side_a, side_b)
        assert first == second


def test_alternating_reachability_examples():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    m = Matching.of([(0, 1)])
    ra, rb, _, _ = alternating_reachability(g, {0}, {1, 2, 3}, m)
    assert ra == {0} and rb == {1}

    # perfect matching, nothing unmatched
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    m = Matching.of([(0, 2), (1, 3)])
    assert alternating_reachability(g, {0, 1}, {2, 3}, m) == (frozenset(),) * 4

    # extra edge pulls in exactly one pair
    g = Graph.from_edges(5, [(0, 2), (1, 3), (0, 4)])
    m = Matching.of([(0, 2), (1, 3)])
    ra, rb, _, _ = alternating_reachability(g, {0, 1}, {2, 3, 4}, m)
    assert ra == {0} and rb == {2}


def test_alternating_reachability_disjoint_for_maximum(rng):
    from rekern.smallgraphs import random_graph

    def check(g, side_a, side_b):
        m = maximum_bipartite_matching(g, side_a, side_b)
        a1, b1, a2, b2 = alternating_reachability(g, side_a, side_b, m)
        assert not (a1 & a2) and not (b1 & b2)
        assert a1 <= m.vertices() and b2 <= m.vertices()

    # exhaustive over isomorphism classes up to 5 vertices, all splits
    from rekern.smallgraphs import all_graphs_upto

    for g in all_graphs_upto(5):
        for mask in range(1 << g.n):
            side_a = {v for v in range(g.n) if (mask >> v) & 1}
            check(g, side_a, set(range(g.n)) - side_a)
    # random splits at larger sizes
    for _ in range(150):
        n = rng.randint(6, 8)
        g = random_graph(rng, n, 0.4)
        side_a = {v for v in range(n) if rng.random() < 0.5}
        check(g, side_a, set(range(n)) - side_a)


def test_rematch_to_expose_examples():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    m = Matching.of([(0, 1)])
    res = rematch_to_expose(g, {0}, {1, 2}, m, 1)
    assert res is not None and res.pairs == frozenset({(0, 2)})

    # perfect matching, no unmatched escape vertex
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    m = Matching.of([(0, 2), (1, 3)])
    assert rematch_to_expose(g, {0, 1}, {2, 3}, m, 2) is None

    # the only escape is forbidden
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    m = Matching.of([(0, 1)])
    assert rematch_to_expose(g, {0}, {1, 2}, m, 1, forbidden=2) is None


def test_rematch_requires_matched_target():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    m = Matching.of([(0, 1)])
    with pytest.raises(TargetUnmatched):
        rematch_to_expose(g, {0}, {1, 2}, m, 2)


def test_rematch_preserves_cardinality_and_exposes_target(rng):
    from rekern.smallgraphs import random_graph

    exercised = 0
    for _ in range(200):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, 0.45)
        side_a = {v for v in range(n) if rng.random() < 0.5}
        side_b = set(range(n)) - side_a
        m = maximum_bipartite_matching(g, side_a, side_b)
        matched_b = sorted(m.vertices() & side_b)
        if not matched_b:
            continue
        target = matched_b[rng.randrange(len(matched_b))]
        res = rematch_to_expose(g, side_a, side_b, m, target)
        if res is None:
            continue
        assert res.size == m.size
        assert target not in res.vertices()
        for u, v in res.pairs:
            assert g.has_edge(u, v)
        previously = m.vertices() - {target}
        assert previously & side_a <= res.vertices()  # A-side stays covered
        exercised += 1
    assert exercised > 30


def test_greedy_matching_is_the_lexicographic_edge_greedy():
    from rekern.matching import greedy_matching
    from rekern.smallgraphs import all_graphs_upto

    for g in all_graphs_upto(7):
        used: set[int] = set()
        by_edges = set()
        for u, v in g.sorted_edges():
            if u not in used and v not in used:
                by_edges.add((u, v))
                used |= {u, v}
        greedy = greedy_matching(g)
        assert greedy.pairs == by_edges, g
        matched = greedy.vertices()
        assert all(u in matched or v in matched for u, v in g.edges), g


def test_reachability_without_an_unmatched_blocker():
    """Dropping an unmatched B vertex from side B reaches what the same
    search reaches on the graph with that vertex deleted."""
    from rekern.graphs import induced_subgraph
    from tests.conftest import all_minimum_vertex_covers
    from rekern.smallgraphs import all_graphs_upto

    checked = 0
    for g in all_graphs_upto(7):
        for side_a in all_minimum_vertex_covers(g):
            side_b = frozenset(g.vertices) - side_a
            m = maximum_bipartite_matching(g, side_a, side_b)
            for y in sorted(side_b - m.vertices()):
                dropped = alternating_reachability(g, side_a, side_b - {y}, m)
                sub, idx = induced_subgraph(g, [w for w in g.vertices if w != y])
                back = {old: new for new, old in enumerate(idx)}
                on_sub = alternating_reachability(
                    sub,
                    {back[a] for a in side_a},
                    {back[b] for b in side_b - {y}},
                    Matching.of((back[u], back[v]) for u, v in m.pairs),
                )
                assert dropped == tuple(
                    frozenset(idx[w] for w in reached) for reached in on_sub
                ), (g, side_a, y)
                checked += 1
    assert checked > 1000


def test_out_of_range_side_vertices_rejected():
    g = path_graph(4)
    m = Matching.of([(0, 1)])
    calls = [
        lambda a, b: maximum_bipartite_matching(g, a, b),
        lambda a, b: alternating_reachability(g, a, b, m),
        lambda a, b: rematch_to_expose(g, a, b, m, 1),
    ]
    for bad in (g.n, -1):
        for side_a, side_b in (({0, 2, bad}, {1, 3}), ({0, 2}, {1, 3, bad})):
            for call in calls:
                with pytest.raises(VertexOutOfRange):
                    call(side_a, side_b)
        # an overlap is reported before a vertex out of range
        for call in calls:
            with pytest.raises(SidesOverlap):
                call({0, 2, bad}, {1, 2, 3})


def _networkx_matching(g: Graph, side_a, side_b) -> Matching:
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(
        (u, v) for u, v in g.edges if (u in side_a and v in side_b)
        or (u in side_b and v in side_a)
    )
    mate = nx.bipartite.hopcroft_karp_matching(h, top_nodes=side_a)
    return Matching.of((a, mate[a]) for a in side_a if a in mate)


def test_matching_size_equals_networkx_hopcroft_karp(rng):
    from rekern.smallgraphs import random_graph

    for _ in range(40):
        n = rng.randint(50, 300)
        g = random_graph(rng, n, rng.uniform(0.5, 4.0) / n)
        share = rng.uniform(0.2, 0.8)
        side_a = {v for v in range(n) if rng.random() < share}
        side_b = set(range(n)) - side_a
        m = maximum_bipartite_matching(g, side_a, side_b)
        assert m.size == _networkx_matching(g, side_a, side_b).size
        for u, v in m.pairs:
            assert g.has_edge(u, v)
            assert (u in side_a) != (v in side_a)


def test_crowns_do_not_depend_on_which_maximum_matching():
    """The alternating-reachable sets are the same for every maximum
    matching (Dulmage-Mendelsohn), so both canonical crowns are too."""
    from tests.conftest import all_minimum_vertex_covers
    from rekern.smallgraphs import all_graphs_upto
    from rekern.vc_kernels import _partition_from_matching

    checked = differing = 0
    for g in all_graphs_upto(7):
        for cover in all_minimum_vertex_covers(g):
            rest = frozenset(g.vertices) - cover
            ours = maximum_bipartite_matching(g, cover, rest)
            theirs = _networkx_matching(g, cover, rest)
            mine = _partition_from_matching(g, cover, ours)
            other = _partition_from_matching(g, cover, theirs)
            assert mine.crown_c1() == other.crown_c1(), (g, cover)
            assert mine.crown_c2() == other.crown_c2(), (g, cover)
            checked += 1
            differing += ours != theirs
    assert checked > 3000 and differing > 1000


def test_partner_map_is_built_once_per_matching():
    m = Matching.of([(2, 0), (1, 3)])
    assert m.partner_map() is m.partner_map()
    assert m.partner_map() == {0: 2, 2: 0, 1: 3, 3: 1}
    assert m.vertices() == {0, 1, 2, 3}
    assert m == Matching.of([(0, 2), (1, 3)]) and hash(m) == hash(Matching(m.pairs))
    # the shared lookup is read-only, so no caller can change the matching
    with pytest.raises(TypeError):
        m.partner_map()[0] = 1  # type: ignore[index]
    assert m.vertices() == {0, 1, 2, 3}


# --- pinned Hopcroft-Karp ties -------------------------------------------------


def _planted_cover(n: int, seed: int) -> tuple[Graph, range, range]:
    """A cover A of the first n / 3 vertices, each later vertex joined to
    one to three of them, and n / 10 random edges inside A."""
    rng = random.Random(seed)
    a_side = range(n // 3)
    edges = {
        (a, b) for b in range(n // 3, n) for a in rng.sample(a_side, rng.randint(1, 3))
    }
    edges |= {tuple(sorted(rng.sample(a_side, 2))) for _ in range(n // 10)}
    return Graph.from_edges(n, edges), a_side, range(n // 3, n)


def _staircase(a_side: int, leaf_at: int) -> tuple[Graph, range, range]:
    """A-vertex i is joined to B-vertices i - 1 and i, and one more B leaf
    hangs off A-vertex ``leaf_at``: augmenting paths as long as the chain."""
    edges = [(i, a_side + i) for i in range(a_side)]
    edges += [(i, a_side + i - 1) for i in range(1, a_side)]
    edges.append((leaf_at, 2 * a_side))
    n = 2 * a_side + 1
    return Graph.from_edges(n, edges), range(a_side), range(a_side, n)


def pinned_matching_cases() -> dict[str, tuple[Graph, range, range]]:
    cases = {
        f"planted-{n}-seed{seed}": _planted_cover(n, seed)
        for n, seed in ((2000, 1), (3000, 2), (4000, 3), (5000, 4))
    }
    cases["staircase-600"] = _staircase(600, 590)
    return cases


def _matching_pin(m: Matching) -> dict[str, object]:
    pairs = json.dumps(sorted(m.pairs)).encode()
    return {"size": m.size, "sha256": hashlib.sha256(pairs).hexdigest()}


def matching_pins() -> dict[str, dict[str, object]]:
    return {
        name: _matching_pin(maximum_bipartite_matching(g, a, b))
        for name, (g, a, b) in pinned_matching_cases().items()
    }


def test_matching_pairs_match_the_pinned_ties():
    """Hopcroft-Karp picks the same pairs as the version that wrote
    ``tests/data/matching_pairs_sha256.json``, not just a matching of the
    same size."""
    pinned = json.loads(MATCHING_PINS.read_text())
    actual = matching_pins()
    assert sorted(actual) == sorted(pinned)
    for name, pin in pinned.items():
        assert actual[name] == pin, name


if __name__ == "__main__":
    MATCHING_PINS.write_text(json.dumps(matching_pins(), indent=1) + "\n")
    sys.stdout.write(f"wrote {MATCHING_PINS}\n")
