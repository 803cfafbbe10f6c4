import pytest

from rekern.crown import CrownDecomposition, crown_or_matching, validate_crown
from rekern.errors import PreconditionViolated
from rekern.graphs import Graph, cycle_graph, path_graph, star_graph
from rekern.matching import Matching


def test_validate_crown_star():
    g = star_graph(3)
    cd = CrownDecomposition.of({1, 2, 3}, {0}, set(), Matching.of([(0, 1)]))
    assert validate_crown(g, cd) == []


def test_validate_crown_dependent_crown():
    g = cycle_graph(3)
    cd = CrownDecomposition.of({0, 1}, {2}, set(), Matching.of([(1, 2)]))
    violations = validate_crown(g, cd)
    assert any("independent" in v for v in violations)


def test_validate_crown_edge_to_rest():
    g = path_graph(4)
    cd = CrownDecomposition.of({0, 3}, {1}, {2}, Matching.of([(0, 1)]))
    violations = validate_crown(g, cd)
    assert any("crown and rest" in v for v in violations)


def test_validate_crown_unsaturated_head():
    g = star_graph(3)
    cd = CrownDecomposition.of({1, 2, 3}, {0}, set(), Matching.of([]))
    violations = validate_crown(g, cd)
    assert any("saturate" in v or "size" in v for v in violations)


def test_empty_head_crown_of_isolated_vertices_is_valid():
    g = Graph.from_edges(3, [(1, 2)])
    cd = CrownDecomposition.of({0}, set(), {1, 2}, Matching.of([]))
    assert validate_crown(g, cd) == []


def test_crown_or_matching_star():
    out = crown_or_matching(star_graph(4), 1)
    assert out.crown is not None
    cd = out.crown
    assert cd.head == {0}
    assert validate_crown(star_graph(4), cd) == []


def test_crown_or_matching_prefers_matching():
    out = crown_or_matching(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)
    assert out.matching is not None and out.matching.size == 2

    out = crown_or_matching(cycle_graph(4), 1)
    assert out.matching is not None and out.matching.size == 2


def test_crown_or_matching_preconditions():
    with pytest.raises(PreconditionViolated):
        crown_or_matching(Graph.from_edges(4, [(0, 1)]), 1)  # isolated vertices
    with pytest.raises(PreconditionViolated):
        crown_or_matching(cycle_graph(3), 1)  # n < 3k + 1


def test_crown_dichotomy_on_random_graphs(rng):
    from rekern.smallgraphs import random_graph

    checked = 0
    for _ in range(300):
        n = rng.randint(4, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        if g.isolated_vertices():
            continue
        k_max = (g.n - 1) // 3
        if k_max < 1:
            continue
        k = rng.randint(1, k_max)
        out = crown_or_matching(g, k)
        if out.matching is not None:
            assert out.matching.size == k + 1
            for u, v in out.matching.pairs:
                assert g.has_edge(u, v)
        else:
            assert out.crown is not None
            assert validate_crown(g, out.crown) == []
        checked += 1
    assert checked > 150
