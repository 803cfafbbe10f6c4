import json
import random
from itertools import combinations

import pytest

from rekern.graphs import Graph
from rekern.oracles import _solve_vertex_cover, is_vertex_cover


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (use only for tiny n)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        )


def all_minimum_vertex_covers(g: Graph) -> list[frozenset[int]]:
    """Every minimum vertex cover, by exhaustive enumeration (tiny graphs)."""
    opt = _solve_vertex_cover(g).value
    assert opt is not None
    return [
        frozenset(subset)
        for subset in combinations(range(g.n), opt)
        if is_vertex_cover(g, subset)
    ]


def emit_dimacs(g: Graph) -> str:
    """A graph as the DIMACS-like edge list that ``formats.parse_dimacs``
    reads: 1-based vertices, edges in ascending order."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def absent_pairs(g: Graph):
    return [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if not g.has_edge(i, j)
    ]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def planted_cover_document(n: int, seed: int) -> str:
    """A vertex cover document on ``n`` vertices: a planted cover A of
    n / 3 vertices, each other vertex adjacent to one to three of them,
    and an edge added between two vertices outside A."""
    rng = random.Random(seed)
    side_a = list(range(n // 3))
    edges = sorted(
        {(a, b) for b in range(n // 3, n) for a in rng.sample(side_a, rng.randint(1, 3))}
    )
    return json.dumps(
        {
            "format": "rekern-instance",
            "version": 1,
            "problem": "vertex_cover",
            "graph": {"n": n, "edges": edges, "labels": [f"v{i}" for i in range(n)]},
            "k": len(side_a),
            "witness": side_a,
            "modification": {"op": "edge_add", "u": n - 2, "v": n - 1},
        }
    )
