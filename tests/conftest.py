import random
from itertools import combinations

import pytest

from rekern.graphs import Graph


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (use only for tiny n)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        )


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
