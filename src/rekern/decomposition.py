"""Tree decompositions and their validator."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, adjacency_masks, mask_reach


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree over bag indices together with the bags themselves."""

    tree: Graph
    bags: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.tree.n != len(self.bags):
            raise ValueError("one bag per tree node required")

    @property
    def width(self) -> int:
        return max((len(bag) for bag in self.bags), default=0) - 1


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> list[str]:
    """All violated tree-decomposition clauses; empty list means valid.

    Works on bitmasks over bag indices: the bag tree's adjacency, and for
    each vertex of ``g`` the bags that hold it.  A bag vertex outside ``g``
    leaves the cover clause unmet.
    """
    if td.tree.n == 0:
        return ["decomposition has no bags"]
    violations: list[str] = []
    if td.tree.n > 1 and len(td.tree.edges) != td.tree.n - 1:
        violations.append("bag graph is not a tree (wrong edge count)")
    tree = adjacency_masks(td.tree)
    every_bag = (1 << td.tree.n) - 1
    if mask_reach(tree, 1, every_bag) != every_bag:
        violations.append("bag graph is not connected")

    holding = [0] * g.n  # holding[v]: the bags that hold v
    stray = False
    for i, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < g.n:
                holding[v] |= 1 << i
            else:
                stray = True
    if stray or not all(holding):
        violations.append("bags do not cover every vertex")
    for u, v in g.edges:
        if not holding[u] & holding[v]:
            violations.append(f"edge {(u, v)} inside no bag")
    for v, bags in enumerate(holding):
        if bags and mask_reach(tree, bags & -bags, bags) != bags:
            violations.append(f"bags containing vertex {v} do not form a subtree")
    return violations
