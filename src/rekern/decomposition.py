"""Tree decompositions and their validator."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, components, reach_within


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
    """All violated tree-decomposition clauses; empty list means valid."""
    violations: list[str] = []
    if td.tree.n == 0:
        return ["decomposition has no bags"]
    if td.tree.n > 1 and len(td.tree.edges) != td.tree.n - 1:
        violations.append("bag graph is not a tree (wrong edge count)")
    if len(components(td.tree)) != 1:
        violations.append("bag graph is not connected")

    covered = frozenset().union(*td.bags) if td.bags else frozenset()
    if covered != frozenset(g.vertices):
        violations.append("bags do not cover every vertex")
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            violations.append(f"edge {(u, v)} inside no bag")
    for v in g.vertices:
        holding = {i for i, bag in enumerate(td.bags) if v in bag}
        if holding and len(reach_within(td.tree, min(holding), holding)) != len(holding):
            violations.append(f"bags containing vertex {v} do not form a subtree")
    return violations
