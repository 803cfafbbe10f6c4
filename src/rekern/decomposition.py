"""Tree decompositions, their validator, and the rule that extends one
to a graph with an added edge or vertex."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    EdgeAdd,
    Graph,
    LocalModification,
    VertexAdd,
    adjacency_masks,
    mask_reach,
)


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


def extends_to(td: TreeDecomposition, m: LocalModification, k: int) -> bool:
    """Whether ``td``, a tree decomposition of some graph G, extends to a
    decomposition of width at most ``k`` of G after the addition ``m``, by
    one of the rules below; ``False`` for a deletion, for a witness wider
    than ``k``, and whenever no rule applies.  Nothing is built.

    For an edge uv, the bag tree is walked breadth-first from the bags
    holding u to the nearest bag holding v; that path is the only one
    between the two ends' subtrees.  Adding u to every bag on it after the
    first keeps u's bags a subtree and puts u beside v, and so does adding
    v to every bag before the last.  So the answer is yes when every inner
    bag holds at most k vertices and so does v's end bag (u joins) or u's
    end bag (v joins); ``EdgeAdd(u, v)`` and ``EdgeAdd(v, u)`` get the same
    answer.  A bag holding both ends gives a path of one bag, and
    width + 1 <= k lets every path through.  For a new vertex w with
    neighbours N, a leaf bag N + {w} hung from a bag holding N works when
    |N| <= k, and w joins every bag when the width is below k.  The
    width + 1 cases are the bound tw(G + uv) <= tw(G) + 1 of Bodlaender, "A
    partial k-arboretum of graphs with bounded treewidth" (TCS 1998).
    """
    if td.width > k:
        return False
    if isinstance(m, VertexAdd):
        return td.width < k or (
            len(m.neighbors) <= k and any(m.neighbors <= bag for bag in td.bags)
        )
    if not isinstance(m, EdgeAdd):
        return False
    bags, tree = td.bags, td.tree.adjacency
    came_from = {i: i for i, bag in enumerate(bags) if m.u in bag}
    frontier = list(came_from)
    while frontier:
        reached = []
        for i in frontier:
            if m.v in bags[i]:
                if came_from[i] == i:
                    return True
                v_end, i = len(bags[i]), came_from[i]
                while came_from[i] != i:
                    if len(bags[i]) > k:
                        return False
                    i = came_from[i]
                return min(v_end, len(bags[i])) <= k
            for j in tree[i]:
                if j not in came_from:
                    came_from[j] = i
                    reached.append(j)
        frontier = reached
    return False
