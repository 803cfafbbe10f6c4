"""Hardness-construction gadgets: extremal graphs, negative
reoptimization instances, and the set-cover-to-connected-vertex-cover
grid gadget.

A negative instance glues an extremal block onto an arbitrary graph and
dismantles the block with the local modification, so the modified
instance is a member exactly when the carrier graph is.  The grid gadget
realizes set cover (parameterized by universe size) inside connected
vertex cover so that one added edge shifts the optimum by one exactly
when a small set cover exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .errors import (
    OracleTooSlow,
    PreconditionViolated,
    UnsupportedCombination,
    UnsupportedProblem,
)
from .graphs import (
    Digraph,
    EdgeAdd,
    EdgeDel,
    Graph,
    LocalModification,
    VertexAdd,
    VertexDel,
    apply_modification,
    complete_graph,
    disjoint_union,
    normalize_edge,
    path_graph,
)
from .instances import ReoptInstance
from .oracles import membership
from .problems import PROBLEMS, Direction, ProblemKind
from .setcover import SetCoverInstance

__all__ = [
    "SetCoverCvcGadget",
    "build_extremal",
    "is_extremal",
    "build_negative_reopt_instance",
    "build_clique_reopt_instance",
    "build_setcover_cvc",
    "s2_from_cover",
]


@dataclass(frozen=True)
class _Block:
    """One kind's block at k and the witness of the instance it is glued into
    at offset s; a row without ``witness`` has no negative construction."""

    build: Callable[[int], Graph | Digraph]
    path: bool = False
    extremal: bool = True
    witness: Callable[[Graph, int], object] | None = None


_BLOCKS: dict[ProblemKind, _Block] = {
    ProblemKind.IVST: _Block(
        build=lambda k: path_graph(k + 2), path=True,
        witness=lambda b, s: frozenset((u + s, v + s) for u, v in b.edges),
    ),
    ProblemKind.LONGEST_PATH: _Block(  # the path of length k, glued but not extremal
        build=lambda k: path_graph(k + 1), path=True, extremal=False,
        witness=lambda b, s: tuple(range(s, s + b.n)),
    ),
    ProblemKind.CLIQUE: _Block(
        build=complete_graph, witness=lambda b, s: frozenset(range(s, s + b.n))
    ),
    # AND-compositional: the glued instance is a no-instance, so its witness is None
    ProblemKind.TREEWIDTH: _Block(
        build=lambda k: complete_graph(k + 2), witness=lambda b, s: None
    ),
    ProblemKind.LEAF_OUT_TREE: _Block(
        build=lambda k: Digraph.from_arcs(k + 1, [(0, i) for i in range(1, k + 1)])
    ),
}


def build_extremal(problem: ProblemKind, k: int) -> Graph | Digraph:
    """The canonical extremal block for a problem at parameter k.

    Internal-vertex subtree: the path on k + 2 vertices (k internal).
    Clique: the complete graph on k vertices.  Treewidth: K_{k+2}, whose
    width k + 1 drops to k on any single deletion.  Leaf out tree: the
    out-star with k leaves.
    """
    if k < 1:
        raise UnsupportedProblem("extremal blocks need k >= 1")
    row = _BLOCKS.get(problem)
    if row is None or not row.extremal:
        raise UnsupportedProblem(f"no extremal construction for {problem}")
    return row.build(k)


def _extremal_member(problem: ProblemKind, g: Graph | Digraph, k: int) -> bool:
    # A minimization block is extremal with respect to the complement
    # problem (treewidth exceeding k); a maximization block uses membership.
    return membership(problem, g, k) != (PROBLEMS[problem].direction is Direction.MIN)


def _single_deletions(g: Graph | Digraph) -> list[Graph | Digraph]:
    out: list[Graph | Digraph] = []
    if isinstance(g, Graph):
        for e in g.sorted_edges():
            out.append(apply_modification(g, EdgeDel(*e)))
        for v in g.vertices:
            out.append(apply_modification(g, VertexDel(v)))
        return out
    for arc in sorted(g.arcs):
        out.append(Digraph(g.n, g.arcs - {arc}))
    for v in range(g.n):
        remap = {w: (w if w < v else w - 1) for w in range(g.n) if w != v}
        arcs = frozenset(
            (remap[a], remap[b]) for a, b in g.arcs if v not in (a, b)
        )
        out.append(Digraph(g.n - 1, arcs))
    return out


def is_extremal(
    g: Graph | Digraph,
    problem: ProblemKind,
    k: int,
    mode: str = "minimal-yes",
) -> bool:
    """Whether the block is a minimal yes-instance (every single deletion
    leaves the language) or a maximal one (every single edge addition
    leaves it).  For minimization problems (treewidth, vertex cover,
    connected vertex cover) membership is complemented, as for critical graphs."""
    size = g.n
    if size > PROBLEMS[problem].size_guard + 2:
        raise OracleTooSlow(f"extremality check needs oracle calls at size {size}")
    if not _extremal_member(problem, g, k):
        return False
    if mode == "minimal-yes":
        return all(
            not _extremal_member(problem, h, k) for h in _single_deletions(g)
        )
    if mode == "maximal-yes":
        if isinstance(g, Digraph):
            raise UnsupportedCombination("maximal mode is defined for graphs only")
        additions = [
            apply_modification(g, EdgeAdd(u, v))
            for u, v in combinations(range(g.n), 2)
            if not g.has_edge(u, v)
        ]
        return all(not _extremal_member(problem, h, k) for h in additions)
    raise UnsupportedCombination(f"unknown extremality mode {mode!r}")


# --- negative reoptimization instances (deletions on glued blocks) -----------


def build_negative_reopt_instance(
    problem: ProblemKind, g: Graph, k: int, mode: str = "edge"
) -> ReoptInstance:
    """Glue the extremal block onto g and dismantle it with one deletion.

    Longest path glues the path with k edges (the witness itself); the
    OR-compositional comonotone problems glue their minimal yes-blocks;
    treewidth glues K_{k+2} with no witness.  The modified instance is a
    member iff (g, k) is, which is what makes these constructions
    hardness-preserving.  A path block loses its middle edge or its
    vertex 1 (its lowest-index internal vertex from k = 2 on, an end of
    its one edge at k = 1), any other block its smallest edge or its first
    vertex.
    """
    if k < 0:
        raise PreconditionViolated("k must be a natural number")
    row = _BLOCKS.get(problem)
    if row is None or row.witness is None:
        raise UnsupportedCombination(f"no negative construction for {problem}")
    block = build_extremal(problem, k) if row.extremal else row.build(k)
    if mode == "edge":
        if not block.edges:
            raise UnsupportedCombination(
                f"the {problem.value} block at this parameter has no edge to delete"
            )
        mid = (block.n - 1) // 2
        u, v = (mid, mid + 1) if row.path else min(block.edges)
        modification: LocalModification = EdgeDel(g.n + u, g.n + v)
    elif mode == "vertex":
        if row.path and block.n < 2:
            raise UnsupportedCombination(
                f"the {problem.value} block at this parameter has no internal "
                "vertex to delete"
            )
        modification = VertexDel(g.n + 1 if row.path else g.n)
    else:
        raise UnsupportedCombination(f"unknown deletion mode {mode!r}")
    witness = row.witness(block, g.n)
    return ReoptInstance(problem, disjoint_union(g, block), k, witness, modification, k)


def build_clique_reopt_instance(
    g: Graph, k: int, mode: str = "edge"
) -> ReoptInstance:
    """Clique reoptimization instances for the addition modifications.

    Edge mode: K_{k+1} glued to g extended by two universal vertices that
    miss one edge; adding that edge asks for a clique of size k + 2, which
    exists iff g has one of size k.  Vertex mode: K_k glued to g; the new
    vertex adjacent to all of g raises the target to k + 1.
    """
    if k < 0:
        raise PreconditionViolated("k must be a natural number")
    if mode == "edge":
        n = g.n
        extended = Graph(
            n + 2,
            g.edges
            | frozenset(normalize_edge(i, n) for i in range(n))
            | frozenset(normalize_edge(i, n + 1) for i in range(n)),
        )
        block = complete_graph(k + 1)
        glued = disjoint_union(block, extended)
        v1, v2 = block.n + n, block.n + n + 1
        witness = frozenset(range(k + 1))
        return ReoptInstance(
            ProblemKind.CLIQUE, glued, k + 1, witness, EdgeAdd(v1, v2), k + 2
        )
    if mode == "vertex":
        block = complete_graph(k)
        glued = disjoint_union(block, g)
        witness = frozenset(range(k))
        neighbors = frozenset(range(k, k + g.n))
        return ReoptInstance(
            ProblemKind.CLIQUE, glued, k, witness, VertexAdd(neighbors), k + 1
        )
    raise UnsupportedCombination(f"unknown clique reopt mode {mode!r}")


# --- set cover -> connected vertex cover gadget ------------------------------


@dataclass(frozen=True)
class SetCoverCvcGadget:
    """The grid gadget: rows 1..k+2 of universe columns 0..u with pendant
    leaves, family vertices, the extra-set vertex x, row collectors v_i,
    and the hubs f and y."""

    instance: SetCoverInstance
    graph: Graph
    grid: tuple[tuple[int, ...], ...]  # grid[i][j] -> vertex of u_{i+1,j}
    leaves: tuple[tuple[int, ...], ...]
    family_vertices: tuple[int, ...]  # f_1 .. f_t
    x: int
    row_vertices: tuple[int, ...]  # v_1 .. v_{k+2}
    f: int
    y: int
    reopt_edge: tuple[int, int]
    budget_c: int
    s1: frozenset[int]

    def reopt_instance(self) -> ReoptInstance:
        return ReoptInstance(
            ProblemKind.CONNECTED_VERTEX_COVER,
            self.graph,
            self.budget_c + 2,
            self.s1,
            EdgeAdd(*self.reopt_edge),
            self.budget_c + 1,
        )


def build_setcover_cvc(sc: SetCoverInstance) -> SetCoverCvcGadget:
    """Realize a set cover instance as a connected-vertex-cover gadget.

    Column 0 plays the extra universe element covered only by x; the edge
    (x, u_{k+2,0}) is withheld for the reoptimization step.  Vertex
    layout: grid row-major, then leaves, then f_1..f_t, x, v_1..v_{k+2},
    f, y.
    """
    k, u, t = sc.k, sc.universe_size, sc.t
    rows, cols = k + 2, u + 1
    grid_count = rows * cols

    def grid_at(i: int, j: int) -> int:  # i in 1..rows, j in 0..u
        return (i - 1) * cols + j

    def leaf_at(i: int, j: int) -> int:
        return grid_count + (i - 1) * cols + j

    family0 = 2 * grid_count
    x = family0 + t
    row0 = x + 1
    f = row0 + rows
    y = f + 1
    n = y + 1

    labels = [""] * n
    edges: list[tuple[int, int]] = []
    for i in range(1, rows + 1):
        for j in range(0, cols):
            labels[grid_at(i, j)] = f"u_{{{i},{j}}}"
            labels[leaf_at(i, j)] = f"u'_{{{i},{j}}}"
            edges.append((grid_at(i, j), leaf_at(i, j)))
            edges.append((grid_at(i, j), row0 + i - 1))
    for ell in range(1, t + 1):
        labels[family0 + ell - 1] = f"f_{ell}"
        for j in sorted(sc.family[ell - 1]):
            for i in range(1, rows + 1):
                edges.append((grid_at(i, j), family0 + ell - 1))
        edges.append((family0 + ell - 1, f))
    labels[x] = "x"
    for i in range(1, rows):  # connects rows 1..k+1 only
        edges.append((x, grid_at(i, 0)))
    edges.append((x, f))
    for i in range(1, rows + 1):
        labels[row0 + i - 1] = f"v_{i}"
        edges.append((row0 + i - 1, y))
    labels[f] = "f"
    labels[y] = "y"
    edges.append((f, y))

    graph = Graph.from_edges(n, edges, labels=labels)
    grid = tuple(
        tuple(grid_at(i, j) for j in range(cols)) for i in range(1, rows + 1)
    )
    leaves = tuple(
        tuple(leaf_at(i, j) for j in range(cols)) for i in range(1, rows + 1)
    )
    s1 = frozenset(
        [grid_at(i, j) for i in range(1, rows + 1) for j in range(cols)]
        + [f, y]
        + [row0 + i for i in range(rows)]
    )
    budget_c = (k + 2) * (u + 2)
    return SetCoverCvcGadget(
        instance=sc,
        graph=graph,
        grid=grid,
        leaves=leaves,
        family_vertices=tuple(range(family0, family0 + t)),
        x=x,
        row_vertices=tuple(range(row0, row0 + rows)),
        f=f,
        y=y,
        reopt_edge=(x, grid_at(rows, 0)),
        budget_c=budget_c,
        s1=s1,
    )


def s2_from_cover(gadget: SetCoverCvcGadget, cover: tuple[int, ...]) -> frozenset[int]:
    """The alternative solution built from a set cover: the grid, the
    chosen family vertices, x, and the connectors f, v_{k+2}, y.

    Size (k+2)(u+1) + |cover| + 1 + 3; equals the budget's c + 2 exactly
    when |cover| = k.
    """
    chosen = [gadget.family_vertices[i] for i in cover]
    last_row_collector = gadget.row_vertices[-1]
    members = (
        [v for row in gadget.grid for v in row]
        + chosen
        + [gadget.x, gadget.f, last_row_collector, gadget.y]
    )
    return frozenset(members)
