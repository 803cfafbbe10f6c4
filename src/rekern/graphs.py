"""Undirected and directed graph value types plus local modifications.

Vertices are dense 0-based integers.  Graphs are immutable: every
operation returns a fresh graph, so an original and a locally modified
instance can be held side by side.

A graph builds its adjacency lazily, from its edges, on first use, so
only a reader of the adjacency pays for it.  The one exception is an
edge addition to a parent that already holds an adjacency:
``apply_modification`` derives the new graph's from the parent's,
sharing every neighbour set except the two endpoints'.  From a parent
without one, the new graph builds its own when first read.  Every other
operation (edge or vertex deletion, vertex addition,
``induced_subgraph``, ``disjoint_union``) re-indexes or filters the
parent's edges and leaves the adjacency of its result to be built when
needed; an induced subgraph on every vertex shares the parent's edge
set instead.  ``components`` reads the edges alone, by union-find, and
builds no adjacency either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Sequence

from .errors import ModificationInvalid, VertexOutOfRange

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Order an undirected edge as (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    ``labels``, when present, assigns one string per vertex (gadget roles
    such as ``u_{1,0}``) and survives vertex deletion re-indexing.
    """

    n: int
    edges: frozenset[Edge]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < n):
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (u < v):
                    raise ValueError(f"edge {(u, v)} is not normalized")
                raise ValueError(f"edge {(u, v)} out of range for n={n}")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must cover every vertex exactly once")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Sequence[int]] = (),
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        normalized = frozenset(normalize_edge(u, v) for u, v in edges)
        return cls(n, normalized, tuple(labels) if labels is not None else None)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbour set of each vertex, built from ``edges`` on first use
        (or derived from the parent graph by an edge addition)."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(map(frozenset, adj))

    @property
    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self.adjacency[v]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adjacency[v]]

    def label_of(self, v: int) -> str | None:
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else None

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexOutOfRange(f"vertex {v} not in range(0, {self.n})")

    def __repr__(self) -> str:  # keeps pytest failure output readable
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph; arcs are ordered pairs without self-loops."""

    n: int
    arcs: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc {(u, v)} out of range for n={self.n}")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[Sequence[int]] = ()) -> "Digraph":
        return cls(n, frozenset((u, v) for u, v in arcs))


# --- local modifications -------------------------------------------------


@dataclass(frozen=True)
class EdgeAdd:
    u: int
    v: int


@dataclass(frozen=True)
class EdgeDel:
    u: int
    v: int


@dataclass(frozen=True)
class VertexDel:
    v: int


@dataclass(frozen=True)
class VertexAdd:
    neighbors: frozenset[int]


LocalModification = EdgeAdd | EdgeDel | VertexDel | VertexAdd


def check_modification(g: Graph, m: LocalModification) -> None:
    """Raise ModificationInvalid unless ``m`` is applicable to ``g``."""
    if isinstance(m, EdgeAdd):
        if m.u == m.v:
            raise ModificationInvalid(f"edge addition with equal endpoints {m.u}")
        if not (0 <= m.u < g.n and 0 <= m.v < g.n):
            raise ModificationInvalid(f"edge addition {m} out of range")
        if g.has_edge(m.u, m.v):
            raise ModificationInvalid(f"edge {(m.u, m.v)} already present")
    elif isinstance(m, EdgeDel):
        if not (0 <= m.u < g.n and 0 <= m.v < g.n) or not g.has_edge(m.u, m.v):
            raise ModificationInvalid(f"edge {(m.u, m.v)} not present")
    elif isinstance(m, VertexDel):
        if not (0 <= m.v < g.n):
            raise ModificationInvalid(f"vertex {m.v} not in range(0, {g.n})")
    elif isinstance(m, VertexAdd):
        if any(not (0 <= w < g.n) for w in m.neighbors):
            raise ModificationInvalid("vertex addition neighbor out of range")
    else:
        raise ModificationInvalid(f"unknown modification {m!r}")


def _unchecked(n: int, edges: frozenset[Edge], labels: tuple[str, ...] | None) -> Graph:
    """A graph made from a checked one by a checked change: not checked again."""
    g = object.__new__(Graph)
    # Set like the frozen dataclass's own ``__init__``: writing through
    # ``__dict__`` would give every copy an instance dict.
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "labels", labels)
    return g


def apply_modification(g: Graph, m: LocalModification) -> Graph:
    """Return the modified graph; ``g`` itself is untouched.

    Vertex addition appends index ``g.n``; vertex deletion re-indexes the
    remaining vertices densely while preserving their labels.  An edge
    addition derives the new graph's adjacency from ``g``'s when ``g``
    already holds one; otherwise, as after every other modification, the
    new graph builds its own from its edges when first read.
    """
    check_modification(g, m)
    if isinstance(m, EdgeAdd):
        u, v = normalize_edge(m.u, m.v)
        added = _unchecked(g.n, g.edges | {(u, v)}, g.labels)
        if "adjacency" not in g.__dict__:  # not yet built: leave it lazy
            return added
        adjacency = list(g.adjacency)
        adjacency[u] |= {v}
        adjacency[v] |= {u}
        # ``adjacency`` is a cached property: storing the derived value
        # where it caches is what keeps it from being rebuilt.
        added.__dict__["adjacency"] = tuple(adjacency)
        return added
    if isinstance(m, EdgeDel):
        return Graph(g.n, g.edges - {normalize_edge(m.u, m.v)}, g.labels)
    if isinstance(m, VertexAdd):
        new = g.n
        added = {normalize_edge(w, new) for w in m.neighbors}
        labels = g.labels + (f"new_{new}",) if g.labels is not None else None
        return Graph(g.n + 1, g.edges | added, labels)
    # VertexDel: drop v, shift indices above it down by one.
    v = m.v
    remap = {w: (w if w < v else w - 1) for w in range(g.n) if w != v}
    edges = frozenset(
        normalize_edge(remap[a], remap[b]) for a, b in g.edges if v not in (a, b)
    )
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[w] for w in range(g.n) if w != v)
    return Graph(g.n - 1, edges, labels)


# --- components and unions ------------------------------------------------


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex.

    Union-find over the edges, with path halving, links the larger root
    under the smaller (Tarjan 1975), so each root is its component's
    smallest vertex and every parent is below its child.  No adjacency is
    built.
    """
    parent = list(range(g.n))
    for u, v in g.edges:
        # Path halving: point each vertex passed at its grandparent.
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    # Roots come up in ascending order, so the dict keeps that order.
    by_root: dict[int, list[int]] = {}
    for v in range(g.n):
        # ``parent[v]`` is below ``v``, so it was visited first and its
        # own parent is now the root.
        root = parent[v] = parent[parent[v]]
        if root == v:
            by_root[v] = [v]
        else:
            by_root[root].append(v)
    return list(by_root.values())


def reach_within(g: Graph, start: int, within: Container[int]) -> set[int]:
    """The component of ``start`` in the subgraph induced by ``within``
    (which holds ``start``), found without building that subgraph."""
    reached = {start}
    stack = [start]
    while stack:
        for y in g.adjacency[stack.pop()]:
            if y in within and y not in reached:
                reached.add(y)
                stack.append(y)
    return reached


def adjacency_masks(g: Graph) -> list[int]:
    """Each vertex's neighbourhood as a bitmask, bit u for neighbour u."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def mask_reach(masks: list[int], start: int, within: int) -> int:
    """The vertices reachable from those of ``start`` inside ``within``
    (which holds ``start``), all as bitmasks over ``masks``' vertices."""
    reach = frontier = start
    while frontier:
        low = frontier & -frontier
        new = masks[low.bit_length() - 1] & within & ~reach
        reach |= new
        frontier = (frontier ^ low) | new
    return reach


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the index map back to ``g``.

    The returned tuple maps each new index to its original vertex; it is a
    bijection onto the chosen vertex set.  Choosing every vertex gives a
    bare copy of ``g``, with no adjacency, that shares its edge set.
    """
    index_map = tuple(sorted(set(vertices)))
    if index_map and not (0 <= index_map[0] and index_map[-1] < g.n):
        for v in index_map:
            g._check_vertex(v)
    if len(index_map) == g.n:
        return _unchecked(g.n, g.edges, g.labels), index_map
    back = [-1] * g.n  # the new index of each chosen vertex
    for new, old in enumerate(index_map):
        back[old] = new
    # Re-indexing keeps the vertex order, so every edge stays normalized.
    edges = frozenset(
        (back[u], back[v]) for u, v in g.edges if back[u] >= 0 and back[v] >= 0
    )
    labels = None if g.labels is None else tuple(g.labels[old] for old in index_map)
    return _unchecked(len(index_map), edges, labels), index_map


def component_of(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """The component holding a vertex, found by one walk from it, as an
    induced subgraph with the index map back to ``g``."""
    g._check_vertex(v)
    return induced_subgraph(g, reach_within(g, v, g.vertices))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; ``g2``'s vertices are shifted up by ``g1.n``."""
    shift = g1.n
    edges = g1.edges | frozenset(
        normalize_edge(u + shift, v + shift) for u, v in g2.edges
    )
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = g1.labels + g2.labels
    elif g1.labels is not None:
        labels = g1.labels + tuple(f"b{i}" for i in range(g2.n))
    elif g2.labels is not None:
        labels = tuple(f"a{i}" for i in range(g1.n)) + g2.labels
    return Graph(g1.n + g2.n, edges, labels)


# --- small builders used throughout tests and gadgets ---------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
