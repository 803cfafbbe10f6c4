"""Bipartite matchings, alternating reachability, and rematching.

All routines are deterministic and iterative, so their stack depth does
not grow with the input.  ``maximum_bipartite_matching`` is Hopcroft and
Karp's algorithm (SIAM J. Comput. 1973): a greedy start, one pass that
drops the free side-A vertices without an augmenting path, then phases
of shortest vertex-disjoint augmenting paths.  Side A is scanned in
descending index order and neighbours in ascending order.  Edges lying
inside ``side_a`` are permitted in the host graph (a vertex cover side
may have internal edges) and are ignored by the matching machinery;
edges inside ``side_b`` are likewise ignored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping

from .errors import SidesOverlap, TargetUnmatched
from .graphs import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges; the constructor checks them
    and builds the partner lookup in one pass."""

    pairs: frozenset[Edge]
    _partners: dict[int, int] = field(init=False, repr=False, compare=False)
    _partner_view: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        partners: dict[int, int] = {}
        for u, v in self.pairs:
            if not u < v:
                raise ValueError(f"pair {(u, v)} is not a normalized edge")
            if u in partners or v in partners:
                raise ValueError(f"pair {(u, v)} shares a vertex with another pair")
            partners[u] = v
            partners[v] = u
        object.__setattr__(self, "_partners", partners)
        object.__setattr__(self, "_partner_view", MappingProxyType(partners))

    @classmethod
    def of(cls, pairs: Iterable[Edge]) -> "Matching":
        return cls(frozenset(normalize_edge(u, v) for u, v in pairs))

    @property
    def size(self) -> int:
        return len(self.pairs)

    def vertices(self) -> frozenset[int]:
        return frozenset(self._partners)

    def partner_map(self) -> Mapping[int, int]:
        """Each matched vertex's partner, as one read-only view per matching."""
        return self._partner_view


def greedy_matching(adjacency: Mapping[int, AbstractSet[int]]) -> Matching:
    """Maximal matching: each free vertex, in ascending order, takes its
    smallest free neighbour.

    This picks the same pairs as scanning the edges in lexicographic order.
    """
    used: set[int] = set()
    pairs: list[Edge] = []
    for v in sorted(adjacency):
        if v in used:
            continue
        free = adjacency[v] - used
        if free:
            w = min(free)
            used.update((v, w))
            pairs.append(normalize_edge(v, w))
    return Matching(frozenset(pairs))


def _check_sides(g: Graph, side_a: frozenset[int], side_b: frozenset[int]) -> None:
    if not side_a.isdisjoint(side_b):
        raise SidesOverlap(f"sides share vertices {sorted(side_a & side_b)}")
    for side in (side_a, side_b):
        if side:
            g._check_vertex(min(side))
            g._check_vertex(max(side))


_A, _B = 1, 2  # side mask values; 0 marks a vertex on neither side
_FREE = -1  # ``mate`` of an unmatched vertex
_OFF = -1  # ``dist`` of a vertex outside the current phase's layered graph


def _live_roots(
    g: Graph, side_a: frozenset[int], side_b: frozenset[int], mate: list[int]
) -> list[int]:
    """The free side-A vertices that end an augmenting path, descending.

    One backward alternating search from the free side-B vertices: from a
    B-vertex to its A-neighbours, from an A-vertex to its mate.  A free
    A-vertex it misses has no augmenting path now, and never gets one,
    because augmenting never unmatches a vertex.
    """
    free_a = [a for a in sorted(side_a, reverse=True) if mate[a] == _FREE]
    if not free_a:
        return free_a
    closed = [True] * g.n  # False for a side-A vertex not yet reached
    for a in side_a:
        closed[a] = False
    queue = [b for b in side_b if mate[b] == _FREE]
    for b in queue:
        for a in g.adjacency[b]:
            if not closed[a]:
                closed[a] = True
                if mate[a] != _FREE:
                    queue.append(mate[a])
    return [a for a in free_a if closed[a]]


def _layer(
    roots: list[int], adj: list[list[int]], mate: list[int], dist: list[int]
) -> tuple[int | None, list[int]]:
    """Breadth-first layers of side A from the free roots, up to the first
    layer with a free B-neighbour.

    Sets ``dist`` on every layered vertex and returns that layer's index
    (``None`` when no free B-vertex is reachable, so the matching is
    maximum) with the layered vertices.
    """
    for r in roots:
        dist[r] = 0
    layered = list(roots)
    frontier = roots
    limit = 0
    while frontier:
        following = []
        found = False
        for a in frontier:
            for b in adj[a]:
                nxt = mate[b]
                if nxt == _FREE:
                    found = True
                elif dist[nxt] == _OFF:
                    dist[nxt] = limit + 1
                    following.append(nxt)
        if found:
            for a in following:
                dist[a] = _OFF
            return limit, layered
        layered += following
        frontier = following
        limit += 1
    return None, layered


def _augment_from(
    root: int,
    limit: int,
    adj: list[list[int]],
    mate: list[int],
    dist: list[int],
    pos: list[int],
) -> None:
    """Depth-first search for one augmenting path from ``root`` through
    consecutive layers; flip it if it ends at a free B-vertex next to the
    last layer.

    ``pos`` keeps each vertex's place in its neighbour list, and a vertex
    that dead-ends, or lies on the flipped path, leaves the layered graph
    (``dist`` set to ``_OFF``) for the rest of the phase.
    """
    stack = [root]
    while stack:
        a = stack[-1]
        d, nbrs, i = dist[a], adj[a], pos[a]
        while i < len(nbrs):
            b = nbrs[i]
            i += 1
            nxt = mate[b]
            if nxt == _FREE:
                if d == limit:
                    for on_path in reversed(stack):
                        held = mate[on_path]
                        mate[on_path], mate[b] = b, on_path
                        dist[on_path] = _OFF
                        b = held
                    return
            elif dist[nxt] == d + 1:
                pos[a] = i
                stack.append(nxt)
                break
        else:
            pos[a] = i
            dist[a] = _OFF
            stack.pop()


def maximum_bipartite_matching(
    g: Graph, side_a: Iterable[int], side_b: Iterable[int]
) -> Matching:
    """Maximum matching of the bipartite subgraph between the two sides.

    Hopcroft-Karp, O(m sqrt(n)), deterministic for a fixed input.  Each
    side-A vertex, in descending order, first takes its smallest free
    neighbour; free A-vertices without an augmenting path are then
    dropped for good.  Each phase layers the graph by a breadth-first
    search from the remaining free A-vertices, up to the first layer that
    sees a free B-vertex, and runs an iterative depth-first search from
    each of them in descending order, trying neighbours in ascending
    order; a vertex that dead-ends leaves the layered graph until the
    next phase.  Only edges with one endpoint per side take part.
    """
    a_set, b_set = frozenset(side_a), frozenset(side_b)
    _check_sides(g, a_set, b_set)
    adjacency = g.adjacency
    adj: list[list[int]] = [[]] * g.n  # each A-vertex's side-B neighbours, ascending
    mate = [_FREE] * g.n
    for a in sorted(a_set, reverse=True):
        adj[a] = nbrs = sorted(adjacency[a] & b_set)
        for b in nbrs:
            if mate[b] == _FREE:
                mate[a], mate[b] = b, a
                break

    roots = _live_roots(g, a_set, b_set, mate)
    dist = [_OFF] * g.n
    pos = [0] * g.n
    while roots:
        limit, layered = _layer(roots, adj, mate, dist)
        if limit is None:
            break
        for root in roots:
            _augment_from(root, limit, adj, mate, dist, pos)
        for a in layered:
            dist[a] = _OFF
            pos[a] = 0
        roots = [r for r in roots if mate[r] == _FREE]
    return Matching(frozenset((v, w) for v, w in enumerate(mate) if v < w))


def alternating_reachability(
    g: Graph,
    side_a: Iterable[int],
    side_b: Iterable[int],
    m: Matching,
    start_side: str,
) -> tuple[frozenset[int], frozenset[int]]:
    """Closure of alternating paths from the unmatched vertices of one side.

    ``start_side`` is ``"B"`` (start at unmatched side-B vertices) or
    ``"A"``.  Paths leave the start side over non-matching edges and come
    back over matching edges, so for a maximum matching the reached
    vertices on the opposite side are all matched and the reached vertices
    on the start side are exactly their partners.  The starting unmatched
    vertices themselves are not reported.  The result is a closure, so the
    search visits vertices in no particular order.
    """
    a_set, b_set = frozenset(side_a), frozenset(side_b)
    _check_sides(g, a_set, b_set)
    if start_side == "B":
        near, near_side, far_side = b_set, _B, _A
    elif start_side == "A":
        near, near_side, far_side = a_set, _A, _B
    else:
        raise ValueError("start_side must be 'A' or 'B'")

    partners = m._partners
    side = bytearray(g.n)  # the side mask; a reached vertex leaves its side
    for a in a_set:
        side[a] = _A
    for b in b_set:
        side[b] = _B
    adjacency = g.adjacency
    # A partner is matched, so it is never one of the unmatched starts.
    frontier = list(near.difference(partners))
    reached_far: list[int] = []
    reached_near: list[int] = []
    while frontier:
        for y in adjacency[frontier.pop()]:
            if side[y] == far_side:
                side[y] = 0
                reached_far.append(y)
                partner = partners.get(y)
                if partner is not None and side[partner] == near_side:
                    side[partner] = 0
                    reached_near.append(partner)
                    frontier.append(partner)
    reached_a = frozenset(reached_far if start_side == "B" else reached_near)
    reached_b = frozenset(reached_near if start_side == "B" else reached_far)
    return reached_a, reached_b


def rematch_to_expose(
    g: Graph,
    side_a: Iterable[int],
    side_b: Iterable[int],
    m: Matching,
    target: int,
    forbidden: int | None = None,
) -> Matching | None:
    """Equal-size matching in which ``target`` (a matched side-B vertex)
    is unmatched, or ``None`` when no alternating escape path exists.

    One alternating path from the target's partner to an unmatched side-B
    vertex different from ``forbidden`` is flipped.
    """
    a_set, b_set = frozenset(side_a), frozenset(side_b)
    _check_sides(g, a_set, b_set)
    partners = m._partners
    if target not in partners or target not in b_set:
        raise TargetUnmatched(f"vertex {target} is not a matched side-B vertex")

    start = partners[target]
    # BFS over states "at side-A vertex a", moving a -> b (non-matching,
    # b != target) and then b -> partner(b) (matching).
    parent: dict[int, tuple[int, int] | None] = {start: None}
    queue = deque([start])
    end_pair: tuple[int, int] | None = None
    while queue and end_pair is None:
        a = queue.popleft()
        for b in sorted(g.adjacency[a] & b_set):
            if b == target or partners.get(b) == a:
                continue
            if b not in partners:
                if b == forbidden:
                    continue
                end_pair = (a, b)
                break
            nxt = partners[b]
            if nxt not in parent:
                parent[nxt] = (a, b)
                queue.append(nxt)
    if end_pair is None:
        return None

    pairs = set(m.pairs)
    a, b = end_pair
    pairs.add(normalize_edge(a, b))
    while True:
        # a just gained a new partner; drop its old matching edge.
        old_b = partners[a]
        pairs.discard(normalize_edge(a, old_b))
        step = parent[a]
        if step is None:
            break
        prev_a, via_b = step
        pairs.add(normalize_edge(prev_a, via_b))
        a = prev_a
    return Matching(frozenset(pairs))
