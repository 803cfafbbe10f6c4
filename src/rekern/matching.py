"""Bipartite matchings, alternating reachability, and rematching.

All routines are deterministic: vertices are scanned in ascending index
order and the first augmenting path found is applied.  Edges lying inside
``side_a`` are permitted in the host graph (a vertex cover side may have
internal edges) and are ignored by the matching machinery; edges inside
``side_b`` are likewise ignored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import SidesOverlap, TargetUnmatched
from .graphs import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges."""

    pairs: frozenset[Edge]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for u, v in self.pairs:
            if u == v or not (u < v):
                raise ValueError(f"pair {(u, v)} is not a normalized edge")
            if u in seen or v in seen:
                raise ValueError(f"pair {(u, v)} shares a vertex with another pair")
            seen.add(u)
            seen.add(v)

    @classmethod
    def of(cls, pairs: Iterable[Edge]) -> "Matching":
        return cls(frozenset(normalize_edge(u, v) for u, v in pairs))

    @property
    def size(self) -> int:
        return len(self.pairs)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for pair in self.pairs for v in pair)

    def partner_map(self) -> dict[int, int]:
        partners: dict[int, int] = {}
        for u, v in self.pairs:
            partners[u] = v
            partners[v] = u
        return partners


def greedy_matching(adjacency: Mapping[int, Iterable[int]]) -> Matching:
    """Maximal matching: each free vertex, in ascending order, takes its
    smallest free neighbour.

    This picks the same pairs as scanning the edges in lexicographic order.
    """
    used: set[int] = set()
    pairs: list[Edge] = []
    for v in sorted(adjacency):
        if v in used:
            continue
        for w in sorted(adjacency[v]):
            if w not in used:
                used.update((v, w))
                pairs.append(normalize_edge(v, w))
                break
    return Matching(frozenset(pairs))


def _check_sides(g: Graph, side_a: frozenset[int], side_b: frozenset[int]) -> None:
    if side_a & side_b:
        raise SidesOverlap(f"sides share vertices {sorted(side_a & side_b)}")
    for v in side_a | side_b:
        g._check_vertex(v)


def _cross_adjacency(
    g: Graph, side_a: frozenset[int], side_b: frozenset[int]
) -> dict[int, list[int]]:
    """Neighbors in side_b of each side_a vertex, ascending."""
    return {a: sorted(g.adjacency[a] & side_b) for a in sorted(side_a)}


def maximum_bipartite_matching(
    g: Graph, side_a: Iterable[int], side_b: Iterable[int]
) -> Matching:
    """Maximum matching of the bipartite subgraph between the two sides.

    Augmenting-path search (Kuhn's algorithm), deterministic for a fixed
    input.  Only edges with one endpoint per side take part.
    """
    a_set, b_set = frozenset(side_a), frozenset(side_b)
    _check_sides(g, a_set, b_set)
    adj = _cross_adjacency(g, a_set, b_set)
    match_of_b: dict[int, int] = {}

    def try_augment(a: int, visited_b: set[int]) -> bool:
        for b in adj[a]:
            if b in visited_b:
                continue
            visited_b.add(b)
            if b not in match_of_b or try_augment(match_of_b[b], visited_b):
                match_of_b[b] = a
                return True
        return False

    for a in sorted(a_set):
        try_augment(a, set())
    return Matching.of((a, b) for b, a in match_of_b.items())


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
    vertices themselves are not reported.
    """
    a_set, b_set = frozenset(side_a), frozenset(side_b)
    _check_sides(g, a_set, b_set)
    partners = m.partner_map()
    if start_side == "B":
        near, far = b_set, a_set
    elif start_side == "A":
        near, far = a_set, b_set
    else:
        raise ValueError("start_side must be 'A' or 'B'")

    frontier = deque(sorted(v for v in near if v not in partners))
    seen_far: set[int] = set()
    seen_near: set[int] = set()
    started = set(frontier)
    while frontier:
        x = frontier.popleft()
        for y in sorted(g.adjacency[x] & far):
            if y in seen_far:
                continue
            seen_far.add(y)
            partner = partners.get(y)
            if partner is not None and partner in near and partner not in seen_near:
                if partner not in started:
                    seen_near.add(partner)
                    frontier.append(partner)
    reached_a = frozenset(seen_far if start_side == "B" else seen_near)
    reached_b = frozenset(seen_near if start_side == "B" else seen_far)
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
    partners = m.partner_map()
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
