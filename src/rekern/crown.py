"""Crown decompositions and the crown lemma algorithm.

A crown decomposition of ``G`` is a partition of the vertices into a
non-empty independent crown ``C``, a head ``H`` saturated by a matching
into ``C``, and a rest ``R`` with no edges into ``C``.  ``H`` may be
empty, in which case the crown is a set of isolated vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InternalInvariantBroken, PreconditionViolated
from .graphs import Graph, normalize_edge
from .matching import (
    Matching,
    alternating_reachability,
    greedy_matching,
    maximum_bipartite_matching,
)


@dataclass(frozen=True)
class CrownDecomposition:
    crown: frozenset[int]
    head: frozenset[int]
    rest: frozenset[int]
    matching: Matching

    @classmethod
    def of(
        cls,
        crown: Iterable[int],
        head: Iterable[int],
        rest: Iterable[int],
        matching: Matching,
    ) -> "CrownDecomposition":
        return cls(frozenset(crown), frozenset(head), frozenset(rest), matching)


def validate_crown(g: Graph, cd: CrownDecomposition) -> list[str]:
    """All violated crown clauses; an empty list means the crown is valid."""
    violations: list[str] = []
    c, h, r = cd.crown, cd.head, cd.rest

    if not c:
        violations.append("crown is empty")
    if c & h or c & r or h & r:
        violations.append("crown, head, and rest are not disjoint")
    if (c | h | r) != set(g.vertices):
        violations.append("crown, head, and rest do not cover every vertex")
    for u, v in g.edges:
        if u in c and v in c:
            violations.append(f"crown is not independent: edge {(u, v)}")
        if (u in c and v in r) or (u in r and v in c):
            violations.append(f"edge between crown and rest: {(u, v)}")

    matched_heads: set[int] = set()
    for u, v in cd.matching.pairs:
        if normalize_edge(u, v) not in g.edges:
            violations.append(f"matching pair {(u, v)} is not a graph edge")
        ends = {u, v}
        if not (ends & c and ends & h):
            violations.append(f"matching pair {(u, v)} does not join crown to head")
        matched_heads |= ends & h
    if matched_heads != set(h):
        violations.append("matching does not saturate the head")
    if cd.matching.size != len(h):
        violations.append(
            f"matching size {cd.matching.size} differs from head size {len(h)}"
        )
    return violations


@dataclass(frozen=True)
class CrownOrMatching:
    """Outcome of the crown lemma: exactly one field is set."""

    crown: CrownDecomposition | None = None
    matching: Matching | None = None


def crown_or_matching(g: Graph, k: int) -> CrownOrMatching:
    """Either a matching of size exactly ``k + 1`` or a valid crown
    decomposition, for a graph with no isolated vertices and at least
    ``3k + 1`` vertices.

    Greedily build a maximal matching; if it is small, its endpoints and
    the remaining independent set form the two sides of a bipartite
    matching whose unmatched side, closed under alternating paths, yields
    the crown.  A matching outcome is preferred whenever available.
    """
    if k < 0:
        raise PreconditionViolated("k must be a natural number")
    isolated = g.isolated_vertices()
    if isolated:
        raise PreconditionViolated(f"graph has isolated vertices {isolated[:5]}")
    if g.n < 3 * k + 1:
        raise PreconditionViolated(f"need at least {3 * k + 1} vertices, got {g.n}")

    m1 = greedy_matching(dict(enumerate(g.adjacency)))
    if m1.size >= k + 1:
        return CrownOrMatching(matching=Matching.of(sorted(m1.pairs)[: k + 1]))

    side_a = m1.vertices()
    side_i = frozenset(g.vertices) - side_a
    m2 = maximum_bipartite_matching(g, side_a, side_i)
    if m2.size >= k + 1:
        return CrownOrMatching(matching=Matching.of(sorted(m2.pairs)[: k + 1]))

    matched_i = m2.vertices() & side_i
    unmatched_i = side_i - matched_i
    if not unmatched_i:
        raise InternalInvariantBroken(
            "no unmatched independent vertex despite n >= 3k + 1"
        )
    reached_a, reached_i = alternating_reachability(g, side_a, side_i, m2, "B")
    if reached_a - m2.vertices():
        raise InternalInvariantBroken("alternating search reached an unmatched vertex")

    crown = unmatched_i | reached_i
    head = reached_a
    rest = frozenset(g.vertices) - crown - head
    saturating = Matching(
        frozenset(p for p in m2.pairs if (p[0] in head) or (p[1] in head))
    )
    cd = CrownDecomposition(crown, head, rest, saturating)
    violations = validate_crown(g, cd)
    if violations:
        raise InternalInvariantBroken(f"constructed crown invalid: {violations}")
    return CrownOrMatching(crown=cd)
