"""Crown decompositions, the cover/independent partition with its two
canonical crowns, and the crown lemma algorithm built on the second one.

A crown decomposition of ``G`` is a partition of the vertices into a
non-empty independent crown ``C``, a head ``H`` saturated by a matching
into ``C``, and a rest ``R`` with no edges into ``C``.  ``H`` may be
empty, in which case the crown is a set of isolated vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InternalInvariantBroken, PreconditionViolated
from .graphs import Graph
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
    # Only edges at the crown can break the next two clauses; the edge
    # scan below runs only when one does, to list them in edge order.
    adjacency, crown_or_rest, n = g.adjacency, c | r, g.n
    if not all(adjacency[x].isdisjoint(crown_or_rest) for x in c if 0 <= x < n):
        for u, v in g.edges:
            if u in c and v in c:
                violations.append(f"crown is not independent: edge {(u, v)}")
            if (u in c and v in r) or (u in r and v in c):
                violations.append(f"edge between crown and rest: {(u, v)}")

    edges = g.edges
    for u, v in cd.matching.pairs:  # normalized, as in every Matching
        if (u, v) not in edges:
            violations.append(f"matching pair {(u, v)} is not a graph edge")
        if not ((u in c or v in c) and (u in h or v in h)):
            violations.append(f"matching pair {(u, v)} does not join crown to head")
    if h.difference(cd.matching.partner_map()):
        violations.append("matching does not saturate the head")
    if cd.matching.size != len(h):
        violations.append(
            f"matching size {cd.matching.size} differs from head size {len(h)}"
        )
    return violations


@dataclass(frozen=True)
class ReoptPartition:
    """The matched/unmatched split of a cover ``A`` and independent ``B``.

    ``a1``/``b1`` are the matched pairs alternating-reachable from the
    unmatched part of ``B``; ``a2``/``b2`` the pairs reachable from the
    unmatched part of ``A``; ``a3``/``b3`` the rest.  For a maximum
    matching the reachable sets cannot intersect.
    """

    cover: frozenset[int]
    independent: frozenset[int]
    matching: Matching
    a_unmatched: frozenset[int]
    b_unmatched: frozenset[int]
    a1: frozenset[int]
    b1: frozenset[int]
    a2: frozenset[int]
    b2: frozenset[int]
    a3: frozenset[int]
    b3: frozenset[int]

    def crown_c1(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        crown = self.b_unmatched | self.b1 | self.b3
        head = self.a1 | self.a3
        rest = self.a_unmatched | self.a2 | self.b2
        return crown, head, rest

    def crown_c2(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        crown = self.b_unmatched | self.b1
        head = self.a1
        rest = self.a_unmatched | self.a2 | self.b2 | self.a3 | self.b3
        return crown, head, rest

    def saturating(self, head: frozenset[int]) -> Matching:
        """The matching pairs at the head's vertices."""
        partners = self.matching.partner_map()
        return Matching.of((a, partners[a]) for a in head if a in partners)


def _partition_from_matching(
    g: Graph, cover: frozenset[int], m: Matching
) -> ReoptPartition:
    b = frozenset(g.vertices) - cover
    matched = m.vertices()
    a_unmatched = cover - matched
    b_unmatched = b - matched
    a1, b1 = alternating_reachability(g, cover, b, m, "B")
    a2, b2 = alternating_reachability(g, cover, b, m, "A")
    if not all(reached <= matched for reached in (a1, a2, b1, b2)):
        raise InternalInvariantBroken(
            "alternating search reached an unmatched vertex; matching not maximum"
        )
    if not (a1.isdisjoint(a2) and b1.isdisjoint(b2)):
        raise InternalInvariantBroken(
            "reachable subsets intersect; matching not maximum"
        )
    a3 = cover.intersection(matched).difference(a1, a2)
    b3 = b.intersection(matched).difference(b1, b2)
    partners = m.partner_map()
    if {partners[a] for a in a1} != b1 or {partners[a] for a in a3} != b3:
        raise InternalInvariantBroken("matching does not pair the subsets")
    return ReoptPartition(
        cover, b, m, a_unmatched, b_unmatched, a1, b1, a2, b2, a3, b3
    )


@dataclass(frozen=True)
class CrownOrMatching:
    """Outcome of the crown lemma: exactly one field is set."""

    crown: CrownDecomposition | None = None
    matching: Matching | None = None


def crown_or_matching(g: Graph, k: int) -> CrownOrMatching:
    """Either a matching of size exactly ``k + 1`` or a valid crown
    decomposition, for a graph with no isolated vertices and at least
    ``3k + 1`` vertices.

    Greedily build a maximal matching; if it is small, its endpoints are a
    vertex cover and the remaining vertices an independent set, and the
    second canonical crown of their partition around a maximum matching
    is the crown.  A matching outcome is preferred whenever available.
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
    m2 = maximum_bipartite_matching(g, side_a, frozenset(g.vertices) - side_a)
    if m2.size >= k + 1:
        return CrownOrMatching(matching=Matching.of(sorted(m2.pairs)[: k + 1]))

    part = _partition_from_matching(g, side_a, m2)
    crown, head, rest = part.crown_c2()
    cd = CrownDecomposition(crown, head, rest, part.saturating(head))
    violations = validate_crown(g, cd)
    if violations:
        raise InternalInvariantBroken(f"constructed crown invalid: {violations}")
    return CrownOrMatching(crown=cd)
