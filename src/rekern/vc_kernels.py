"""Vertex cover kernels: the classic 3k crown kernel and the 2k
reoptimization kernel for edge addition.

Both take their crowns from a ``crown.ReoptPartition``: the classic one
through the crown lemma, the reoptimization one from a known vertex cover
``A`` of the original graph, repairing one of the two canonical crowns
after the new edge lands inside the independent rest ``B``.

The reoptimization kernel runs on the input graph itself, with one
partner lookup per matching: an isolated vertex leaves the cover and so
falls into the crown.  The classic kernel strips isolated vertices.
Both return graphs without cached state: a kernel that keeps every
vertex is a bare copy sharing the input's edge set, so no result holds
an adjacency that only the kernelizer read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .crown import (
    CrownDecomposition,
    ReoptPartition,
    _partition_from_matching,
    crown_or_matching,
    validate_crown,
)
from .errors import (
    InternalInvariantBroken,
    InvalidCrown,
    ModificationMismatch,
    NotACover,
    WitnessNotACover,
)
from .graphs import (
    EdgeAdd,
    Graph,
    _unchecked,
    apply_modification,
    induced_subgraph,
    normalize_edge,
)
from .instances import KernelResult, ReoptInstance
from .matching import (
    Matching,
    alternating_reachability,
    maximum_bipartite_matching,
    rematch_to_expose,
)
from .oracles import is_vertex_cover
from .problems import ProblemKind


def build_reopt_partition(g: Graph, cover_a: frozenset[int] | set[int]) -> ReoptPartition:
    """Partition ``A`` and ``B`` around a maximum matching between them."""
    cover = frozenset(cover_a)
    if cover and not (0 <= min(cover) and max(cover) < g.n):
        for v in cover:
            g._check_vertex(v)
    if not is_vertex_cover(g, cover):
        raise NotACover("the given set does not cover every edge")
    b = frozenset(g.vertices) - cover
    m = maximum_bipartite_matching(g, cover, b)
    return _partition_from_matching(g, cover, m)


# --- classic crown kernel ---------------------------------------------------


def crown_reduce_vc(g: Graph, k: int, cd: CrownDecomposition) -> tuple[Graph, int]:
    """Remove crown and head, pay |H| from the budget.

    Any cover needs |H| vertices for the saturating matching, and taking
    all of H covers every edge into the crown, so (G, k) and
    (G - (H u C), k - |H|) are equivalent.  A negative parameter means the
    caller must decide "no".
    """
    violations = validate_crown(g, cd)
    if violations:
        raise InvalidCrown("; ".join(violations))
    reduced, _ = induced_subgraph(g, cd.rest)
    return reduced, k - len(cd.head)


def vc_kernelize_3k(g: Graph, k: int) -> KernelResult:
    """Crown-lemma kernel: decide, or reduce to at most 3k vertices."""
    cur, budget = g, k
    while True:
        # Drop isolated vertices: keep the edges' endpoints, so a residual
        # graph is stripped without building its adjacency.
        keep = set(chain.from_iterable(cur.edges))
        if len(keep) < cur.n:
            cur, _ = induced_subgraph(cur, keep)
        if budget < 0:
            return KernelResult.decided(False)
        if cur.n == 0:
            return KernelResult.decided(True)
        if cur.n <= 3 * budget:
            # A bare copy: ``cur`` may be the caller's graph, holding an
            # adjacency that no reader of the kernel needs.
            kernel = _unchecked(cur.n, cur.edges, cur.labels)
            return KernelResult.reduced(kernel, budget, size_bound_claim=3 * budget)
        outcome = crown_or_matching(cur, budget)
        if outcome.matching is not None:
            # k + 1 disjoint edges need k + 1 distinct cover vertices.
            return KernelResult.decided(False)
        assert outcome.crown is not None
        cur, budget = crown_reduce_vc(cur, budget, outcome.crown)


# --- reoptimization 2k kernel ------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReoptVcReport:
    """Kernelization outcome plus the dispatch steps taken, in order."""

    result: KernelResult
    trace: tuple[str, ...]

    @property
    def branch(self) -> str:
        """The dispatch branch: the first step, with ``case5`` for every
        ``case5-*`` step."""
        first = self.trace[0]
        return "case5" if first.startswith("case5-") else first


# The old cover, small enough, answers yes: one report serves every such call.
_TRIVIAL_YES = ReoptVcReport(KernelResult.decided(True), ("trivial",))


def _finish(
    modified: Graph,
    crown: frozenset[int],
    head: frozenset[int],
    rest: frozenset[int],
    saturating: Matching,
    budget: int,
    claim: int,
    trace: list[str],
) -> ReoptVcReport:
    if not crown:
        if head:
            raise InternalInvariantBroken("empty crown with non-empty head")
        # A bare copy, so the kernel holds no adjacency: the one that
        # ``modified`` carries may share its neighbour sets with the
        # graph it was derived from.
        residual = _unchecked(modified.n, modified.edges, modified.labels)
        parameter = budget
    else:
        cd = CrownDecomposition(crown, head, rest, saturating)
        try:
            residual, parameter = crown_reduce_vc(modified, budget, cd)
        except InvalidCrown as exc:
            raise InternalInvariantBroken(
                f"constructed crown invalid on the modified graph: {exc}"
            ) from exc
    if parameter < 0:
        result = KernelResult.decided(False)
    elif residual.n == 0:
        result = KernelResult.decided(True)
    else:
        result = KernelResult.reduced(residual, parameter, size_bound_claim=claim)
    return ReoptVcReport(result, tuple(trace))


def _reduce_with_cover(
    h: Graph, cover: frozenset[int], budget: int, claim: int, trace: list[str]
) -> ReoptVcReport:
    """Standard crown reduction of an unmodified graph with a known cover."""
    if budget < 0:
        return ReoptVcReport(KernelResult.decided(False), tuple(trace))
    if not h.edges:
        return ReoptVcReport(KernelResult.decided(True), tuple(trace))
    part = build_reopt_partition(h, frozenset(w for w in cover if h.adjacency[w]))
    crown, head, rest = part.crown_c2()
    return _finish(h, crown, head, rest, part.saturating(head), budget, claim, trace)


def reopt_vc_kernelize_2k_report(inst: ReoptInstance) -> ReoptVcReport:
    """The 2k reoptimization kernel for vertex cover under edge addition,
    with the dispatch branch recorded for observability.

    The degenerate case-5 branch can return 2k + 1 vertices (three on the
    path a-b-c with k = 1); its occurrences carry the ``case5-degenerate``
    trace marker so callers can log them.
    """
    if inst.problem is not ProblemKind.VERTEX_COVER or not isinstance(
        inst.modification, EdgeAdd
    ):
        raise ModificationMismatch(
            "expected a vertex cover instance under edge addition"
        )
    if inst.witness is None:
        raise WitnessNotACover("the 2k kernel needs a vertex cover witness")
    cover = frozenset(inst.witness)
    g = inst.original
    if not all(isinstance(x, int) and 0 <= x < g.n for x in cover):
        raise WitnessNotACover(f"witness has vertices outside 0..{g.n - 1}")
    if not is_vertex_cover(g, cover):
        raise WitnessNotACover("witness does not cover every edge")
    if len(cover) > inst.k:
        raise WitnessNotACover(f"witness has {len(cover)} > k = {inst.k} vertices")
    u, v = inst.modification.u, inst.modification.v
    budget = inst.k_modified
    claim = 2 * inst.k
    trace: list[str] = []

    # The old cover still covers G + e when the new edge touches it.
    if u in cover or v in cover:
        if len(cover) <= budget:
            return _TRIVIAL_YES
        trace.append("trivial")
        modified = apply_modification(g, inst.modification)
        return _reduce_with_cover(modified, cover, budget, claim, trace)

    # New edge incident to a previously isolated vertex: it is now a leaf;
    # take its support into the cover and reduce the remainder.
    if g.degree(u) == 0 or g.degree(v) == 0:
        trace.append("isolated-leaf")
        modified = apply_modification(g, inst.modification)
        leaf = u if g.degree(u) == 0 else v
        support = v if leaf == u else u
        if modified.degree(leaf) != 1:
            raise InternalInvariantBroken("isolated endpoint did not become a leaf")
        keep = [w for w in modified.vertices if w not in (leaf, support)]
        remainder, idx = induced_subgraph(modified, keep)
        back = {old: new for new, old in enumerate(idx)}
        live_cover = frozenset(back[w] for w in cover if w in back)
        return _reduce_with_cover(remainder, live_cover, budget - 1, claim, trace)

    # Main branch: the new edge joins two non-isolated vertices of B.
    modified = apply_modification(g, inst.modification)
    live = frozenset(w for w in cover if g.adjacency[w])  # a cover: checked above
    m = maximum_bipartite_matching(g, live, frozenset(g.vertices) - live)
    part = _partition_from_matching(g, live, m)

    # Three rounds always suffice.  Case 4 exposes x; the other endpoint
    # stays matched, so the next round is case 2, case 3 or
    # case5-rematch-u.  case5-rematch-u flips a path that avoids the
    # unmatched blocker, so both ends are then unmatched and the next
    # round is case 2.  case5-rematch-v leads the same way as case 4.
    for _ in range(3):
        _check_partition_bounds(g, part)
        ru, rv = _region(part, u), _region(part, v)
        regions = {ru, rv}

        if regions == {"B23"}:
            trace.append("case1")
            crown, head, rest = part.crown_c2()
            return _finish(
                modified, crown, head, rest, part.saturating(head), budget, claim, trace
            )

        if regions == {"BU"}:
            trace.append("case2")
            x, y = min(u, v), max(u, v)
            c1, h1, r1 = part.crown_c1()
            head = h1 | {x}
            crown = c1 - {x}
            saturating = Matching(
                part.saturating(h1).pairs | {normalize_edge(x, y)}
            )
            return _finish(modified, crown, head, r1, saturating, budget, claim, trace)

        if regions == {"BU", "B23"}:
            trace.append("case3")
            x = u if ru == "BU" else v
            c2, h2, r2 = part.crown_c2()
            return _finish(
                modified, c2 - {x}, h2, r2 | {x}, part.saturating(h2),
                budget, claim, trace,
            )

        # Cases 4 and 5: an endpoint in B1 loses its partner by flipping
        # one alternating path, and the dispatch starts over.
        x = u if ru == "B1" else v
        forbidden = None
        if regions == {"B1", "B23"}:
            target, marker = x, "case4"
        elif regions == {"B1"}:
            target, marker = max(u, v), "case5-rematch-v"
        else:  # regions == {"B1", "BU"}: the escape must avoid the other end
            forbidden = v if x == u else u
            target, marker = x, "case5-rematch-u"
        rematched = rematch_to_expose(
            g, part.cover, part.independent, part.matching, target,
            forbidden=forbidden,
        )
        if rematched is not None:
            trace.append(marker)
            part = _partition_from_matching(g, part.cover, rematched)
            continue
        if forbidden is None:
            raise InternalInvariantBroken(
                "no alternating escape for a vertex reachable from unmatched B"
            )

        # Every alternating path from x to unmatched B leads through the
        # blocker y: the pairs that lose reachability when y disappears
        # move to the rest together with y itself.  y is unmatched, so
        # dropping it from side B only drops it from the start frontier.
        trace.append("case5-degenerate")
        y = forbidden
        _, still_reached, _, _ = alternating_reachability(
            g, part.cover, part.independent - {y}, part.matching
        )
        b_v = part.b1 - still_reached
        partners = part.matching.partner_map()
        a_v = frozenset(partners[b] for b in b_v)
        if x not in b_v:
            raise InternalInvariantBroken(
                "endpoint with no escape still reachable without the blocker"
            )
        c2, h2, r2 = part.crown_c2()
        crown = c2 - b_v - {y}
        head = h2 - a_v
        rest = r2 | b_v | a_v | {y}
        return _finish(
            modified, crown, head, rest, part.saturating(head),
            budget, 2 * inst.k + 1, trace,
        )

    raise InternalInvariantBroken("case dispatch did not terminate")


def _region(part: ReoptPartition, x: int) -> str:
    """Which part of B a new-edge endpoint lies in."""
    if x in part.b_unmatched:
        return "BU"
    if x in part.b1:
        return "B1"
    if x in part.b2 or x in part.b3:
        return "B23"
    raise InternalInvariantBroken(f"endpoint {x} is not in B")


def _check_partition_bounds(g: Graph, part: ReoptPartition) -> None:
    """With a cover of k vertices, each with an edge, the second crown leaves
    at most 2k - 2 vertices outside crown and head when more than 2k
    vertices have an edge; the isolated ones all lie in the crown."""
    k_bound = len(part.cover)
    if g.n - g.adjacency.count(frozenset()) <= 2 * k_bound:
        return
    c2, _, r2 = part.crown_c2()
    if len(c2) < g.n - 2 * k_bound + 1:
        raise InternalInvariantBroken(
            f"second crown too small: |C2|={len(c2)} < n-2k+1={g.n - 2 * k_bound + 1}"
        )
    if len(r2) > 2 * k_bound - 2:
        raise InternalInvariantBroken(
            f"second rest too large: |R2|={len(r2)} > 2k-2={2 * k_bound - 2}"
        )
