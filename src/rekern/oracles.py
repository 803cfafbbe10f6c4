"""Exact brute-force ground-truth solvers for every problem in the toolkit.

Each solver decomposes the input into connected components first (a
cover decomposes as a sum, every other solution object is connected, and
treewidth is the maximum over components), then solves each component
within its size guard.  Values are exact optima; witnesses are
deterministic, with lexicographically smallest witnesses where the
solver enumerates candidates directly.

Oracles are the verification backbone for every kernelizer in the
package, so they stay exhaustive: no heuristic decides a value.  They
avoid waste only where an argument shows it is exact.  All five
component solvers run on one bitmask adjacency
(``graphs.adjacency_masks``): vertex cover branches on a vertex or all
its neighbours, clique grows in ascending order under a size bound, and
both break ties with one rule (``_lex_first``); longest path, IVST and
treewidth are subset DPs behind bounds that often settle the answer.
Longest path and IVST share a table of the vertex sets that paths visit.
A path on all n vertices, or on n - 1 of them, is walked on its vertex
set instead of scanning every set.  IVST answers n - 2 from a
Hamiltonian path, the most any subtree can reach, since a tree on two
or more vertices has at least two leaves.  Without one, a subtree spans
the graph with three leaves or misses a vertex, so IVST answers n - 3
from a path on n - 1 vertices.  Only graphs with neither run its subset
DP, which attaches a root's children in one canonical order instead of
every order.  Treewidth is at least the degeneracy, since every subgraph
of a graph of treewidth t has a vertex of degree at most t, and at most
the width of any elimination order; when the min-degree order's width
meets the degeneracy, that order is the witness.  Otherwise the subset
DP reads each fill degree from a table of Q(S, v), the vertices outside
S that v reaches through S.  Every treewidth witness passes the
validator on every solve.  ``solve_exact`` runs one component loop for
all five, which a connected graph skips, and memoizes each component on
the unlabelled ``(n, edges)`` in a bounded LRU cache
(``_solve_component``), because kernel checks and compositional dispatch
ask about the same small graphs again and again.  Size guards run before
every lookup, so a cached answer never bypasses a guard.  Each kind's
solver, verifier and component combine rule sit in one table
(``_ORACLES``); its size guard, witness shape and direction come from
its row in ``rekern.problems``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Callable, Iterable, NamedTuple

from .decomposition import TreeDecomposition, validate_tree_decomposition
from .errors import SizeGuardExceeded, UnsupportedProblem
from .graphs import (
    Digraph,
    Graph,
    adjacency_masks,
    components,
    induced_subgraph,
    mask_reach,
    normalize_edge,
    reach_within,
)
from .instances import KernelResult
from .matching import greedy_matching
from .problems import PROBLEMS, Direction, ProblemKind, WitnessShape
from .setcover import SetCoverInstance

LEAF_OUT_TREE_ARC_GUARD = 14


@dataclass(frozen=True, slots=True)
class ExactSolution:
    value: int | None
    witness: Any | None


def _guard(kind: ProblemKind, size: int, limit: int | None) -> None:
    cap = limit if limit is not None else PROBLEMS[kind].size_guard
    if size > cap:
        raise SizeGuardExceeded(
            f"{kind.value} oracle limited to {cap}, got instance of size {size}"
        )


def _connected(g: Graph) -> bool:
    """Whether ``g`` has at most one component, by a search on its
    adjacency masks."""
    every = (1 << g.n) - 1
    return mask_reach(adjacency_masks(g), every & 1, every) == every


def _vertex_set(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _lex_first(a: int, b: int) -> bool:
    """Whether vertex set a comes before b: the lowest vertex in exactly one
    of them is in a.  On sets of one size this is the order of their sorted
    tuples."""
    diff = a ^ b
    return bool(a & diff & -diff)


# --- vertex cover ----------------------------------------------------------


def is_vertex_cover(g: Graph, candidate: Iterable[int]) -> bool:
    """Whether ``candidate`` is a vertex set of ``g`` that covers every
    edge.  The check scans the edges and builds no adjacency."""
    cover = set(candidate)
    if cover and not (0 <= min(cover) and max(cover) < g.n):
        return False
    return all(u in cover or v in cover for u, v in g.edges)


def _solve_vertex_cover(g: Graph) -> ExactSolution:
    """Minimum vertex cover, the lexicographically first among minimum ones.

    Branches on the lowest vertex u of maximum degree in the uncovered
    graph: either u joins the cover, or all of its uncovered neighbours
    do (Cygan et al., *Parameterized Algorithms*, 2015, ch. 3).  A branch
    goes on only while it is smaller than the best cover so far, so covers
    that tie it still reach a leaf and ``_lex_first`` breaks the tie.
    """
    adjmask = adjacency_masks(g)
    best_size, best = g.n, (1 << g.n) - 1

    def branch(rest: int, cover: int, size: int) -> None:
        nonlocal best_size, best
        top = u = 0
        scan = rest
        while scan:
            low = scan & -scan
            scan ^= low
            degree = (adjmask[low.bit_length() - 1] & rest).bit_count()
            if degree > top:
                top, u = degree, low.bit_length() - 1
        if not top:
            if size < best_size or (size == best_size and _lex_first(cover, best)):
                best_size, best = size, cover
            return
        if size >= best_size:
            return
        bit = 1 << u
        branch(rest ^ bit, cover | bit, size + 1)
        nbrs = adjmask[u] & rest
        branch(rest & ~(nbrs | bit), cover | nbrs, size + top)

    branch((1 << g.n) - 1, 0, 0)
    return ExactSolution(best_size, _vertex_set(best))


def all_minimum_vertex_covers(g: Graph) -> list[frozenset[int]]:
    """Every minimum vertex cover, by exhaustive enumeration (tiny graphs)."""
    opt = _solve_vertex_cover(g).value
    assert opt is not None
    return [
        frozenset(subset)
        for subset in combinations(range(g.n), opt)
        if is_vertex_cover(g, subset)
    ]


# --- connected vertex cover ------------------------------------------------


def is_connected_vertex_cover(g: Graph, candidate: Iterable[int]) -> bool:
    cover = set(candidate)
    if not is_vertex_cover(g, cover):
        return False
    return len(cover) <= 1 or len(reach_within(g, min(cover), cover)) == len(cover)


def _cvc_completions(
    g: Graph,
    cover: frozenset[int],
    cap: int | None,
    best: list[tuple[int, tuple[int, ...]]],
) -> bool:
    """Exhaustively grow ``cover`` until its induced subgraph is connected.

    Every connected completion is reachable by repeatedly adding a vertex
    adjacent to the component of the smallest cover vertex, so the search
    only branches on those candidates.  With a cap, completions stay within
    it and the search returns True at the first one it records.
    """
    stack = [cover]
    seen = {cover}
    while stack:
        current = stack.pop()
        if best and (len(current), tuple(sorted(current))) >= best[0]:
            continue
        anchor = reach_within(g, min(current), current)
        if len(anchor) == len(current):
            entry = (len(current), tuple(sorted(current)))
            if not best or entry < best[0]:
                best[:] = [entry]
                if cap is not None:
                    return True
            continue
        if cap is not None and len(current) >= cap:
            continue
        candidates: set[int] = set()
        for a in anchor:
            candidates |= g.adjacency[a]
        for w in sorted(candidates - current):
            grown = current | {w}
            if grown not in seen:
                seen.add(grown)
                stack.append(grown)
    return False


def _solve_cvc(g: Graph, limit: int | None, cap: int | None) -> ExactSolution:
    """Minimum connected vertex cover, or with ``cap`` the first connected
    cover of size <= cap found; None if there is none.

    Enumerates covers by bounded branching on uncovered edges, then
    completes each to a connected set within the remaining budget.  A cap
    stops the search at its first connected cover, which is enough for
    membership queries.
    """
    _guard(ProblemKind.CONNECTED_VERTEX_COVER, g.n, limit)
    if not g.edges:
        return ExactSolution(0, frozenset())
    edge_comps = [c for c in components(g) if len(c) > 1]
    if len(edge_comps) > 1:
        return ExactSolution(None, None)
    limit = cap if cap is not None else g.n
    best: list[tuple[int, tuple[int, ...]]] = []
    seen_covers: set[frozenset[int]] = set()
    done = False

    def branch(adj: dict[int, set[int]], chosen: frozenset[int]) -> None:
        nonlocal done
        if done or len(chosen) > limit:
            return
        live = {v: ns for v, ns in adj.items() if ns}
        # Each edge of a matching forces its own cover vertex.
        if len(chosen) + greedy_matching(live).size > limit:
            return
        if best and len(chosen) > best[0][0]:
            return
        if not live:
            if chosen not in seen_covers:
                seen_covers.add(chosen)
                if _cvc_completions(g, chosen, cap, best):
                    done = True
            return
        u = max(sorted(live), key=lambda v: len(live[v]))
        # u in the cover:
        branch({x: ns - {u} for x, ns in adj.items() if x != u}, chosen | {u})
        # u excluded: every neighbor of u must be in the cover.
        forced = set(adj[u])
        reduced = {
            x: {y for y in ns if y not in forced}
            for x, ns in adj.items()
            if x != u and x not in forced
        }
        branch(reduced, chosen | forced)

    branch({v: set(g.adjacency[v]) for v in g.vertices}, frozenset())
    if not best:
        return ExactSolution(None, None)
    size, vertices = best[0]
    return ExactSolution(size, frozenset(vertices))


# --- clique ----------------------------------------------------------------


def is_clique(g: Graph, candidate: Iterable[int]) -> bool:
    vs = sorted(set(candidate))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        return False
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def _solve_clique(g: Graph) -> ExactSolution:
    """Maximum clique, the lexicographically first among maximum ones.

    Grows cliques in ascending vertex order and stops a branch once its
    size plus its candidates falls below the best size (Carraghan and
    Pardalos, 1990); ties still reach ``_lex_first``.
    """
    adjmask = adjacency_masks(g)
    best_size = best = 0

    def grow(candidates: int, clique: int, size: int) -> None:
        nonlocal best_size, best
        if size > best_size or (size == best_size and _lex_first(clique, best)):
            best_size, best = size, clique
        while candidates and size + candidates.bit_count() >= best_size:
            low = candidates & -candidates
            candidates ^= low
            grow(candidates & adjmask[low.bit_length() - 1], clique | low, size + 1)

    grow((1 << g.n) - 1, 0, 0)
    return ExactSolution(best_size, _vertex_set(best))


# --- longest path ----------------------------------------------------------


def is_path(g: Graph, candidate: Iterable[int]) -> bool:
    seq = list(candidate)
    if not seq or len(seq) != len(set(seq)):
        return False
    if not (0 <= min(seq) and max(seq) < g.n):
        return False
    return all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))


def _path_ends(adjmask: list[int]) -> list[int]:
    """ends[mask]: the vertices at which a path visiting exactly ``mask``
    ends (Held and Karp, 1962, as bitsets).  A path grows by a vertex next
    to one of its ends, into a larger mask, so masks run in ascending order."""
    ends = [0] * (1 << len(adjmask))
    for v in range(len(adjmask)):
        ends[1 << v] = 1 << v
    for mask, last in enumerate(ends):  # reads each entry once it is final
        reach = 0
        while last:
            low = last & -last
            last ^= low
            reach |= adjmask[low.bit_length() - 1]
        reach &= ~mask
        while reach:
            low = reach & -reach
            reach ^= low
            ends[mask | low] |= low
    return ends


def _walk_path(adjmask: list[int], ends: list[int], mask: int) -> tuple[int, ...]:
    """The lexicographically first path visiting exactly ``mask``, which
    ``ends[mask]`` says exists.  Paths reverse, so one starts at w on S iff
    w is in ends[S]: the walk takes the lowest such start, then each time
    the lowest neighbour that starts a path on the vertices left."""
    path: list[int] = []
    allowed = -1
    while mask:
        starts = ends[mask] & allowed
        if not starts:
            raise AssertionError("path reconstruction failed")
        low = starts & -starts
        path.append(low.bit_length() - 1)
        mask ^= low
        allowed = adjmask[path[-1]]
    return tuple(path)


def _near_spanning_path(adjmask: list[int], ends: list[int]) -> tuple[int, ...] | None:
    """The lexicographically first longest path when it visits all n
    vertices or n - 1 of them, else None.  Among several vertex sets of one
    size, the first path is the smallest of their walks."""
    every = len(ends) - 1
    if ends[every]:
        return _walk_path(adjmask, ends, every)
    masks = (every ^ (1 << v) for v in range(len(adjmask)))
    return min((_walk_path(adjmask, ends, m) for m in masks if ends[m]), default=None)


def _first_longest_path(adjmask: list[int], ends: list[int]) -> tuple[int, ...]:
    """The longest path with the lowest start, then at each step the lowest
    neighbour that starts a path of the remaining length outside the
    visited set.  A path on n or n - 1 vertices is walked on its vertex
    set; any shorter one reads, at each step, the masks of one size,
    bucketed once."""
    near = _near_spanning_path(adjmask, ends)
    if near is not None:
        return near
    by_size: dict[int, list[int]] = {}
    for mask, last in enumerate(ends):
        if last:
            by_size.setdefault(mask.bit_count(), []).append(mask)
    path: list[int] = []
    visited, allowed = 0, -1
    for _, masks in sorted(by_size.items(), reverse=True):
        starts = 0
        for mask in masks:
            if not mask & visited:
                starts |= ends[mask]
        starts &= allowed
        if not starts:
            raise AssertionError("path reconstruction failed")
        low = starts & -starts
        path.append(low.bit_length() - 1)
        visited |= low
        allowed = adjmask[path[-1]]
    return tuple(path)


def _solve_longest_path(g: Graph) -> ExactSolution:
    if g.n == 0:
        return ExactSolution(0, ())
    adjmask = adjacency_masks(g)
    path = _first_longest_path(adjmask, _path_ends(adjmask))
    return ExactSolution(len(path) - 1, path)


# --- internal vertex subtree ------------------------------------------------


def is_subtree_with_internal(g: Graph, candidate: Iterable[Iterable[int]], k: int) -> bool:
    """candidate: edge set that must form a subtree with >= k internal vertices."""
    edges = {normalize_edge(u, v) for u, v in candidate}
    if not edges <= g.edges:
        return False
    if not edges:
        return k <= 0
    vertices = {v for e in edges for v in e}
    if len(edges) != len(vertices) - 1:
        return False
    tree = Graph(g.n, frozenset(edges))
    if len(reach_within(tree, min(vertices), vertices)) != len(vertices):
        return False
    return sum(1 for v in vertices if len(tree.adjacency[v]) >= 2) >= k


def _solve_ivst(g: Graph) -> ExactSolution:
    """Maximum internal vertices over all subtrees.

    Every tree with at least two vertices has at least two leaves, and one
    with exactly two is a path.  So on n >= 3 vertices a subtree has at
    most n - 2 internal vertices, and a Hamiltonian path has exactly n - 2.
    Without one, every subtree either spans the graph with at least three
    leaves or misses a vertex, so it has at most n - 3, which a path on
    n - 1 vertices reaches.  The endpoint-set table finds either path;
    only graphs with neither reach the subset DP.
    """
    n = g.n
    if n < 3:
        return ExactSolution(0, frozenset())
    adjmask = adjacency_masks(g)
    path = _near_spanning_path(adjmask, _path_ends(adjmask))
    if path is None:
        return _ivst_subset_dp(g)
    return ExactSolution(
        len(path) - 2, frozenset(normalize_edge(a, b) for a, b in zip(path, path[1:]))
    )


def _ivst_subset_dp(g: Graph) -> ExactSolution:
    """Maximum internal vertices over all subtrees, by subset DP.

    States (S, v, c): a tree spanning vertex set S rooted at v whose root
    degree class c is 1 or >= 2; values count internal vertices excluding
    the root.  A tree grows by attaching a child subtree T at v, which
    resolves the child root's internality on the spot.  The root's degree
    class does not depend on the order its children are attached, so the
    last-attached T is the one holding the lowest vertex of S - {v}: every
    rooted tree is still reached, along one attach order.  Each state
    reads strict submasks only, which are numerically smaller, so masks
    run in ascending order over flat per-vertex tables.
    """
    n = g.n
    adjmask = adjacency_masks(g)
    size = 1 << n
    NEG = -1
    dp1 = [[NEG] * size for _ in range(n)]  # dp1[v][S]: root degree 1
    dp2 = [[NEG] * size for _ in range(n)]  # dp2[v][S]: root degree >= 2
    # back[c][v][S] = (class of the tree before the last attachment, child
    # root, child subtree) for the best state (S, v, c).
    back: dict[int, list[list[Any]]] = {
        c: [[None] * size for _ in range(n)] for c in (1, 2)
    }
    # resolved[v][T]: best value of a subtree on T rooted at v once v is
    # attached below a parent; tag[v][T] is v's class before attachment.
    resolved = [[NEG] * size for _ in range(n)]
    tag = [[0] * size for _ in range(n)]
    for v in range(n):
        resolved[v][1 << v] = 0  # a child that stays a leaf

    best_value = 0
    best_state: tuple[int, int, int] | None = None
    for mask in range(3, size):
        if not mask & (mask - 1):
            continue
        for v in range(n):
            bit = 1 << v
            if not mask & bit:
                continue
            nbrs = adjmask[v]
            rest = mask ^ bit
            low = rest & -rest
            others = rest ^ low
            d1, d2 = dp1[v], dp2[v]
            best1 = best2 = NEG
            arg1 = arg2 = None
            sub = others
            while True:
                t = low | sub
                cand = t & nbrs
                if cand:
                    base = mask ^ t
                    if base == bit:
                        prev_cls, prev = 0, 0
                    elif d1[base] >= d2[base]:
                        prev_cls, prev = 1, d1[base]
                    else:
                        prev_cls, prev = 2, d2[base]
                    if prev > NEG:
                        child = via = NEG
                        while cand:
                            c = cand & -cand
                            cand ^= c
                            u = c.bit_length() - 1
                            r = resolved[u][t]
                            if r > child:
                                child, via = r, u
                        if child > NEG:
                            total = prev + child
                            if prev_cls == 0:  # only t == rest leaves base == bit
                                best1, arg1 = total, (0, via, t)
                            elif total > best2:
                                best2, arg2 = total, (prev_cls, via, t)
                if not sub:
                    break
                sub = (sub - 1) & others
            d1[mask] = best1
            d2[mask] = best2
            back[1][v][mask] = arg1
            back[2][v][mask] = arg2
            # No state reads a tree on its own mask, so v resolves here.
            if best1 >= best2:
                if best1 > NEG:
                    resolved[v][mask] = best1 + 1
                    tag[v][mask] = 1
            else:
                resolved[v][mask] = best2 + 1
                tag[v][mask] = 2
            if best1 > best_value:
                best_value, best_state = best1, (1, mask, v)
            if best2 + 1 > best_value:
                best_value, best_state = best2 + 1, (2, mask, v)

    edges: set[tuple[int, int]] = set()
    stack = [best_state] if best_state is not None else []
    while stack:
        cls, mask, v = stack.pop()
        if cls == 0:
            continue
        prev_cls, u, t = back[cls][v][mask]
        edges.add(normalize_edge(v, u))
        stack.append((prev_cls, mask ^ t, v))
        stack.append((tag[u][t], t, u))
    return ExactSolution(best_value, frozenset(edges))


# --- treewidth ---------------------------------------------------------------


def _tw_elimination(g: Graph) -> tuple[int, list[int]]:
    """Treewidth and an optimal elimination order via DP over subsets.

    Eliminating v last within S costs |Q(S - v, v)|, where Q(S, v) holds
    the vertices outside S u {v} that v reaches through S.  With w the
    lowest vertex of S, Q(S, v) is Q(S - w, v) when w is not in it, else
    (Q(S - w, v) | Q(S - w, w)) - {w, v} (Bodlaender, Fomin, Koster,
    Kratsch and Thilikos, "On exact algorithms for treewidth", 2012).  Both
    tables read strict submasks only, so one ascending pass fills them.
    """
    n = g.n
    if n == 0:
        return -1, []
    size = 1 << n
    q = adjacency_masks(g) + [0] * ((size - 1) * n)  # Q({}, v) = N(v)
    f = [-1] * size
    choice = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        base = (mask ^ low) * n
        via = q[base + low.bit_length() - 1]
        row = mask * n
        best, best_v = n, -1
        for v in range(n):
            bit = 1 << v
            if mask & bit:
                prior = mask ^ bit
                width = q[prior * n + v].bit_count()
                if f[prior] > width:
                    width = f[prior]
                if width < best:
                    best, best_v = width, v
            else:
                reach = q[base + v]
                if reach & low:
                    reach = (reach | via) & ~(low | bit)
                q[row + v] = reach
        f[mask] = best
        choice[mask] = best_v

    order = []
    mask = size - 1
    while mask:
        order.append(choice[mask])
        mask ^= 1 << order[-1]
    order.reverse()  # choice[mask] is the vertex eliminated last within mask
    return f[size - 1], order


def _td_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Tree decomposition induced by an elimination order (fill-in method).

    A forward pass eliminates the vertices in order, turning each one's
    later neighbours into a clique; a backward pass then gives each vertex
    the bag {v} u later(v), in reverse order, and attaches it to the first
    earlier bag holding later(v) (bag 0 if none).
    """
    if g.n == 0:
        return TreeDecomposition(Graph.from_edges(1), (frozenset(),))
    adjmask = adjacency_masks(g)
    remaining = (1 << g.n) - 1
    later = [0] * g.n
    for v in order:
        remaining ^= 1 << v
        rest = later[v] = nbrs = adjmask[v] & remaining
        while rest:
            low = rest & -rest
            rest ^= low
            adjmask[low.bit_length() - 1] |= nbrs ^ low
    masks: list[int] = []
    tree_edges = []
    for v in reversed(order):
        nbrs = later[v]
        if masks:
            attach = next((i for i, m in enumerate(masks) if not nbrs & ~m), 0)
            tree_edges.append((attach, len(masks)))
        masks.append(nbrs | 1 << v)
    bags = tuple(_vertex_set(m) for m in masks)
    return TreeDecomposition(Graph(len(bags), frozenset(tree_edges)), bags)


def _min_degree(adjmask: list[int], rest: int) -> tuple[int, int]:
    """The lowest vertex of least degree within ``rest``, and that degree."""
    best, best_v = len(adjmask), -1
    scan = rest
    while scan:
        low = scan & -scan
        scan ^= low
        v = low.bit_length() - 1
        degree = (adjmask[v] & rest).bit_count()
        if degree < best:
            best, best_v = degree, v
    return best, best_v


def _tw_bounds(adjmask: list[int]) -> tuple[int, int, list[int]]:
    """A lower and an upper bound on treewidth, and an elimination order
    whose width is the upper one.

    The lower bound is the degeneracy: every subgraph of a graph of
    treewidth t has a vertex of degree at most t, so peeling a least-degree
    vertex never meets a degree above t.  The upper bound is the width of
    the min-degree elimination with fill, lowest vertex first on ties: any
    elimination order's width bounds treewidth from above (Bodlaender and
    Koster, "Treewidth computations II. Lower bounds", 2011).
    """
    every = (1 << len(adjmask)) - 1
    lower, rest = -1, every
    while rest:
        degree, v = _min_degree(adjmask, rest)
        lower = max(lower, degree)
        rest ^= 1 << v
    filled = adjmask[:]
    upper, rest, order = -1, every, []
    while rest:
        degree, v = _min_degree(filled, rest)
        upper = max(upper, degree)
        rest ^= 1 << v
        order.append(v)
        nbrs = scan = filled[v] & rest
        while scan:
            low = scan & -scan
            scan ^= low
            filled[low.bit_length() - 1] |= nbrs ^ low
    return lower, upper, order


def _solve_treewidth(g: Graph) -> ExactSolution:
    """Treewidth with a decomposition that the validator checks on every
    solve.  When the degeneracy meets the min-degree width, that width is
    the treewidth and its order the witness; only graphs where the bounds
    differ run the subset DP."""
    lower, width, order = _tw_bounds(adjacency_masks(g))
    if lower != width:
        width, order = _tw_elimination(g)
    td = _td_from_order(g, order)
    problems = validate_tree_decomposition(g, td)
    if problems or td.width != width:
        raise AssertionError(f"bad witness decomposition: {problems}")
    return ExactSolution(width, td)


# --- set cover ---------------------------------------------------------------


def is_set_cover(sc: SetCoverInstance, candidate: Iterable[int]) -> bool:
    chosen = list(candidate)
    if any(not (0 <= i < sc.t) for i in chosen):
        return False
    covered: frozenset[int] = frozenset()
    for i in chosen:
        covered |= sc.family[i]
    return covered == sc.universe


def _solve_set_cover(
    sc: SetCoverInstance, limit: int | None, _budget: int | None
) -> ExactSolution:
    _guard(ProblemKind.SET_COVER, sc.t, limit)
    for size in range(0, sc.t + 1):
        for chosen in combinations(range(sc.t), size):
            if is_set_cover(sc, chosen):
                return ExactSolution(size, tuple(chosen))
    return ExactSolution(None, None)


# --- leaf out tree -------------------------------------------------------------


def is_out_tree(d: Digraph, candidate: Iterable[tuple[int, int]], k: int) -> bool:
    arcs = {(u, v) for u, v in candidate}
    if not arcs <= d.arcs or not arcs:
        return False
    vertices = {x for arc in arcs for x in arc}
    indeg = {v: 0 for v in vertices}
    for _, v in arcs:
        indeg[v] += 1
    roots = [v for v in vertices if indeg[v] == 0]
    if len(roots) != 1 or any(indeg[v] > 1 for v in vertices):
        return False
    reached = {roots[0]}
    frontier = [roots[0]]
    children: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in arcs:
        children[u].append(v)
    while frontier:
        x = frontier.pop()
        for y in children[x]:
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    if reached != vertices:
        return False
    leaves = sum(1 for v in vertices if v != roots[0] and not children[v])
    return leaves >= k


def _solve_leaf_out_tree(
    d: Digraph, limit: int | None, _budget: int | None
) -> ExactSolution:
    """Most leaves of an out-tree: the first best weak component."""
    parts = []
    for comp in components(Graph.from_edges(d.n, d.arcs)):
        back = {old: new for new, old in enumerate(comp)}
        sub = Digraph(
            len(comp),
            frozenset((back[u], back[v]) for u, v in d.arcs if u in back and v in back),
        )
        _guard(ProblemKind.LEAF_OUT_TREE, sub.n, limit)
        local = _leaf_out_tree_component(sub)
        arcs = _MAP_WITNESS[WitnessShape.PAIR_SET](local.witness, comp)
        parts.append(ExactSolution(local.value, arcs))
    return _best_part(parts) if parts else ExactSolution(0, frozenset())


def _leaf_out_tree_component(d: Digraph) -> ExactSolution:
    arcs = sorted(d.arcs)
    if len(arcs) > LEAF_OUT_TREE_ARC_GUARD:
        raise SizeGuardExceeded(
            f"leaf-out-tree oracle limited to {LEAF_OUT_TREE_ARC_GUARD} arcs"
        )
    best = 0
    best_witness: frozenset[tuple[int, int]] = frozenset()
    for mask in range(1, 1 << len(arcs)):
        subset = [arcs[i] for i in range(len(arcs)) if (mask >> i) & 1]
        vertices = {x for arc in subset for x in arc}
        if len(subset) != len(vertices) - 1:
            continue
        if is_out_tree(d, subset, 0):
            # In an out-tree the leaves are the vertices entered but never left.
            leaves = len({v for _, v in subset} - {u for u, _ in subset})
            if leaves > best:
                best = leaves
                best_witness = frozenset(subset)
    return ExactSolution(best, best_witness)


# --- dispatch ----------------------------------------------------------------


def _sum_covers(parts: list[ExactSolution]) -> ExactSolution:
    """A cover is a sum over components."""
    return ExactSolution(
        sum(part.value for part in parts),
        frozenset().union(*(part.witness for part in parts)),
    )


def _best_part(parts: list[ExactSolution]) -> ExactSolution:
    """A connected solution object: the first best component holds it."""
    return max(parts, key=lambda part: part.value)


def _chain_decompositions(parts: list[ExactSolution]) -> ExactSolution:
    """Width is the maximum over components; one witness decomposition must
    cover them all, so their trees are chained into one tree."""
    bags: list[frozenset[int]] = []
    tree_edges: list[tuple[int, int]] = []
    for part in parts:
        td: TreeDecomposition = part.witness
        offset = len(bags)
        if offset:
            tree_edges.append((offset - 1, offset))
        tree_edges.extend((offset + a, offset + b) for a, b in td.tree.edges)
        bags.extend(td.bags)
    td = TreeDecomposition(Graph.from_edges(len(bags), tree_edges), tuple(bags))
    return ExactSolution(max(part.value for part in parts), td)


# A component's witness in the whole instance's labels.  ``idx`` ascends,
# so a normalized edge stays normalized and an arc keeps its direction.
_MAP_WITNESS = {
    WitnessShape.VERTEX_SET: lambda w, idx: frozenset(idx[v] for v in w),
    WitnessShape.VERTEX_SEQUENCE: lambda w, idx: tuple(idx[v] for v in w),
    WitnessShape.PAIR_SET: lambda w, idx: frozenset((idx[u], idx[v]) for u, v in w),
    WitnessShape.TREE_DECOMPOSITION: lambda td, idx: TreeDecomposition(
        td.tree, tuple(frozenset(idx[v] for v in bag) for bag in td.bags)
    ),
}


# With ``combine``, ``solve`` takes one connected component and ``combine``
# folds the components' solutions; without it, ``solve`` takes the whole
# instance, the size limit and the connected cover budget.
class _Oracle(NamedTuple):
    solve: Callable[..., ExactSolution]
    verify: Callable[[Any, Any, int], bool]
    combine: Callable[[list[ExactSolution]], ExactSolution] | None = None


_ORACLES = {
    ProblemKind.VERTEX_COVER: _Oracle(
        _solve_vertex_cover,
        lambda g, c, k: len(set(c)) <= k and is_vertex_cover(g, c),
        _sum_covers,
    ),
    ProblemKind.CONNECTED_VERTEX_COVER: _Oracle(
        _solve_cvc,
        lambda g, c, k: len(set(c)) <= k and is_connected_vertex_cover(g, c),
    ),
    ProblemKind.IVST: _Oracle(_solve_ivst, is_subtree_with_internal, _best_part),
    ProblemKind.LONGEST_PATH: _Oracle(
        _solve_longest_path,
        lambda g, c, k: len(list(c)) >= k + 1 and is_path(g, c),
        _best_part,
    ),
    ProblemKind.CLIQUE: _Oracle(
        _solve_clique,
        lambda g, c, k: len(set(c)) >= k and is_clique(g, c),
        _best_part,
    ),
    ProblemKind.SET_COVER: _Oracle(
        _solve_set_cover,
        lambda sc, c, k: len(list(c)) <= k and is_set_cover(sc, c),
    ),
    ProblemKind.TREEWIDTH: _Oracle(
        _solve_treewidth,
        lambda g, c, k: isinstance(c, TreeDecomposition)
        and c.width <= k
        and not validate_tree_decomposition(g, c),
        _chain_decompositions,
    ),
    ProblemKind.LEAF_OUT_TREE: _Oracle(_solve_leaf_out_tree, is_out_tree),
}

_PAYLOAD_TYPES = {"graph": Graph, "digraph": Digraph, "set_cover": SetCoverInstance}


@lru_cache(maxsize=256)
def _solve_component(
    kind: ProblemKind, n: int, edges: frozenset[tuple[int, int]]
) -> ExactSolution:
    """Exact solution of one component, memoized on ``(kind, n, edges)``.

    Labels are not part of the key, so a hit returns exactly what the
    solver returns on the unlabelled graph.  Callers run ``_guard`` first.
    """
    return _ORACLES[kind].solve(Graph(n, edges))


def solve_exact(
    kind: ProblemKind,
    instance: Graph | Digraph | SetCoverInstance,
    *,
    limit: int | None = None,
    cvc_budget: int | None = None,
) -> ExactSolution:
    """Exact optimum and a witness for any supported problem.

    For connected vertex cover, ``cvc_budget`` bounds the search; a value
    of ``None`` in the result means no connected cover within the budget
    (or none at all when edges span several components).  Other problems
    ignore it.
    """
    payload = _PAYLOAD_TYPES[PROBLEMS[kind].payload]
    if not isinstance(instance, payload):
        raise UnsupportedProblem(f"{kind.value} expects a {payload.__name__}")
    solve, _, combine = _ORACLES[kind]
    if combine is None:
        return solve(instance, limit, cvc_budget)
    g = instance
    if _connected(g):  # one component: its own labels, so no copy to map back
        _guard(kind, g.n, limit)
        return _solve_component(kind, g.n, g.edges)
    map_witness = _MAP_WITNESS[PROBLEMS[kind].witness]
    parts = []
    for comp in components(g):
        sub, idx = induced_subgraph(g, comp)
        _guard(kind, sub.n, limit)
        local = _solve_component(kind, sub.n, sub.edges)
        parts.append(ExactSolution(local.value, map_witness(local.witness, idx)))
    return combine(parts)


def membership(
    kind: ProblemKind,
    instance: Graph | Digraph | SetCoverInstance,
    k: int,
    *,
    limit: int | None = None,
) -> bool:
    """Whether (instance, k) is a member of the parameterized problem."""
    solution = solve_exact(kind, instance, limit=limit, cvc_budget=k)
    if solution.value is None:
        return False
    if PROBLEMS[kind].direction is Direction.MIN:
        return solution.value <= k
    return solution.value >= k


def verify_solution(
    kind: ProblemKind,
    instance: Graph | Digraph | SetCoverInstance,
    candidate: Any,
    k: int,
) -> bool:
    """True iff the candidate satisfies the problem's defining predicate
    at cost k."""
    return candidate is not None and _ORACLES[kind].verify(instance, candidate, k)


def verify_kernel_equivalence(
    kind: ProblemKind,
    instance: Graph | Digraph | SetCoverInstance,
    k: int,
    result: KernelResult,
    *,
    limit: int | None = None,
) -> bool:
    """Oracle membership of the original equals the result's decision (or
    the oracle membership of the reduced instance)."""
    original = membership(kind, instance, k, limit=limit)
    if result.is_decided:
        return original == result.answer
    assert result.graph is not None and result.parameter is not None
    if result.parameter < 0:
        return original is False
    reduced = membership(kind, result.graph, result.parameter, limit=limit)
    return original == reduced
