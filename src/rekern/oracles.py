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
component solvers run on one bitmask adjacency (``_adjmask``): vertex
cover branches on a vertex or all its neighbours, clique grows in
ascending order under a size bound, and both break ties with one rule
(``_lex_first``); longest path, IVST and treewidth are subset DPs.  IVST
answers n - 2 outright on a component with a Hamiltonian path, the most
any subtree can reach, and its subset DP attaches a root's children in
one canonical order instead of every order.  Treewidth reads each fill
degree from a table of Q(S, v), the vertices outside S that v reaches
through S.  ``solve_exact`` runs one component loop for all five and
memoizes each component on the unlabelled ``(n, edges)`` in a bounded
LRU cache (``_solve_component``), because kernel checks and
compositional dispatch ask about the same small graphs again and again.
Size guards run before every lookup, so a cached answer never bypasses a
guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Iterable

from .decomposition import TreeDecomposition, validate_tree_decomposition
from .errors import SizeGuardExceeded, UnsupportedProblem
from .graphs import (
    Digraph,
    Graph,
    components,
    induced_subgraph,
    normalize_edge,
    reach_within,
)
from .instances import KernelResult
from .matching import greedy_matching
from .problems import Direction, ProblemKind, direction_of
from .setcover import SetCoverInstance

# Default per-component size guards.  ``solve_exact`` accepts an explicit
# override for callers that knowingly pay for larger instances.
SIZE_GUARDS: dict[ProblemKind, int] = {
    ProblemKind.VERTEX_COVER: 20,
    ProblemKind.CONNECTED_VERTEX_COVER: 30,
    ProblemKind.IVST: 10,
    ProblemKind.LONGEST_PATH: 16,
    ProblemKind.CLIQUE: 20,
    ProblemKind.SET_COVER: 20,
    ProblemKind.TREEWIDTH: 10,
    ProblemKind.LEAF_OUT_TREE: 8,
}
LEAF_OUT_TREE_ARC_GUARD = 14


@dataclass(frozen=True)
class ExactSolution:
    value: int | None
    witness: Any | None


def _guard(kind: ProblemKind, size: int, limit: int | None) -> None:
    cap = limit if limit is not None else SIZE_GUARDS[kind]
    if size > cap:
        raise SizeGuardExceeded(
            f"{kind.value} oracle limited to {cap}, got instance of size {size}"
        )


def _adjmask(g: Graph) -> list[int]:
    """Each vertex's neighbourhood as a bitmask: the scaffold of every
    component solver."""
    adjmask = [0] * g.n
    for u, v in g.edges:
        adjmask[u] |= 1 << v
        adjmask[v] |= 1 << u
    return adjmask


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
    edge: each vertex outside it has all its neighbours inside."""
    cover = set(candidate)
    if cover and not (0 <= min(cover) and max(cover) < g.n):
        return False
    adjacency = g.adjacency
    return all(adjacency[v] <= cover for v in range(g.n) if v not in cover)


def _solve_vertex_cover(g: Graph) -> ExactSolution:
    """Minimum vertex cover, the lexicographically first among minimum ones.

    Branches on the lowest vertex u of maximum degree in the uncovered
    graph: either u joins the cover, or all of its uncovered neighbours
    do (Cygan et al., *Parameterized Algorithms*, 2015, ch. 3).  A branch
    goes on only while it is smaller than the best cover so far, so covers
    that tie it still reach a leaf and ``_lex_first`` breaks the tie.
    """
    adjmask = _adjmask(g)
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


def _solve_cvc(g: Graph, cap: int | None = None) -> ExactSolution:
    """Minimum connected vertex cover, or with ``cap`` the first connected
    cover of size <= cap found; None if there is none.

    Enumerates covers by bounded branching on uncovered edges, then
    completes each to a connected set within the remaining budget.  A cap
    stops the search at its first connected cover, which is enough for
    membership queries.
    """
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
    adjmask = _adjmask(g)
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


def _lp_tables(g: Graph) -> list[list[int]]:
    """longest[mask][v]: longest extension from v with ``mask`` visited.

    Each entry reads strict supermasks only, which are numerically larger,
    so masks run in descending order.
    """
    n = g.n
    adjmask = _adjmask(g)
    table = [[0] * n for _ in range(1 << n)]
    for mask in range((1 << n) - 1, -1, -1):
        row = table[mask]
        for v in range(n):
            if not (mask >> v) & 1:
                continue
            free = adjmask[v] & ~mask
            best = 0
            while free:
                low = free & -free
                free ^= low
                ext = 1 + table[mask | low][low.bit_length() - 1]
                if ext > best:
                    best = ext
            row[v] = best
    return table


def _solve_longest_path(g: Graph) -> ExactSolution:
    if g.n == 0:
        return ExactSolution(0, ())
    table = _lp_tables(g)
    value = max(table[1 << v][v] for v in g.vertices)
    start = min(v for v in g.vertices if table[1 << v][v] == value)
    path = [start]
    mask = 1 << start
    remaining = value
    while remaining:
        v = path[-1]
        for w in sorted(g.adjacency[v]):
            if not (mask >> w) & 1 and 1 + table[mask | (1 << w)][w] == remaining:
                path.append(w)
                mask |= 1 << w
                remaining -= 1
                break
        else:
            raise AssertionError("path reconstruction failed")
    return ExactSolution(value, tuple(path))


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
    sub, idx = induced_subgraph(g, vertices)
    back = {old: new for new, old in enumerate(idx)}
    tree_edges = {normalize_edge(back[u], back[v]) for u, v in edges}
    tree = Graph(len(vertices), frozenset(tree_edges))
    if len(components(tree)) != 1:
        return False
    internal = sum(1 for v in tree.vertices if tree.degree(v) >= 2)
    return internal >= k


def _solve_ivst(g: Graph) -> ExactSolution:
    """Maximum internal vertices over all subtrees.

    Every tree with at least two vertices has at least two leaves, so no
    subtree of a graph on n >= 3 vertices has more than n - 2 internal
    vertices, and a Hamiltonian path has exactly n - 2.  The longest-path
    DP finds such a path when there is one; only graphs without one reach
    the subset DP.
    """
    n = g.n
    if n < 3:
        return ExactSolution(0, frozenset())
    longest = _solve_longest_path(g)
    if longest.value == n - 1:
        path = longest.witness
        return ExactSolution(
            n - 2, frozenset(normalize_edge(a, b) for a, b in zip(path, path[1:]))
        )
    return _ivst_subset_dp(g)


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
    adjmask = _adjmask(g)
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
    q = _adjmask(g) + [0] * ((size - 1) * n)  # Q({}, v) = N(v)
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
    adjmask = _adjmask(g)
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


def _solve_treewidth(g: Graph) -> ExactSolution:
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


def _solve_set_cover(sc: SetCoverInstance) -> ExactSolution:
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


def _solve_leaf_out_tree(d: Digraph) -> ExactSolution:
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
            leaves = _count_out_tree_leaves(subset)
            if leaves > best:
                best = leaves
                best_witness = frozenset(subset)
    return ExactSolution(best, best_witness)


def _count_out_tree_leaves(arcs: list[tuple[int, int]]) -> int:
    vertices = {x for arc in arcs for x in arc}
    heads = {u for u, _ in arcs}
    indeg = {v: 0 for v in vertices}
    for _, v in arcs:
        indeg[v] += 1
    return sum(1 for v in vertices if indeg[v] == 1 and v not in heads)


# --- dispatch ----------------------------------------------------------------


# Solvers whose answer depends on the unlabelled component alone.
_COMPONENT_SOLVERS = {
    ProblemKind.VERTEX_COVER: _solve_vertex_cover,
    ProblemKind.TREEWIDTH: _solve_treewidth,
    ProblemKind.IVST: _solve_ivst,
    ProblemKind.LONGEST_PATH: _solve_longest_path,
    ProblemKind.CLIQUE: _solve_clique,
}


@lru_cache(maxsize=256)
def _solve_component(
    kind: ProblemKind, n: int, edges: frozenset[tuple[int, int]]
) -> ExactSolution:
    """Exact solution of one component, memoized on ``(kind, n, edges)``.

    Labels are not part of the key, so a hit returns exactly what the
    solver returns on the unlabelled graph.  Callers run ``_guard`` first.
    """
    return _COMPONENT_SOLVERS[kind](Graph(n, edges))


def _weak_components(d: Digraph) -> list[list[int]]:
    undirected = Graph.from_edges(d.n, [(u, v) for u, v in d.arcs])
    return components(undirected)


def _induced_digraph(d: Digraph, vertices: list[int]) -> tuple[Digraph, tuple[int, ...]]:
    index_map = tuple(sorted(vertices))
    back = {old: new for new, old in enumerate(index_map)}
    arcs = frozenset(
        (back[u], back[v]) for u, v in d.arcs if u in back and v in back
    )
    return Digraph(len(index_map), arcs), index_map


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
    (or none at all when edges span several components).
    """
    if kind is ProblemKind.SET_COVER:
        if not isinstance(instance, SetCoverInstance):
            raise UnsupportedProblem("set cover expects a SetCoverInstance")
        _guard(kind, instance.t, limit)
        return _solve_set_cover(instance)

    if kind is ProblemKind.LEAF_OUT_TREE:
        if not isinstance(instance, Digraph):
            raise UnsupportedProblem("leaf out tree expects a Digraph")
        best = ExactSolution(0, frozenset())
        for comp in _weak_components(instance):
            sub, idx = _induced_digraph(instance, comp)
            _guard(kind, sub.n, limit)
            local = _solve_leaf_out_tree(sub)
            if local.value is not None and local.value > (best.value or 0):
                witness = frozenset((idx[u], idx[v]) for u, v in local.witness)
                best = ExactSolution(local.value, witness)
        return best

    if not isinstance(instance, Graph):
        raise UnsupportedProblem(f"{kind.value} expects a Graph")
    g = instance

    if kind is ProblemKind.CONNECTED_VERTEX_COVER:
        _guard(kind, g.n, limit)
        return _solve_cvc(g, cvc_budget)

    if kind not in _COMPONENT_SOLVERS:
        raise UnsupportedProblem(f"no exact solver for {kind}")
    parts = []
    for comp in components(g):
        sub, idx = induced_subgraph(g, comp)
        _guard(kind, sub.n, limit)
        parts.append((_solve_component(kind, sub.n, sub.edges), idx))
    if not parts:  # the empty graph
        return _solve_component(kind, 0, frozenset())

    if kind is ProblemKind.VERTEX_COVER:  # a cover is a sum over components
        cover: frozenset[int] = frozenset()
        for local, idx in parts:
            cover |= _map_witness(kind, local.witness, idx)
        return ExactSolution(sum(local.value for local, _ in parts), cover)
    if kind is ProblemKind.TREEWIDTH:
        # Width is the maximum over components; the witness decomposition
        # must still cover every component, so the per-component trees are
        # chained together into one tree.
        bags: list[frozenset[int]] = []
        tree_edges: list[tuple[int, int]] = []
        for local, idx in parts:
            td: TreeDecomposition = local.witness
            offset = len(bags)
            if offset:
                tree_edges.append((offset - 1, offset))
            tree_edges.extend((offset + a, offset + b) for a, b in td.tree.edges)
            bags.extend(frozenset(idx[v] for v in bag) for bag in td.bags)
        return ExactSolution(
            max(local.value for local, _ in parts),
            TreeDecomposition(Graph.from_edges(len(bags), tree_edges), tuple(bags)),
        )
    # IVST, longest path and clique: solution objects are connected, so the
    # first best component holds the optimum.
    local, idx = max(parts, key=lambda part: part[0].value)
    return ExactSolution(local.value, _map_witness(kind, local.witness, idx))


def _map_witness(kind: ProblemKind, witness: Any, idx: tuple[int, ...]) -> Any:
    if kind is ProblemKind.LONGEST_PATH:
        return tuple(idx[v] for v in witness)
    if kind is ProblemKind.IVST:
        return frozenset(normalize_edge(idx[u], idx[v]) for u, v in witness)
    return frozenset(idx[v] for v in witness)  # vertex cover and clique


def membership(
    kind: ProblemKind,
    instance: Graph | Digraph | SetCoverInstance,
    k: int,
    *,
    limit: int | None = None,
) -> bool:
    """Whether (instance, k) is a member of the parameterized problem."""
    budget = k if kind is ProblemKind.CONNECTED_VERTEX_COVER else None
    solution = solve_exact(kind, instance, limit=limit, cvc_budget=budget)
    if solution.value is None:
        return False
    if direction_of(kind) is Direction.MIN:
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
    if candidate is None:
        return False
    if kind is ProblemKind.VERTEX_COVER:
        return len(set(candidate)) <= k and is_vertex_cover(instance, candidate)
    if kind is ProblemKind.CONNECTED_VERTEX_COVER:
        return len(set(candidate)) <= k and is_connected_vertex_cover(
            instance, candidate
        )
    if kind is ProblemKind.CLIQUE:
        return len(set(candidate)) >= k and is_clique(instance, candidate)
    if kind is ProblemKind.LONGEST_PATH:
        return len(list(candidate)) >= k + 1 and is_path(instance, candidate)
    if kind is ProblemKind.IVST:
        return is_subtree_with_internal(instance, candidate, k)
    if kind is ProblemKind.SET_COVER:
        return len(list(candidate)) <= k and is_set_cover(instance, candidate)
    if kind is ProblemKind.TREEWIDTH:
        if not isinstance(candidate, TreeDecomposition):
            return False
        return candidate.width <= k and not validate_tree_decomposition(
            instance, candidate
        )
    if kind is ProblemKind.LEAF_OUT_TREE:
        return is_out_tree(instance, candidate, k)
    raise UnsupportedProblem(f"no verifier for {kind}")


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
