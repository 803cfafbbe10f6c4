"""Exact answers computed without rekern, to check the kernels and oracles.

Two families of solvers live here:

* ``cover_number`` for the large graphs of the vertex cover workloads.
  Those graphs are bipartite between a cover side and the rest, apart
  from at most a few edges inside one side (the added edge).  Branching
  on an endpoint of each such edge leaves a bipartite graph, whose vertex
  cover number equals its maximum matching (Koenig's theorem), computed
  with networkx's Hopcroft-Karp matching.
* Plain brute force for graphs of at most eight vertices: vertex cover,
  longest path, internal vertex subtree and treewidth.

A graph is a vertex count ``n`` and a collection of edges ``(u, v)``.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

# More edges inside one side than this means the graph is not one of the
# bipartite-plus-one-edge graphs the workloads generate; branching on
# them would grow exponentially, so the caller is told instead.
MAX_BRANCH_EDGES = 3


class NotNearlyBipartite(ValueError):
    """The side labelling leaves too many edges inside one side."""


def konig_cover_number(edges, side_a) -> int:
    """Vertex cover number of a bipartite graph: its maximum matching."""
    g = nx.Graph()
    g.add_edges_from(edges)
    top = [v for v in g if v in side_a]
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)
    return len(matching) // 2


def cover_number(edges, side_a) -> int:
    """Vertex cover number of a graph whose edges all join ``side_a`` to
    the other vertices, except at most ``MAX_BRANCH_EDGES`` of them."""
    edges = list(edges)
    inside = [(u, v) for u, v in edges if (u in side_a) == (v in side_a)]
    if len(inside) > MAX_BRANCH_EDGES:
        raise NotNearlyBipartite(f"{len(inside)} edges inside one side")
    return _branch(edges, inside, side_a)


def _branch(edges, inside, side_a) -> int:
    if not inside:
        return konig_cover_number(edges, side_a)
    u, v = inside[0]
    best = None
    for pick in (u, v):
        rest_edges = [e for e in edges if pick not in e]
        rest_inside = [e for e in inside[1:] if pick not in e]
        value = 1 + _branch(rest_edges, rest_inside, side_a)
        best = value if best is None else min(best, value)
    return best


# --- brute force on tiny graphs ---------------------------------------------


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(n: int, edges) -> list[list[int]]:
    adj = adjacency(n, edges)
    seen: set[int] = set()
    result = []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x] - seen:
                seen.add(y)
                stack.append(y)
        result.append(sorted(comp))
    return result


def minimum_covers(n: int, edges) -> list[tuple[int, ...]]:
    """Every minimum vertex cover, as sorted tuples in lexicographic order."""
    for size in range(n + 1):
        found = [
            subset
            for subset in combinations(range(n), size)
            if all(u in subset or v in subset for u, v in edges)
        ]
        if found:
            return found
    raise AssertionError("the full vertex set is always a cover")


def brute_cover_number(n: int, edges) -> int:
    edge_masks = [(1 << u) | (1 << v) for u, v in edges]
    best = n
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size < best and all(mask & e for e in edge_masks):
            best = size
    return best


def longest_path_edges(n: int, edges) -> int:
    """Edges on a longest simple path, by depth-first enumeration."""
    adj = adjacency(n, edges)
    best = 0

    def extend(v: int, visited: set[int], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                extend(w, visited, length + 1)
                visited.remove(w)

    for start in range(n):
        extend(start, {start}, 0)
    return best


def _hamiltonian_path(vertices: list[int], adj: list[set[int]]) -> list[int] | None:
    target = len(vertices)

    def extend(path: list[int], visited: set[int]) -> list[int] | None:
        if len(path) == target:
            return list(path)
        for w in sorted(adj[path[-1]] - visited):
            visited.add(w)
            path.append(w)
            found = extend(path, visited)
            if found:
                return found
            path.pop()
            visited.remove(w)
        return None

    for start in vertices:
        found = extend([start], {start})
        if found:
            return found
    return None


def _spanning_tree_edges(vertices: list[int], edges) -> list[tuple]:
    """All spanning trees of a connected vertex set, as edge tuples."""
    local = [e for e in edges if e[0] in vertices and e[1] in vertices]
    trees = []
    for chosen in combinations(local, len(vertices) - 1):
        root = {v: v for v in vertices}

        def find(x: int) -> int:
            while root[x] != x:
                x = root[x]
            return x

        acyclic = True
        for u, v in chosen:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            root[ru] = rv
        if acyclic:
            trees.append(chosen)
    return trees


def max_internal_subtree(n: int, edges) -> tuple[int, frozenset[tuple[int, int]]]:
    """Most internal vertices (degree at least two) of any subtree, with
    the edges of one such subtree.

    Growing a subtree by a pendant edge never loses an internal vertex,
    so some spanning tree of a component is optimal.  A Hamiltonian path
    is optimal when one exists (every tree has two leaves); otherwise all
    spanning trees of the component are tried.
    """
    edges = [tuple(sorted(e)) for e in edges]
    adj = adjacency(n, edges)
    best, best_tree = 0, frozenset()
    for comp in components(n, edges):
        if len(comp) < 3:
            continue
        path = _hamiltonian_path(comp, adj)
        if path is not None:
            value = len(comp) - 2
            tree = frozenset(tuple(sorted(p)) for p in zip(path, path[1:]))
        else:
            value, tree = -1, frozenset()
            for candidate in _spanning_tree_edges(comp, edges):
                degree: dict[int, int] = {}
                for u, v in candidate:
                    degree[u] = degree.get(u, 0) + 1
                    degree[v] = degree.get(v, 0) + 1
                internal = sum(1 for d in degree.values() if d >= 2)
                if internal > value:
                    value, tree = internal, frozenset(candidate)
        if value > best:
            best, best_tree = value, tree
    return best, best_tree


def treewidth(n: int, edges) -> tuple[int, list[int]]:
    """Treewidth and an optimal elimination order.

    Dynamic programming over the set ``S`` of vertices eliminated first,
    as bitmasks: eliminating ``v`` after ``S`` costs the number of
    vertices outside ``S + v`` reachable from ``v`` through ``S``, the
    degree of ``v`` in the filled graph at that moment.
    """
    if n == 0:
        return -1, []
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def fill_degree(done: int, v: int) -> int:
        reached = expand = 1 << v
        while expand:
            low = expand & -expand
            expand ^= low
            grown = adj[low.bit_length() - 1] & ~reached
            reached |= grown
            expand |= grown & done
        return bin(reached & ~done).count("1") - 1

    # Removing a vertex from a set gives a smaller number, so increasing
    # order computes every subset before its supersets.
    width = [(-1, -1)] * (1 << n)
    for s in range(1, 1 << n):
        width[s] = min(
            (max(width[s ^ (1 << v)][0], fill_degree(s ^ (1 << v), v)), v)
            for v in range(n)
            if s >> v & 1
        )
    order = []
    s = (1 << n) - 1
    while s:
        last = width[s][1]
        order.append(last)
        s ^= 1 << last
    order.reverse()
    return width[(1 << n) - 1][0], order


def decomposition_from_order(
    n: int, edges, order: list[int]
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """Bags and tree edges of the decomposition an elimination order gives.

    Bag ``i`` holds the ``i``-th eliminated vertex and its neighbours that
    are eliminated later, in the graph filled so far; it hangs below the
    bag of the earliest of those neighbours, or the next bag if it has none.
    """
    adj = adjacency(n, edges)
    position = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    tree: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        later = {w for w in adj[v] if position[w] > i}
        bags.append(frozenset(later | {v}))
        for a, b in combinations(sorted(later), 2):
            adj[a].add(b)
            adj[b].add(a)
        if i + 1 < len(order):
            parent = min((position[w] for w in later), default=i + 1)
            tree.append((i, parent))
    return bags, tree
