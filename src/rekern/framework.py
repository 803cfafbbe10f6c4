"""Environment-based reoptimization kernelizers for compositional problems.

For an OR-compositional problem, membership of a disjoint union is the
disjunction over components; for AND-compositional, the conjunction.
When a local modification respects the problem's closure direction
(monotone problems tolerate deletions, comonotone ones additions), the
given witness either survives outright or the question localizes to the
components touched by the modification, where a pluggable component
kernelizer takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from .errors import DegreeTooHigh, SpecModificationMismatch, UnsupportedCombination
from .graphs import (
    EdgeAdd,
    EdgeDel,
    Graph,
    LocalModification,
    VertexAdd,
    VertexDel,
    apply_modification,
    components,
    disjoint_union,
    induced_subgraph,
)
from .instances import KernelResult, ReoptInstance, as_concrete_instance
from .oracles import membership, verify_solution
from .problems import PROBLEMS, Compositionality, Direction, Monotonicity, ProblemKind


@dataclass(frozen=True)
class ProblemSpec:
    """Declared properties of a parameterized graph problem, plus hooks
    for its verifier and a desk-scale exact membership oracle."""

    name: str
    kind: ProblemKind
    direction: Direction
    monotonicity: Monotonicity
    compositionality: Compositionality
    verifier: Callable[[Graph, int, object], bool]
    oracle: Callable[[Graph, int], bool]


@lru_cache(maxsize=None)
def builtin_spec(kind: ProblemKind) -> ProblemSpec:
    """The shared spec of a compositional problem the toolkit ships, built
    from its row in the problem table.

    Longest path is registered under the deletion (monotone) dispatch
    rule; its yes shortcut is taken only when the witness path names
    neither the deleted vertex nor both ends of the deleted edge.
    """
    row = PROBLEMS[kind]
    if row.compositionality is Compositionality.NEITHER:
        raise UnsupportedCombination(f"no compositional spec for {kind}")
    return ProblemSpec(
        name=kind.value,
        kind=kind,
        direction=row.direction,
        monotonicity=row.monotonicity,
        compositionality=row.compositionality,
        verifier=lambda g, k, cand: verify_solution(kind, g, cand, k),
        oracle=lambda g, k: membership(kind, g, k),
    )


@dataclass(frozen=True)
class ComponentKernelizer:
    """A kernelizer applied to one connected component at a time."""

    name: str
    run: Callable[[Graph, int], KernelResult]


def exact_component_kernelizer(kind: ProblemKind) -> ComponentKernelizer:
    """Desk-scale component kernelizer backed by the exact oracle.

    Not polynomial time in general; this seam is where an external
    per-component kernel (e.g. a 2k connected-instance kernel) would
    attach in a production deployment.
    """
    return ComponentKernelizer(
        name=f"exact-{kind.value}",
        run=lambda comp, k: KernelResult.decided(membership(kind, comp, k)),
    )


def environment(
    g_before: Graph, m: LocalModification
) -> list[tuple[Graph, tuple[int, ...]]]:
    """Components of the modified graph that hold a touched vertex, ordered
    by smallest vertex: the new edge's ends or new vertex of an addition,
    the ends of a deleted edge, or the neighbours of a deleted vertex.  One
    ``components`` split of the modified graph serves every modification."""
    g_after = apply_modification(g_before, m)
    if isinstance(m, (EdgeAdd, EdgeDel)):
        touched = {m.u, m.v}
    elif isinstance(m, VertexAdd):
        touched = {g_before.n}
    else:  # VertexDel: indices above the deleted vertex shift down by one
        touched = {w if w < m.v else w - 1 for w in g_before.adjacency[m.v]}
    parts = components(g_after)
    return [induced_subgraph(g_after, c) for c in parts if not touched.isdisjoint(c)]


_SUPPORTED = {
    (Compositionality.OR, Monotonicity.MONOTONE): (EdgeDel, VertexDel),
    (Compositionality.OR, Monotonicity.COMONOTONE): (EdgeAdd, VertexAdd),
    (Compositionality.AND, Monotonicity.MONOTONE): (EdgeAdd, VertexAdd),
    (Compositionality.AND, Monotonicity.COMONOTONE): (EdgeDel, VertexDel),
}


def _combine(results: list[KernelResult], or_mode: bool) -> KernelResult:
    """Fold per-component kernels into one result.

    Decided answers short-circuit; surviving reduced kernels are unioned,
    which preserves membership exactly because the problem composes over
    disjoint unions.
    """
    reduced: list[KernelResult] = []
    for r in results:
        if r.is_decided:
            if or_mode and r.answer:
                return KernelResult.decided(True)
            if not or_mode and not r.answer:
                return KernelResult.decided(False)
        else:
            reduced.append(r)
    if not reduced:
        return KernelResult.decided(not or_mode)
    if len(reduced) == 1:
        return reduced[0]
    params = {r.parameter for r in reduced}
    if len(params) != 1:
        raise UnsupportedCombination(
            "cannot union component kernels with different parameters"
        )
    graph = reduced[0].graph
    claim = reduced[0].size_bound_claim or reduced[0].graph.n
    for r in reduced[1:]:
        graph = disjoint_union(graph, r.graph)
        claim += r.size_bound_claim or r.graph.n
    return KernelResult.reduced(graph, reduced[0].parameter, size_bound_claim=claim)


def compositional_reopt_kernelize(
    inst: ReoptInstance,
    spec: ProblemSpec,
    ck: ComponentKernelizer,
    *,
    max_env_components: int = 8,
) -> KernelResult:
    """Dispatch a reoptimization instance per the four compositional rules.

    At k' = k the witness branch applies the closure theorem without
    inspecting the graph; otherwise the component kernelizer runs on the
    environment of the modification, or on every component of the modified
    graph when the witness settles nothing (k' != k, or a deletion that
    touches it).
    """
    key = (spec.compositionality, spec.monotonicity)
    if key not in _SUPPORTED:
        raise SpecModificationMismatch(
            f"{spec.name} is not compositional-with-closure; nothing to dispatch"
        )
    if not isinstance(inst.modification, _SUPPORTED[key]):
        raise SpecModificationMismatch(
            f"{spec.name} ({key[0].value}, {key[1].value}) does not support "
            f"{type(inst.modification).__name__}"
        )
    parts = None
    if isinstance(inst.modification, VertexDel):
        parts = environment(inst.original, inst.modification)
        if len(parts) > max_env_components:
            raise DegreeTooHigh(
                f"vertex deletion split into {len(parts)} components, "
                f"bound is {max_env_components}"
            )
    or_mode = spec.compositionality is Compositionality.OR

    # Without a witness the original is a no at k, and so at any allowed k':
    # on every untouched component (OR), or outright, since the modification
    # cannot create solutions (AND).  A witness settles only k' = k.
    if inst.witness is None:
        if not or_mode:
            return KernelResult.decided(False)
    elif inst.k_modified != inst.k or (
        or_mode and not _avoids(inst.witness, inst.modification)
    ):
        modified = inst.modified
        if not modified.n:  # no component to combine: ask about the empty graph
            return KernelResult.decided(spec.oracle(modified, inst.k_modified))
        parts = [induced_subgraph(modified, c) for c in components(modified)]
    elif or_mode:
        return KernelResult.decided(True)
    if parts is None:
        parts = environment(inst.original, inst.modification)
    results = [ck.run(comp, inst.k_modified) for comp, _ in parts]
    return _combine(results, or_mode)


def _avoids(witness: Any, m: LocalModification) -> bool:
    """Whether no vertex the witness names (in a vertex set, a path or an
    edge set) is deleted, and not both ends of a deleted edge."""
    if not isinstance(m, (EdgeDel, VertexDel)):
        return True
    named = {
        x for item in witness for x in (item if isinstance(item, tuple) else (item,))
    }
    if isinstance(m, VertexDel):
        return m.v not in named
    return not (m.u in named and m.v in named)


def ivst_reopt_kernelize_eplus(
    inst: ReoptInstance,
    ck: ComponentKernelizer,
    *,
    prior_kernel: Graph | None = None,
) -> KernelResult:
    """Edge-addition reoptimization kernel for the internal-vertex-subtree
    problem.

    With a witness subtree and k' = k the answer is yes outright (subtrees
    survive edge additions).  Without one, only the component containing
    the new edge can host a solution, so the component kernelizer settles
    it.  When ``prior_kernel`` carries a kernel of the original instance
    instead of a solution, the union of both kernels is returned.
    """
    if inst.problem is not ProblemKind.IVST or not isinstance(
        inst.modification, EdgeAdd
    ):
        raise SpecModificationMismatch("expected an IVST instance under edge addition")
    if prior_kernel is not None:
        [(comp, _)] = environment(inst.original, inst.modification)
        env_kernel, _ = as_concrete_instance(ck.run(comp, inst.k_modified))
        union = disjoint_union(prior_kernel, env_kernel)
        return KernelResult.reduced(union, inst.k_modified, size_bound_claim=union.n)
    return compositional_reopt_kernelize(inst, builtin_spec(ProblemKind.IVST), ck)


@dataclass(frozen=True)
class CompositionReport:
    holds: bool
    counterexample: tuple[Graph, Graph, int] | None = None


def check_composition(
    spec: ProblemSpec, mode: Compositionality, size_bound: int
) -> CompositionReport:
    """Exhaustively test the compositionality biconditional over all small
    graph pairs, using the exact oracle; returns the first counterexample."""
    from .smallgraphs import nonisomorphic_graphs

    if mode is Compositionality.NEITHER:
        raise UnsupportedCombination("mode must be OR or AND")
    or_mode = mode is Compositionality.OR
    pool = [g for n in range(1, size_bound + 1) for g in nonisomorphic_graphs(n)]
    for k in range(0, size_bound + 1):
        members = [spec.oracle(g, k) for g in pool]
        for g1, in1 in zip(pool, members):
            for g2, in2 in zip(pool, members):
                union_in = spec.oracle(disjoint_union(g1, g2), k)
                expected = (in1 or in2) if or_mode else (in1 and in2)
                if union_in != expected:
                    return CompositionReport(False, (g1, g2, k))
    return CompositionReport(True, None)
