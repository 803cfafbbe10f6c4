"""Reoptimization instances and kernelization results.

A decided result holds nothing but its answer, so ``KernelResult.decided``
hands out one of two shared values, one for yes and one for no.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import PreconditionViolated
from .graphs import Graph, LocalModification, apply_modification, check_modification
from .problems import PROBLEMS, Direction, ProblemKind


@dataclass(frozen=True)
class ReoptInstance:
    """An original instance, its solution (or ``None`` for the no-witness
    marker), and a locally modified instance.

    The witness shape is problem specific: a vertex set for cover and
    clique problems, an edge set for subtree problems, a vertex sequence
    for paths.  Witness validity is checked by the problem verifiers in
    the oracles module, not at construction.
    """

    problem: ProblemKind
    original: Graph
    k: int
    witness: Any | None
    modification: LocalModification
    k_modified: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.k_modified < 0:
            raise PreconditionViolated("parameters must be natural numbers")
        if self.direction is Direction.MIN and self.k_modified > self.k:
            raise PreconditionViolated(
                f"minimization requires k' <= k, got k'={self.k_modified} > k={self.k}"
            )
        if self.direction is Direction.MAX and self.k_modified < self.k:
            raise PreconditionViolated(
                f"maximization requires k' >= k, got k'={self.k_modified} < k={self.k}"
            )
        check_modification(self.original, self.modification)

    @property
    def direction(self) -> Direction:
        return PROBLEMS[self.problem].direction

    @property
    def modified(self) -> Graph:
        return apply_modification(self.original, self.modification)


@dataclass(frozen=True, slots=True)
class KernelResult:
    """Either a decided yes/no answer or a reduced (graph, parameter) pair.

    ``size_bound_claim`` is the bound the producing kernelizer promises for
    the reduced graph's vertex count.
    """

    kind: str  # "decided" | "reduced"
    answer: bool | None = None
    graph: Graph | None = None
    parameter: int | None = None
    size_bound_claim: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "decided":
            if self.answer is None or self.graph is not None:
                raise ValueError("decided results carry only a boolean")
        elif self.kind == "reduced":
            if self.graph is None or self.parameter is None:
                raise ValueError("reduced results carry a graph and a parameter")
            if (
                self.size_bound_claim is not None
                and self.graph.n > self.size_bound_claim
            ):
                raise ValueError(
                    f"reduced graph has {self.graph.n} vertices, above the "
                    f"claimed bound {self.size_bound_claim}"
                )
        else:
            raise ValueError(f"unknown kernel result kind {self.kind!r}")

    @classmethod
    def decided(cls, answer: bool) -> "KernelResult":
        """A yes or no answer; a ``bool`` gets one of two shared values."""
        if isinstance(answer, bool):
            return _DECIDED[answer]
        return cls(kind="decided", answer=answer)

    @classmethod
    def reduced(
        cls, graph: Graph, parameter: int, size_bound_claim: int | None = None
    ) -> "KernelResult":
        return cls(
            kind="reduced",
            graph=graph,
            parameter=parameter,
            size_bound_claim=size_bound_claim,
        )

    @property
    def is_decided(self) -> bool:
        return self.kind == "decided"

    @property
    def is_reduced(self) -> bool:
        return self.kind == "reduced"


_DECIDED = {
    answer: KernelResult(kind="decided", answer=answer) for answer in (False, True)
}

_YES_INSTANCE = Graph.from_edges(2, [(0, 1)])


def as_concrete_instance(result: KernelResult) -> tuple[Graph, int]:
    """Materialize a result as an (instance, parameter) pair.

    Decided answers become the canonical one-edge graph with parameter 1
    (yes) or 0 (no); useful when a downstream consumer needs an instance.
    """
    if result.is_reduced:
        assert result.graph is not None and result.parameter is not None
        return result.graph, result.parameter
    return _YES_INSTANCE, 1 if result.answer else 0
