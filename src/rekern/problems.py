"""The problem table: one row per problem kind, holding every fact on
which the modules treat problems differently."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class _IdentityEnum(Enum):
    # Enum members are equal only to themselves, so identity hashing agrees
    # with equality and skips ``Enum.__hash__``, a Python-level call on
    # every oracle cache key and problem-table or dispatch-table lookup.
    __hash__ = object.__hash__


class Direction(_IdentityEnum):
    MIN = "min"  # cost <= k
    MAX = "max"  # cost >= k


class Monotonicity(_IdentityEnum):
    MONOTONE = "monotone"  # closed under removal of edges and vertices
    COMONOTONE = "comonotone"  # closed under addition
    NEITHER = "neither"


class Compositionality(_IdentityEnum):
    OR = "or"
    AND = "and"
    NEITHER = "neither"


class WitnessShape(_IdentityEnum):
    VERTEX_SET = "vertex_set"
    VERTEX_SEQUENCE = "vertex_sequence"  # a path, or set cover's chosen indices
    PAIR_SET = "pair_set"  # edges of a subtree, or arcs of an out-tree
    TREE_DECOMPOSITION = "tree_decomposition"


class ProblemKind(_IdentityEnum):
    VERTEX_COVER = "vertex_cover"
    CONNECTED_VERTEX_COVER = "connected_vertex_cover"
    IVST = "ivst"
    LONGEST_PATH = "longest_path"
    CLIQUE = "clique"
    SET_COVER = "set_cover"
    TREEWIDTH = "treewidth"
    LEAF_OUT_TREE = "leaf_out_tree"


@dataclass(frozen=True)
class ProblemRow:
    """``payload`` names the instance document field; ``size_guard`` bounds
    the exact oracle per component (the family size for set cover);
    ``NEITHER`` declares no compositional spec."""

    direction: Direction
    payload: str
    witness: WitnessShape
    size_guard: int
    monotonicity: Monotonicity = Monotonicity.NEITHER
    compositionality: Compositionality = Compositionality.NEITHER


_MIN, _MAX = Direction.MIN, Direction.MAX
_MONOTONE, _COMONOTONE = Monotonicity.MONOTONE, Monotonicity.COMONOTONE
_OR, _AND = Compositionality.OR, Compositionality.AND
_SET, _SEQUENCE = WitnessShape.VERTEX_SET, WitnessShape.VERTEX_SEQUENCE
_PAIRS, _DECOMPOSITION = WitnessShape.PAIR_SET, WitnessShape.TREE_DECOMPOSITION

PROBLEMS: dict[ProblemKind, ProblemRow] = {
    ProblemKind.VERTEX_COVER: ProblemRow(_MIN, "graph", _SET, 20),
    ProblemKind.CONNECTED_VERTEX_COVER: ProblemRow(_MIN, "graph", _SET, 30),
    ProblemKind.IVST: ProblemRow(_MAX, "graph", _PAIRS, 10, _COMONOTONE, _OR),
    ProblemKind.LONGEST_PATH: ProblemRow(_MAX, "graph", _SEQUENCE, 16, _MONOTONE, _OR),
    ProblemKind.CLIQUE: ProblemRow(_MAX, "graph", _SET, 20, _COMONOTONE, _OR),
    ProblemKind.SET_COVER: ProblemRow(_MIN, "set_cover", _SEQUENCE, 20),
    ProblemKind.TREEWIDTH: ProblemRow(_MIN, "graph", _DECOMPOSITION, 10, _MONOTONE, _AND),
    ProblemKind.LEAF_OUT_TREE: ProblemRow(_MAX, "digraph", _PAIRS, 8),
}
