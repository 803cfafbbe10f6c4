"""Kernelization toolkit for reoptimization of parameterized graph problems.

Constructive kernels (the crown-lemma 3k vertex cover kernel, the 2k
reoptimization kernel under edge addition, environment-based kernelizers
for compositional problems) together with hardness-gadget constructors,
all cross-checked against built-in brute-force exact oracles.
"""

from .crown import CrownDecomposition, crown_or_matching, validate_crown
from .decomposition import TreeDecomposition, validate_tree_decomposition
from .framework import (
    Compositionality,
    Monotonicity,
    ProblemSpec,
    builtin_spec,
    check_composition,
    compositional_reopt_kernelize,
    environment,
    exact_component_kernelizer,
    ivst_reopt_kernelize_eplus,
)
from .gadgets import (
    SetCoverCvcGadget,
    build_clique_reopt_instance,
    build_extremal,
    build_negative_reopt_instance,
    build_setcover_cvc,
    is_extremal,
    s2_from_cover,
)
from .graphs import (
    Digraph,
    EdgeAdd,
    EdgeDel,
    Graph,
    VertexAdd,
    VertexDel,
    apply_modification,
    components,
    disjoint_union,
    induced_subgraph,
)
from .instances import KernelResult, ReoptInstance, as_concrete_instance
from .matching import (
    Matching,
    alternating_reachability,
    maximum_bipartite_matching,
    rematch_to_expose,
)
from .oracles import (
    ExactSolution,
    membership,
    solve_exact,
    verify_kernel_equivalence,
    verify_solution,
)
from .problems import Direction, ProblemKind
from .setcover import SetCoverInstance
from .vc_kernels import (
    ReoptPartition,
    ReoptVcReport,
    build_reopt_partition,
    crown_reduce_vc,
    reopt_vc_kernelize_2k_report,
    vc_kernelize_3k,
)

__version__ = "0.1.0"

__all__ = [
    "CrownDecomposition",
    "crown_or_matching",
    "validate_crown",
    "TreeDecomposition",
    "validate_tree_decomposition",
    "Compositionality",
    "Monotonicity",
    "ProblemSpec",
    "builtin_spec",
    "check_composition",
    "compositional_reopt_kernelize",
    "environment",
    "exact_component_kernelizer",
    "ivst_reopt_kernelize_eplus",
    "SetCoverCvcGadget",
    "build_clique_reopt_instance",
    "build_extremal",
    "build_negative_reopt_instance",
    "build_setcover_cvc",
    "is_extremal",
    "s2_from_cover",
    "Digraph",
    "EdgeAdd",
    "EdgeDel",
    "Graph",
    "VertexAdd",
    "VertexDel",
    "apply_modification",
    "components",
    "disjoint_union",
    "induced_subgraph",
    "KernelResult",
    "ReoptInstance",
    "as_concrete_instance",
    "Matching",
    "alternating_reachability",
    "maximum_bipartite_matching",
    "rematch_to_expose",
    "ExactSolution",
    "membership",
    "solve_exact",
    "verify_kernel_equivalence",
    "verify_solution",
    "Direction",
    "ProblemKind",
    "SetCoverInstance",
    "ReoptPartition",
    "ReoptVcReport",
    "build_reopt_partition",
    "crown_reduce_vc",
    "reopt_vc_kernelize_2k_report",
    "vc_kernelize_3k",
]
