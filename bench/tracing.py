"""Spans around the public functions of each rekern layer, installed from
the benchmark's own code.

Most rekern modules import their callees by name (``from .matching import
maximum_bipartite_matching``), so a wrapper set on the defining module
alone would miss those calls.  ``Tracer.install`` therefore replaces every
reference to a traced function in every loaded ``rekern`` module, and
``Tracer.uninstall`` puts the originals back.

Spans nest: a span's self time is its duration minus the time of the
spans it encloses.  Totals are kept per pass in memory and turned into
the per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) -> span name, or a function of the call's arguments
# that gives it.
SPANS = {
    ("matching", "maximum_bipartite_matching"): "matching.max_matching",
    ("matching", "alternating_reachability"): "matching.reachability",
    ("matching", "rematch_to_expose"): "matching.rematch",
    ("vc_kernels", "reopt_vc_kernelize_2k_report"): "vc_kernels.reopt2k",
    ("vc_kernels", "vc_kernelize_3k"): "vc_kernels.classic3k",
    ("vc_kernels", "build_reopt_partition"): "vc_kernels.build_partition",
    ("vc_kernels", "_partition_from_matching"): "vc_kernels.partition",
    ("vc_kernels", "crown_reduce_vc"): "vc_kernels.crown_reduce",
    ("crown", "validate_crown"): "crown.validate",
    ("crown", "crown_or_matching"): "crown.crown_or_matching",
    ("graphs", "induced_subgraph"): "graphs.induced_subgraph",
    ("graphs", "apply_modification"): "graphs.apply_modification",
    ("graphs", "components"): "graphs.components",
    ("formats", "parse_instance"): "formats.parse",
    ("formats", "emit_result"): "formats.emit",
    ("oracles", "solve_exact"): lambda args: f"oracles.solve_exact.{args[0].value}",
    ("oracles", "verify_kernel_equivalence"): "oracles.verify_equivalence",
    ("framework", "compositional_reopt_kernelize"): "framework.dispatch",
    ("framework", "environment"): "framework.environment",
}

ORACLE_KINDS = ("vertex_cover", "ivst", "treewidth", "longest_path")
REMATCH_ENTRIES = ("case4", "case5-rematch-v", "case5-rematch-u")

# Per-layer metric -> unit.  Every ``_ms`` is self time per pass; every
# count is per pass.  Lower is better for all of them.
PER_LAYER = {
    "matching.max_matching_ms": "ms",
    "matching.max_matching_calls": "count",
    "matching.reachability_ms": "ms",
    "matching.reachability_calls": "count",
    "matching.rematch_ms": "ms",
    "matching.rematch_calls": "count",
    "matching.rematch_none": "count",
    "vc_kernels.reopt2k_ms": "ms",
    "vc_kernels.classic3k_ms": "ms",
    "vc_kernels.partition_ms": "ms",
    "vc_kernels.partition_calls": "count",
    "vc_kernels.crown_reduce_ms": "ms",
    "vc_kernels.rematch_rounds": "count",
    "vc_kernels.outputs_2k_plus_1": "count",
    "vc_kernels.kernel_vertices_2k": "vertices",
    "vc_kernels.kernel_vertices_3k": "vertices",
    "crown.validate_ms": "ms",
    "crown.validate_calls": "count",
    "crown.crown_or_matching_ms": "ms",
    "crown.crown_or_matching_calls": "count",
    "graphs.induced_subgraph_ms": "ms",
    "graphs.induced_subgraph_calls": "count",
    "graphs.apply_modification_ms": "ms",
    "graphs.components_ms": "ms",
    "formats.parse_ms": "ms",
    "formats.emit_ms": "ms",
    **{f"oracles.solve_exact_ms.{k}": "ms" for k in ORACLE_KINDS},
    **{f"oracles.solve_exact_calls.{k}": "count" for k in ORACLE_KINDS},
    **{f"oracles.distinct_inputs.{k}": "count" for k in ORACLE_KINDS},
    "oracles.verify_equivalence_ms": "ms",
    "framework.dispatch_ms": "ms",
    "framework.environment_ms": "ms",
    "framework.env_vertices": "vertices",
}

_VC_KERNEL_LAYERS = (
    "matching.max_matching_ms",
    "matching.max_matching_calls",
    "matching.reachability_ms",
    "matching.reachability_calls",
    "matching.rematch_ms",
    "matching.rematch_calls",
    "matching.rematch_none",
    "vc_kernels.reopt2k_ms",
    "vc_kernels.partition_ms",
    "vc_kernels.partition_calls",
    "vc_kernels.crown_reduce_ms",
    "vc_kernels.kernel_vertices_2k",
    "crown.validate_ms",
    "crown.validate_calls",
    "graphs.induced_subgraph_ms",
    "graphs.induced_subgraph_calls",
    "graphs.apply_modification_ms",
)
_CLASSIC_LAYERS = (
    "vc_kernels.classic3k_ms",
    "vc_kernels.kernel_vertices_3k",
    "crown.crown_or_matching_ms",
    "crown.crown_or_matching_calls",
)
_DISPATCH_KINDS = ("ivst", "treewidth", "longest_path")

# The per-layer metrics each workload is built to exercise: every one of
# them is above 0 on every pass of that workload.
EXERCISED_ON = {
    "reopt2k-large": _VC_KERNEL_LAYERS
    + _CLASSIC_LAYERS
    + ("formats.parse_ms", "formats.emit_ms"),
    "augmenting-chain": _VC_KERNEL_LAYERS
    + ("vc_kernels.rematch_rounds", "vc_kernels.outputs_2k_plus_1"),
    "atlas-sweep": _VC_KERNEL_LAYERS
    + _CLASSIC_LAYERS
    + (
        "vc_kernels.rematch_rounds",
        "vc_kernels.outputs_2k_plus_1",
        "graphs.components_ms",
        "oracles.solve_exact_ms.vertex_cover",
        "oracles.solve_exact_calls.vertex_cover",
        "oracles.distinct_inputs.vertex_cover",
        "oracles.verify_equivalence_ms",
    ),
    "oracle-dispatch": (
        "graphs.induced_subgraph_ms",
        "graphs.induced_subgraph_calls",
        "graphs.apply_modification_ms",
        "graphs.components_ms",
        "framework.dispatch_ms",
        "framework.environment_ms",
        "framework.env_vertices",
    )
    + tuple(f"oracles.solve_exact_ms.{k}" for k in _DISPATCH_KINDS)
    + tuple(f"oracles.solve_exact_calls.{k}" for k in _DISPATCH_KINDS)
    + tuple(f"oracles.distinct_inputs.{k}" for k in _DISPATCH_KINDS),
}


def _kernel_size(result) -> int:
    """Vertices of a kernel; a decided answer counts as the 2-vertex
    instance ``instances.as_concrete_instance`` makes of it."""
    return result.graph.n if result.is_reduced else 2


class Tracer:
    """Records spans and counters for the traced functions of rekern."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {k: set() for k in ORACLE_KINDS}
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _wrap(self, span, fn, observe):
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args) if callable(span) else span
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_2k(self, args, report) -> None:
        inst = args[0]
        result = report.result
        self.counts["rematch_rounds"] += sum(
            1 for entry in report.trace if entry in REMATCH_ENTRIES
        )
        self.counts["kernel_vertices_2k"] += _kernel_size(result)
        if result.is_reduced and result.graph.n == 2 * inst.k + 1:
            self.counts["outputs_2k_plus_1"] += 1

    def _observe_3k(self, args, result) -> None:
        self.counts["kernel_vertices_3k"] += _kernel_size(result)

    def _observe_rematch(self, args, result) -> None:
        if result is None:
            self.counts["rematch_none"] += 1

    def _observe_oracle(self, args, result) -> None:
        kind, instance = args[0].value, args[1]
        if kind in self.distinct:
            self.distinct[kind].add((instance.n, instance.edges))

    def _observe_environment(self, args, envs) -> None:
        self.counts["env_vertices"] += sum(comp.n for comp, _ in envs)

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a rekern module refers to it."""
        observers = {
            "reopt_vc_kernelize_2k_report": self._observe_2k,
            "vc_kernelize_3k": self._observe_3k,
            "rematch_to_expose": self._observe_rematch,
            "solve_exact": self._observe_oracle,
            "environment": self._observe_environment,
        }
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "rekern" or name.startswith("rekern.")
        }
        for (module_name, fn_name), span in SPANS.items():
            original = getattr(modules[f"rekern.{module_name}"], fn_name)
            wrapper = self._wrap(span, original, observers.get(fn_name))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- per-pass figures -------------------------------------------------

    def take_pass(self) -> dict[str, float]:
        """The per-layer metrics of the pass just run; resets the totals."""
        ms = Counter({name: 1000.0 * s for name, s in self.self_s.items()})
        calls, counts = self.calls, self.counts
        figures = {
            "matching.max_matching_ms": ms["matching.max_matching"],
            "matching.max_matching_calls": calls["matching.max_matching"],
            "matching.reachability_ms": ms["matching.reachability"],
            "matching.reachability_calls": calls["matching.reachability"],
            "matching.rematch_ms": ms["matching.rematch"],
            "matching.rematch_calls": calls["matching.rematch"],
            "matching.rematch_none": counts["rematch_none"],
            "vc_kernels.reopt2k_ms": ms["vc_kernels.reopt2k"],
            "vc_kernels.classic3k_ms": ms["vc_kernels.classic3k"],
            "vc_kernels.partition_ms": ms["vc_kernels.build_partition"]
            + ms["vc_kernels.partition"],
            "vc_kernels.partition_calls": calls["vc_kernels.partition"],
            "vc_kernels.crown_reduce_ms": ms["vc_kernels.crown_reduce"],
            "vc_kernels.rematch_rounds": counts["rematch_rounds"],
            "vc_kernels.outputs_2k_plus_1": counts["outputs_2k_plus_1"],
            "vc_kernels.kernel_vertices_2k": counts["kernel_vertices_2k"],
            "vc_kernels.kernel_vertices_3k": counts["kernel_vertices_3k"],
            "crown.validate_ms": ms["crown.validate"],
            "crown.validate_calls": calls["crown.validate"],
            "crown.crown_or_matching_ms": ms["crown.crown_or_matching"],
            "crown.crown_or_matching_calls": calls["crown.crown_or_matching"],
            "graphs.induced_subgraph_ms": ms["graphs.induced_subgraph"],
            "graphs.induced_subgraph_calls": calls["graphs.induced_subgraph"],
            "graphs.apply_modification_ms": ms["graphs.apply_modification"],
            "graphs.components_ms": ms["graphs.components"],
            "formats.parse_ms": ms["formats.parse"],
            "formats.emit_ms": ms["formats.emit"],
            "oracles.verify_equivalence_ms": ms["oracles.verify_equivalence"],
            "framework.dispatch_ms": ms["framework.dispatch"],
            "framework.environment_ms": ms["framework.environment"],
            "framework.env_vertices": counts["env_vertices"],
        }
        for kind in ORACLE_KINDS:
            span = f"oracles.solve_exact.{kind}"
            figures[f"oracles.solve_exact_ms.{kind}"] = ms[span]
            figures[f"oracles.solve_exact_calls.{kind}"] = calls[span]
            figures[f"oracles.distinct_inputs.{kind}"] = len(self.distinct[kind])
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        for seen in self.distinct.values():
            seen.clear()
        return figures
