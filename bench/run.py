"""Benchmark of the rekern vertex cover kernels and exact oracles.

Run from the root of a checkout:

    python3 bench/run.py --workload reopt2k-large --seed 1 --seconds 16 --trace 0

The run builds the workload's cases from the seed three times (the median
build time plus the import time is ``setup_s``), then runs whole passes
over the cases until ``--seconds`` of passes have been timed.  Every
output of the first pass is checked against answers computed without
rekern; every later output must equal the first pass's.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of ``tracing.Tracer`` with ``--trace 1``.  The
same object, with per-pass detail, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "kernel_vertices": "vertices",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Failure:
    """An operation that raised instead of returning."""

    error: str


def _check(workload, case, output) -> list[str]:
    """The problems with one output; an output the check cannot read is
    wrong too."""
    try:
        return workload.check(case, output)
    except Exception as exc:  # malformed output
        return [f"unreadable output: {type(exc).__name__}: {exc}"[:200]]


def measure(workload, cases, seconds: float, tracer=None) -> dict:
    """Time whole passes over ``cases`` until ``seconds`` have been timed."""
    first: list | None = None
    first_failed: list[bool] = []
    problems: set[str] = set()
    op_s: list[float] = []
    pass_s: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    wrong = False
    clock = time.perf_counter
    while not pass_s or sum(pass_s) < seconds:
        gc.collect()
        outputs = []
        start = clock()
        for case in cases:
            t0 = clock()
            try:
                out = workload.run(case)
            except Exception as exc:  # a crash is a failed operation
                out = Failure(f"{type(exc).__name__}: {exc}"[:200])
            op_s.append(clock() - t0)
            outputs.append(out)
        pass_s.append(clock() - start)
        if tracer is not None:
            layers.append(tracer.take_pass())
        if first is None:
            first = outputs
            for case, out in zip(cases, outputs):
                if isinstance(out, Failure):
                    found = [out.error]
                else:
                    found = _check(workload, case, out)
                    wrong = wrong or bool(found)
                problems.update(found)
                first_failed.append(bool(found))
            failed += sum(first_failed)
        else:
            for out, ref, was_failed in zip(outputs, first, first_failed):
                if out != ref:
                    wrong = True
                    problems.add("an output differs from the first pass")
                failed += was_failed or out != ref
        attempted += len(cases)
    kernel_vertices = sum(
        workload.kernel_vertices(out)
        for out, was_failed in zip(first, first_failed)
        if not was_failed
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "problems": sorted(problems)[:20],
        "ops_per_pass": len(cases),
        "pass_s": pass_s,
        "op_ms_p50": 1000.0 * statistics.median(op_s),
        "ops_per_s": len(cases) / statistics.median(pass_s),
        "kernel_vertices": kernel_vertices,
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rekern

    if not Path(rekern.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rekern came from {rekern.__file__}, not {ROOT / 'src'}")
    import tracing
    import workloads

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]

    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = workload.build(args.seed)
        build_s.append(time.perf_counter() - t0)
        gc.collect()
    setup_s = import_s + statistics.median(build_s)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        run = measure(workload, cases, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        values = {**run, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        values = {
            name: statistics.median(p[name] for p in run["layers"])
            for name in tracing.PER_LAYER
        }
        units = tracing.PER_LAYER
    metrics = {name: {"value": values[name], "unit": u} for name, u in units.items()}
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "build_s": build_s,
        "import_s": import_s,
        # With tracing on, these give the tracing overhead.
        "ops_per_s": run["ops_per_s"],
        "op_ms_p50": run["op_ms_p50"],
        **{k: run[k] for k in ("problems", "ops_per_pass", "pass_s")},
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
