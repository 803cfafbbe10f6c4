"""Fast checks of the benchmark itself, at a tiny size.

Run from the root of a checkout:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import reference  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def tiny_cases(name: str):
    return workloads.WORKLOADS[name].build(SEED, tiny=True)


# --- the generators plant what they claim -------------------------------------


def test_planted_cover_graph_plants_a_cover_of_size_k():
    rng = random.Random(SEED)
    n, edges, side_a, block_of_b, twins = workloads.planted_cover_graph(rng, 1)
    a_set = set(side_a)
    assert len(side_a) == len(workloads.GROUP) * workloads.BLOCK_A
    assert all((u in a_set) != (v in a_set) for u, v in edges)
    assert set(range(n)) == a_set | set(block_of_b) | {v for t in twins for v in t}
    for left, right in twins:
        (owner_l,) = [u for u, v in edges if v == left]
        (owner_r,) = [u for u, v in edges if v == right]
        assert owner_l == owner_r
        assert sorted(v for u, v in edges if u == owner_l) == [left, right]


def test_reopt_documents_carry_the_planted_cover_and_an_edge_inside_b():
    for case in tiny_cases("reopt2k-large"):
        reopt, classic = (json.loads(text) for text in case.data)
        edges = {tuple(e) for e in reopt["graph"]["edges"]}
        cover = set(reopt["witness"])
        assert reopt["k"] == len(cover) == case.expect["k"]
        assert all(u in cover or v in cover for u, v in edges)
        mod = reopt["modification"]
        u, v = sorted((mod["u"], mod["v"]))
        assert u not in cover and v not in cover and (u, v) not in edges
        assert {tuple(e) for e in classic["graph"]["edges"]} == edges | {(u, v)}
        assert reopt["k_modified"] == classic["k"] <= reopt["k"]


def kuhn_search_depth(a_side: int, edges) -> tuple[int, int]:
    """Matching size and the deepest search of Kuhn's algorithm scanning A
    in index order and neighbours in ascending order, as an explicit
    stack: the depth the recursive search in ``rekern.matching`` reaches."""
    adj = {a: sorted(b for u, b in edges if u == a) for a in range(a_side)}
    match_of_b: dict[int, int] = {}
    deepest = 0
    for root in range(a_side):
        visited: set[int] = set()
        stack = [[root, iter(adj[root]), None]]
        found = False
        while stack and not found:
            deepest = max(deepest, len(stack))
            frame = stack[-1]
            for b in frame[1]:
                if b in visited:
                    continue
                visited.add(b)
                frame[2] = b
                if b in match_of_b:
                    nxt = match_of_b[b]
                    stack.append([nxt, iter(adj[nxt]), None])
                else:
                    found = True
                break
            else:
                stack.pop()
        if found:
            for a, _, b in stack:
                match_of_b[b] = a
    return len(match_of_b), deepest


@pytest.mark.parametrize("a_side", [5, 12, 40])
def test_staircase_search_is_as_deep_as_its_a_side(a_side):
    n, edges = workloads.staircase(a_side, a_side - 1)
    assert n == 2 * a_side + 1
    size, deepest = kuhn_search_depth(a_side, edges)
    assert size == a_side
    assert deepest == a_side


def test_same_seed_same_inputs():
    for name, workload in workloads.WORKLOADS.items():
        first = workload.build(SEED, tiny=True)
        assert first == workload.build(SEED, tiny=True), name
        assert first != workload.build(SEED + 1, tiny=True), name


# --- the reference checks reject corrupted results ------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_accept_every_tiny_output(name):
    workload = workloads.WORKLOADS[name]
    for case in tiny_cases(name):
        assert workload.check(case, workload.run(case)) == []


def test_reopt_check_rejects_a_flipped_answer_and_an_oversized_kernel():
    workload = workloads.WORKLOADS["reopt2k-large"]
    case = tiny_cases("reopt2k-large")[0]
    (code2, out2), classic = workload.run(case)
    doc = json.loads(out2)
    assert doc["kind"] == "reduced"

    flipped = {"kind": "decided", "answer": not case.expect["answer"]}
    output = ((code2, json.dumps(flipped)), classic)
    assert workload.check(case, output)

    # One vertex over the bound, joined to nothing, keeps the answer.
    k = case.expect["k"]
    graph = doc["graph"]
    extra = 2 * k + 1 - graph["n"]
    graph["labels"] += [f"b{-1 - i}" for i in range(extra)]
    graph["n"] = 2 * k + 1
    output = ((code2, json.dumps(doc)), classic)
    problems = workload.check(case, output)
    assert any("above the bound" in p for p in problems)

    output = ((code2, out2), (4, ""))
    assert workload.check(case, output)


def test_vc_kernel_check_rejects_a_changed_parameter_and_lost_labels():
    edges = [[0, 1], [1, 2]]
    doc = {
        "kind": "reduced",
        "graph": {"n": 3, "edges": edges, "labels": ["b0", "a1", "b2"]},
        "parameter": 1,
    }
    check = dict(
        answer=True, k_modified=1, bound=4, cover_number=workloads.labelled_cover_number
    )
    assert workloads.check_vc_kernel(doc, **check) == []
    assert workloads.check_vc_kernel({**doc, "parameter": 0}, **check)
    assert workloads.check_vc_kernel({**doc, "parameter": 2}, **check)
    unlabelled = {**doc, "graph": {"n": 3, "edges": edges}}
    with pytest.raises(ValueError):
        workloads.check_vc_kernel(unlabelled, **check)


def test_degenerate_bound_needs_the_degenerate_trace():
    doc = {
        "kind": "reduced",
        "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
        "parameter": 1,
    }

    def check(trace):
        return workloads.check_vc_kernel(
            doc,
            answer=True,
            k_modified=1,
            bound=2,
            degenerate_bound=3,
            trace=trace,
            cover_number=lambda g: reference.brute_cover_number(g["n"], g["edges"]),
        )

    assert check(("case5-degenerate",)) == []
    assert check(("case5",))


def test_atlas_check_rejects_a_failed_equivalence_and_a_flipped_answer():
    workload = workloads.WORKLOADS["atlas-sweep"]
    case = tiny_cases("atlas-sweep")[0]
    report, classic, equivalent = workload.run(case)
    assert workload.check(case, (report, classic, False))
    flipped = type(classic).decided(not case.expect["answer"])
    assert workload.check(case, (report, flipped, equivalent))


def test_dispatch_check_rejects_a_flipped_answer():
    workload = workloads.WORKLOADS["oracle-dispatch"]
    for case in tiny_cases("oracle-dispatch"):
        results = workload.run(case)
        for i, result in enumerate(results):
            assert result.is_decided
            flipped = list(results)
            flipped[i] = type(result).decided(not result.answer)
            assert workload.check(case, flipped)


# --- tracing --------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_spans_record_calls_on_their_workloads(name):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = bench_run.measure(workload, tiny_cases(name), 0.0, tracer)
    finally:
        tracer.uninstall()
    assert run["correct"] and run["failed"] == 0
    (figures,) = run["layers"]
    assert set(figures) == set(tracing.PER_LAYER)
    silent = [m for m in tracing.EXERCISED_ON[name] if not figures[m] > 0]
    assert silent == []


def test_every_per_layer_metric_has_a_workload():
    named = {m for metrics in tracing.EXERCISED_ON.values() for m in metrics}
    assert named == set(tracing.PER_LAYER)


def test_uninstall_restores_every_reference():
    from rekern import cli, vc_kernels

    def targets():
        return vc_kernels.maximum_bipartite_matching, cli.reopt_vc_kernelize_2k_report

    before = targets()
    tracer = tracing.Tracer()
    tracer.install()
    assert all(now is not then for now, then in zip(targets(), before))
    tracer.uninstall()
    assert targets() == before


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


# --- measurement --------------------------------------------------------------


class _FailsOnOdd:
    """Two of four operations raise, in every pass."""

    def run(self, case):
        if case % 2:
            raise RuntimeError("odd")
        return case

    def check(self, case, output):
        return []

    def kernel_vertices(self, output):
        return 2


def test_failures_are_the_same_share_of_every_pass():
    run = bench_run.measure(_FailsOnOdd(), [0, 1, 2, 3], 0.001)
    assert run["failed"] * 2 == run["attempted"]
    assert run["correct"]
    assert run["kernel_vertices"] == 4
