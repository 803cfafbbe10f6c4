"""Byte-identity guard for the vertex cover kernels on a fixed corpus.

``rekern corpus --seed 1 --count 400 --max-n 12`` writes 400 instances;
every one goes through ``kernelize vc --mode reopt2k`` and ``--mode
classic3k``, and the sha256 of each report must match the golden file.
A second golden file pins ``vc_kernelize_3k`` on seeded planted-cover
graphs far above 3k vertices, where ``crown_or_matching`` takes its crown
branch.  A change that alters the output on purpose regenerates both files
with ``PYTHONPATH=src python tests/test_golden_corpus.py`` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from rekern import formats
from rekern.cli import run_command
from rekern.crown import crown_or_matching
from rekern.graphs import Graph
from rekern.vc_kernels import vc_kernelize_3k

GOLDEN = Path(__file__).with_name("data") / "corpus_seed1_sha256.json"
GOLDEN_PLANTED = Path(__file__).with_name("data") / "classic3k_planted_sha256.json"
CORPUS_ARGS = ["corpus", "--seed", "1", "--count", "400", "--max-n", "12"]
MODES = ("reopt2k", "classic3k")
TRACE_MARKERS = (
    "trivial",
    "isolated-leaf",
    "case1",
    "case2",
    "case3",
    "case4",
    "case5-rematch-v",
    "case5-rematch-u",
    "case5-degenerate",
)


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def corpus_reports() -> dict[str, list[str]]:
    """The report text of every corpus instance under each kernel mode."""
    with tempfile.TemporaryDirectory() as tmp:
        _run(CORPUS_ARGS + ["--out-dir", tmp])
        paths = sorted(Path(tmp).glob("instance_*.json"))
        return {
            mode: [
                _run(["kernelize", "vc", "--mode", mode, "--input", str(p)])
                for p in paths
            ]
            for mode in MODES
        }


def _digests(reports: dict[str, list[str]]) -> dict[str, list[str]]:
    return {
        mode: [hashlib.sha256(text.encode()).hexdigest() for text in texts]
        for mode, texts in reports.items()
    }


def test_corpus_reports_match_golden_hashes():
    reports = corpus_reports()
    golden = json.loads(GOLDEN.read_text())
    actual = _digests(reports)
    for mode in MODES:
        assert len(actual[mode]) == len(golden[mode]) == 400
        changed = [
            i for i, (a, b) in enumerate(zip(actual[mode], golden[mode])) if a != b
        ]
        assert not changed, f"{mode} output changed on instances {changed[:10]}"

    seen = {
        entry
        for text in reports["reopt2k"]
        for entry in json.loads(text)["notes"]["trace"]
    }
    assert set(TRACE_MARKERS) <= seen, set(TRACE_MARKERS) - seen


def planted_cover_graph(rng: random.Random, a: int, b: int, t: int) -> Graph:
    """A cover ``0..a-1`` whose ``b`` independent neighbours (1 to 3 cover
    vertices each) the crowns remove, plus a tight block of ``t`` cover and
    ``t`` independent vertices with a perfect matching, random cross edges
    and ``t`` edges inside its cover half, which survives into the kernel.
    No vertex is isolated."""
    edges = set()
    for j in range(a, a + b):
        edges.update((x, j) for x in rng.sample(range(a), rng.randint(1, 3)))
    edges.update((x, a + rng.randrange(b)) for x in range(a))
    base = a + b
    for i in range(t):
        for j in range(t):
            if i == j or rng.random() < 0.5:
                edges.add((base + i, base + t + j))
    for _ in range(t):
        x, y = sorted(rng.sample(range(t), 2))
        edges.add((base + x, base + y))
    return Graph.from_edges(a + b + 2 * t, edges)


def planted_cases() -> list[tuple[Graph, int]]:
    rng = random.Random(3)
    cases = []
    for _ in range(16):
        a = rng.randint(5, 40)
        b = rng.randint(4 * a, 10 * a)
        t = rng.randint(2, 8)
        g = planted_cover_graph(rng, a, b, t)
        cases.append((g, a + t + rng.choice([-2, -1, 0, 0, 2, 5])))
    return cases


def planted_digests() -> list[str]:
    return [
        hashlib.sha256(
            formats.emit_result(vc_kernelize_3k(g, k)).encode()
        ).hexdigest()
        for g, k in planted_cases()
    ]


def test_classic3k_planted_reports_match_golden_hashes():
    cases = planted_cases()
    crowns = sum(
        crown_or_matching(g, k).crown is not None
        for g, k in cases
        if g.n >= 3 * k + 1
    )
    assert crowns >= 1
    golden = json.loads(GOLDEN_PLANTED.read_text())
    actual = planted_digests()
    assert len(actual) == len(golden) == len(cases)
    changed = [i for i, (a, b) in enumerate(zip(actual, golden)) if a != b]
    assert not changed, f"classic3k output changed on planted cases {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(corpus_reports()), indent=1) + "\n")
    GOLDEN_PLANTED.write_text(json.dumps(planted_digests(), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN} and {GOLDEN_PLANTED}\n")
