"""Byte-identity guard for the vertex cover kernels on a fixed corpus.

``rekern corpus --seed 1 --count 400 --max-n 12`` writes 400 instances;
every one goes through ``kernelize vc --mode reopt2k`` and ``--mode
classic3k``, and the sha256 of each report must match the golden file.
A change that alters the CLI output on purpose regenerates that file with
``PYTHONPATH=src python tests/test_golden_corpus.py`` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from rekern.cli import run_command

GOLDEN = Path(__file__).with_name("data") / "corpus_seed1_sha256.json"
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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(corpus_reports()), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
