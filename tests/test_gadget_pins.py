"""Byte-identity guard for the gadget builders.

Every ``rekern gadget extremal``, ``gadget negative`` and ``gadget
clique-reopt`` command below runs in process; the sha256 of its standard
output, the sha256 of its standard error and its exit code must match
``tests/data/gadgets_sha256.json``.  Refusals are pinned too: a kind
without a block, or a parameter its block does not admit, must keep its
exit code and its message, and print nothing on standard output.  A
change that alters the output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_gadget_pins.py`` and says why.
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
from rekern.problems import ProblemKind

GADGET_PINS = Path(__file__).with_name("data") / "gadgets_sha256.json"
NEGATIVE_KINDS = ("ivst", "longest_path", "clique", "treewidth")
MODES = ("edge", "vertex")
CARRIERS = {
    # a triangle with a pendant vertex
    "paw": {"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]},
    # two edges and an isolated vertex, labelled so the glue carries labels
    "labelled": {
        "n": 5,
        "edges": [[0, 1], [2, 3]],
        "labels": ["a", "b", "c", "d", "e"],
    },
}


def gadget_commands(carrier_paths: dict[str, str]) -> dict[str, list[str]]:
    """Each pinned command under a name that leaves out the file paths."""
    commands = {}
    for kind in ProblemKind:
        for k in range(5):
            commands[f"extremal {kind.value} k={k}"] = [
                "gadget", "extremal", "--problem", kind.value, "--k", str(k)
            ]
    for carrier, path in carrier_paths.items():
        for mode in MODES:
            for k in range(4):
                read = ["--k", str(k), "--mode", mode, "--input", path]
                for kind in NEGATIVE_KINDS:
                    commands[f"negative {kind} {mode} k={k} {carrier}"] = [
                        "gadget", "negative", "--problem", kind, *read
                    ]
                commands[f"clique-reopt {mode} k={k} {carrier}"] = [
                    "gadget", "clique-reopt", *read
                ]
    return commands


def gadget_pins() -> dict[str, dict[str, object]]:
    with tempfile.TemporaryDirectory() as tmp:
        carrier_paths = {}
        for name, graph in CARRIERS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(
                json.dumps({"format": "rekern-instance", "version": 1, "graph": graph})
            )
            carrier_paths[name] = str(path)
        pins = {}
        for name, argv in gadget_commands(carrier_paths).items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(argv)
            pins[name] = {
                "exit": code,
                "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            }
        return pins


def test_gadget_outputs_match_the_pinned_hashes():
    pinned = json.loads(GADGET_PINS.read_text())
    actual = gadget_pins()
    assert sorted(actual) == sorted(pinned)
    changed = [name for name in pinned if actual[name] != pinned[name]]
    assert not changed, f"gadget output changed: {changed[:10]}"
    # the pin covers both builds and refusals
    assert {pin["exit"] for pin in pinned.values()} == {0, 4}


if __name__ == "__main__":
    GADGET_PINS.write_text(json.dumps(gadget_pins(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GADGET_PINS}\n")
