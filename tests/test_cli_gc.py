"""``rekern kernelize vc`` runs with the cyclic garbage collector paused.

The pause is safe only while the command builds no reference cycles whose
number grows with its input: those would stay in memory until the next
collection.  These tests count what a collection finds after one command
on a small and on a large planted-cover document, and check that the
command leaves the collector on or off as it found it, also when it fails.
"""

from __future__ import annotations

import gc
import json
import random

import pytest

from rekern.cli import run_command

MODES = ("reopt2k", "classic3k")


def _planted_document(n: int, seed: int) -> str:
    """A vertex cover document on ``n`` vertices: a planted cover A of
    n / 3 vertices, each other vertex adjacent to one to three of them,
    and an edge added between two vertices outside A."""
    rng = random.Random(seed)
    side_a = list(range(n // 3))
    edges = sorted(
        {(a, b) for b in range(n // 3, n) for a in rng.sample(side_a, rng.randint(1, 3))}
    )
    return json.dumps(
        {
            "format": "rekern-instance",
            "version": 1,
            "problem": "vertex_cover",
            "graph": {"n": n, "edges": edges, "labels": [f"v{i}" for i in range(n)]},
            "k": len(side_a),
            "witness": side_a,
            "modification": {"op": "edge_add", "u": n - 2, "v": n - 1},
        }
    )


def _kernelize(mode: str, path, capsys) -> int:
    code = run_command(["kernelize", "vc", "--mode", mode, "--input", str(path)])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("mode", MODES)
def test_paused_kernelize_leaves_garbage_that_does_not_grow(mode, tmp_path, capsys):
    paths = {}
    for n in (30, 200, 5_000):
        paths[n] = tmp_path / f"planted_{n}.json"
        paths[n].write_text(_planted_document(n, seed=n))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert _kernelize(mode, paths[30], capsys) == 0  # warm caches first
        found = {}
        for n in (200, 5_000):
            gc.collect()
            assert _kernelize(mode, paths[n], capsys) == 0
            found[n] = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert found[200] == found[5_000], found


def _failing_documents():
    base = json.loads(_planted_document(30, seed=1))
    malformed = {**base, "k": "ten"}
    not_a_cover = {**base, "witness": [0]}
    return {"exit-2": (malformed, 2), "exit-4": (not_a_cover, 4)}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(_failing_documents()))
def test_failing_kernelize_restores_the_collector_state(
    name, enabled, tmp_path, capsys
):
    doc, expected = _failing_documents()[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = _kernelize("reopt2k", path, capsys)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert code == expected
