"""Property test: every subcommand of the CLI exits with a documented code.

Instance documents follow the canonical JSON schema with at most 8
vertices: a graph, a digraph, a set cover over a universe of at most 8
elements, parameters, a witness of any problem's shape, a modification and
crown notes.  Graph edges and digraph arcs are valid; the vertices of
witnesses, modifications and crowns run from -1 to n, so some are out of
range.  Then up to three fields (at the top level or one level down) are
dropped or replaced by a value of the wrong type; result documents get
one such change half of the time.  Each document goes
through every subcommand, and each must exit 0, 2, 3 or 4; a Python
traceback fails the test.  ``gadget setcover-cvc`` gets no ``--family``
or up to three members of any text.  DIMACS text (``p edge n m`` / ``e u v``) with
a missing or second problem line, a wrong edge count, endpoints 0 or
n + 1, self-loops, non-integers, unknown records and comments goes through
every subcommand that reads ``--input`` in the same way.  The runs are
derandomized with a fixed number of examples, so they add seconds to the
suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from collections.abc import Sequence
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rekern.cli import run_command
from rekern.problems import ProblemKind

DOCUMENTED_EXITS = {0, 2, 3, 4}
PROBLEMS = [kind.value for kind in ProblemKind]
OPS = ["edge_add", "edge_del", "vertex_del", "vertex_add", "vertex_swap"]

garbage = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["n", "u", "v"]), st.integers(-1, 3), max_size=2),
)


def _fields(doc: dict) -> list[tuple[str, ...]]:
    """Every top-level key, and every key one level down."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
    return paths


@st.composite
def instance_documents(draw):
    n = draw(st.integers(0, 8))
    vertex = st.integers(-1, n)
    vertices = st.lists(vertex, max_size=5)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    cover = sorted({draw(st.sampled_from(edge)) for edge in edges})
    k = len(cover) + draw(st.integers(-1, 2))
    graph = {"n": n, "edges": [list(e) for e in edges]}
    if draw(st.booleans()):
        graph["labels"] = [f"v{i}" for i in range(n)]
    arcs = [[u, v] for u in range(n) for v in range(n) if u != v]
    universe = draw(st.integers(1, 8))
    doc = {
        "format": "rekern-instance",
        "version": 1,
        "problem": draw(st.sampled_from(PROBLEMS)),
        "graph": graph,
        "digraph": {"n": n, "arcs": draw(st.lists(st.sampled_from(arcs), max_size=6)) if arcs else []},
        "set_cover": {
            "universe": universe,
            "family": draw(st.lists(st.lists(st.integers(1, universe), max_size=4), max_size=5)),
            "k": draw(st.integers(1, universe)),
        },
        "k": k,
        "k_modified": k + draw(st.integers(-1, 1)),
        "witness": draw(
            st.one_of(
                st.just(cover),
                vertices,
                st.just([list(e) for e in edges[: draw(st.integers(0, 4))]]),
                st.just(
                    {
                        "bags": [list(e) for e in edges],
                        "tree": [[i, i + 1] for i in range(len(edges) - 1)],
                    }
                ),
            )
        ),
        "modification": {
            "op": draw(st.sampled_from(OPS)),
            "u": draw(vertex),
            "v": draw(vertex),
            "neighbors": draw(vertices),
        },
        "notes": {
            "crown": {
                "C": draw(vertices),
                "H": draw(vertices),
                "R": draw(vertices),
                "M": [list(e) for e in edges[: draw(st.integers(0, 2))]],
            }
        },
    }
    for _ in range(draw(st.integers(0, 3))):
        *outer, key = draw(st.sampled_from(_fields(doc)))
        holder = doc[outer[0]] if outer else doc
        if draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(garbage)
    return doc


@st.composite
def result_documents(draw):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    doc = {
        "format": "rekern-result",
        "version": 1,
        "kind": draw(st.sampled_from(["decided", "reduced"])),
        "answer": draw(st.booleans()),
        "graph": {"n": n, "edges": [list(e) for e in edges]},
        "parameter": draw(st.integers(-1, 4)),
    }
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(garbage)
    return doc


DIMACS_MUTATIONS = [
    "drop p",
    "second p",
    "wrong m",
    "endpoint 0 or n+1",
    "self-loop",
    "non-integer",
    "unknown record",
    "comment",
]


@st.composite
def dimacs_texts(draw):
    """``p edge n m`` / ``e u v`` text, then up to three mutations."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    token = st.one_of(st.integers(-1, n + 1).map(str), st.sampled_from(["x", "1.5", "0x1"]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        mutation = draw(st.sampled_from(DIMACS_MUTATIONS))
        if mutation == "drop p":
            lines = [line for line in lines if not line.startswith("p")]
        elif mutation == "second p":  # the problem line again, perhaps with a smaller n
            lines.insert(at, f"p edge {draw(st.integers(0, n))} {len(edges)}")
        elif mutation == "wrong m":
            m = draw(st.integers(-1, 12))
            lines = [f"p edge {n} {m}" if line.startswith("p") else line for line in lines]
        elif mutation == "endpoint 0 or n+1":
            u = draw(st.sampled_from([0, n + 1]))
            lines.insert(at, f"e {u} {draw(st.integers(1, n + 1))}")
        elif mutation == "self-loop":
            v = draw(st.integers(1, max(n, 1)))
            lines.insert(at, f"e {v} {v}")
        elif mutation == "non-integer":
            record = draw(st.sampled_from(["e", "p edge"]))
            lines.insert(at, f"{record} {draw(token)} {draw(token)}")
        elif mutation == "unknown record":
            lines.insert(at, f"{draw(st.sampled_from(['x', 'q', 'E', 'edge', 'n']))} 1 2")
        else:
            lines.insert(at, "c" + draw(st.text(alphabet="ep 0123456789x", max_size=8)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


# ``gadget setcover-cvc --family`` members: any text, and JSON text of
# integer lists and of wrong values.
family_members = st.one_of(
    st.text(max_size=6),
    garbage.map(json.dumps),
    st.lists(st.integers(-1, 9), max_size=4).map(json.dumps),
)


def _commands(
    doc_path: str,
    result_path: str,
    problem: str,
    k: int,
    family: Sequence[str] | None = None,
) -> list[list[str]]:
    read = ["--input", doc_path]
    flags = ["--problem", problem, "--k", str(k)]
    # No family: the command's default family.
    family_flags = [] if family is None else ["--family", *family]
    return [
        ["kernelize", "vc", "--mode", "classic3k", *read],
        ["kernelize", "vc", "--mode", "reopt2k", *read],
        ["reopt", "kernelize", "--problem", "ivst", *read],
        ["reopt", "kernelize", "--problem", "generic", *read],
        ["gadget", "negative", *flags, *read],
        ["gadget", "negative", *flags, "--mode", "vertex", *read],
        ["gadget", "clique-reopt", "--k", str(k), *read],
        ["gadget", "clique-reopt", "--k", str(k), "--mode", "vertex", *read],
        ["gadget", "extremal", *flags],
        ["gadget", "setcover-cvc", "--universe", str(k), "--k", str(k), *family_flags],
        ["solve", "--problem", problem, *read],
        ["verify", "crown", *read],
        ["verify", "solution", *read],
        ["verify", "kernel-equivalence", *read, "--result", result_path],
        ["corpus", "--seed", str(k), "--count", "1", "--max-n", str(k)],
    ]


@settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    doc=instance_documents(),
    result=result_documents(),
    problem=st.sampled_from(PROBLEMS),
    k=st.integers(-2, 4),
    family=st.none() | st.lists(family_members, max_size=3),
)
def test_every_subcommand_exits_with_a_documented_code(doc, result, problem, k, family):
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / "instance.json"
        result_path = Path(tmp) / "result.json"
        doc_path.write_text(json.dumps(doc))
        result_path.write_text(json.dumps(result))
        for argv in _commands(str(doc_path), str(result_path), problem, k, family):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = run_command(argv)
            assert code in DOCUMENTED_EXITS, (argv, doc, result)


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    text=dimacs_texts(),
    result=result_documents(),
    problem=st.sampled_from(PROBLEMS),
    k=st.integers(-2, 4),
)
def test_every_subcommand_reading_dimacs_exits_with_a_documented_code(
    text, result, problem, k
):
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / "instance.dimacs"
        result_path = Path(tmp) / "result.json"
        doc_path.write_text(text)
        result_path.write_text(json.dumps(result))
        for argv in _commands(str(doc_path), str(result_path), problem, k):
            if "--input" not in argv:
                continue
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = run_command(argv)
            assert code in DOCUMENTED_EXITS, (argv, text, result)
