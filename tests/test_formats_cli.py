import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekern import formats
from rekern.cli import run_command
from rekern.errors import ParseError
from rekern.graphs import (
    Digraph,
    EdgeAdd,
    EdgeDel,
    Graph,
    VertexAdd,
    VertexDel,
    path_graph,
)
from rekern.instances import KernelResult
from rekern.oracles import membership, solve_exact, verify_solution
from rekern.problems import ProblemKind as PK
from rekern.setcover import SetCoverInstance


def test_minimal_document_round_trip():
    doc = formats.InstanceDocument(
        problem=PK.VERTEX_COVER, graph=path_graph(3), k=1
    )
    text = formats.emit_instance(doc)
    back = formats.parse_instance(text)
    assert back.problem is PK.VERTEX_COVER
    assert back.graph == path_graph(3)
    assert back.k == 1 and back.k_modified is None


def test_full_document_round_trip():
    g = Graph.from_edges(4, [(0, 1), (1, 2)], labels=["a", "b", "c", "d"])
    doc = formats.InstanceDocument(
        problem=PK.VERTEX_COVER,
        graph=g,
        k=2,
        k_modified=1,
        witness=frozenset({1}),
        modification=EdgeAdd(0, 2),
        notes={"origin": "test"},
    )
    back = formats.parse_instance(formats.emit_instance(doc))
    assert back.graph == g and back.graph.labels == g.labels
    assert back.witness == frozenset({1})
    assert back.modification == EdgeAdd(0, 2)
    assert back.k == 2 and back.k_modified == 1
    assert back.notes == {"origin": "test"}


@pytest.mark.parametrize(
    "modification",
    [EdgeAdd(0, 2), EdgeDel(0, 1), VertexDel(1), VertexAdd(frozenset({0, 2}))],
)
def test_every_modification_round_trips(modification):
    doc = formats.InstanceDocument(graph=path_graph(3), modification=modification)
    back = formats.parse_instance(formats.emit_instance(doc))
    assert back.modification == modification


def test_set_cover_round_trip():
    sc = SetCoverInstance.of(3, [{1, 2}, {3}], 2)
    doc = formats.InstanceDocument(problem=PK.SET_COVER, set_cover=sc)
    back = formats.parse_instance(formats.emit_instance(doc))
    assert back.set_cover == sc


def test_digraph_round_trip(capsys):
    from rekern.graphs import Digraph

    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (3, 0)])
    doc = formats.InstanceDocument(problem=PK.LEAF_OUT_TREE, digraph=d, k=2)
    back = formats.parse_instance(formats.emit_instance(doc))
    assert back.digraph == d
    # the extremal builder emits digraph documents the solver accepts
    code = run_command(["gadget", "extremal", "--problem", "leaf_out_tree", "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    emitted = formats.parse_instance(out)
    assert emitted.digraph is not None and emitted.digraph.n == 4


# A triangle with a tail 2-3-4, so that every witness shape is non-trivial.
_ROUND_TRIP_GRAPH = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
_ROUND_TRIP_PAYLOADS = {
    PK.SET_COVER: {"set_cover": SetCoverInstance.of(3, [{1, 2}, {3}, {2, 3}], 2)},
    PK.LEAF_OUT_TREE: {"digraph": Digraph.from_arcs(5, [(0, 1), (0, 2), (2, 3), (4, 3)])},
}


@pytest.mark.parametrize("kind", list(PK), ids=lambda kind: kind.value)
def test_witness_shapes_round_trip(kind):
    """The oracle's witness survives the document writer and reader, in
    the shape its problem declares, and still verifies at the solved
    value."""
    fields = _ROUND_TRIP_PAYLOADS.get(kind, {"graph": _ROUND_TRIP_GRAPH})
    (payload,) = fields.values()
    solution = solve_exact(kind, payload)
    assert solution.witness  # not empty, so the shape is seen on the wire
    doc = formats.InstanceDocument(problem=kind, witness=solution.witness, **fields)
    back = formats.parse_instance(formats.emit_instance(doc))
    assert back.witness == solution.witness
    assert type(back.witness) is type(solution.witness)
    assert verify_solution(kind, payload, back.witness, solution.value)


@pytest.mark.parametrize("kind", list(PK), ids=lambda kind: kind.value)
def test_cli_solve_with_k_runs_the_oracle_once(kind, tmp_path, capsys, monkeypatch):
    """``solve`` reads ``member`` off the solution it prints, so each
    command makes one ``solve_exact`` call, counted both where the CLI
    calls it and where ``membership`` would, and ``member`` still equals
    oracle membership at, below and above the optimum."""
    from rekern import cli, oracles

    fields = _ROUND_TRIP_PAYLOADS.get(kind, {"graph": _ROUND_TRIP_GRAPH})
    (payload,) = fields.values()
    value = solve_exact(kind, payload).value
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return solve_exact(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_exact", counting)
    monkeypatch.setattr(oracles, "solve_exact", counting)
    for k in (value - 1, value, value + 1):
        doc = formats.InstanceDocument(problem=kind, k=k, **fields)
        path = tmp_path / "inst.json"
        path.write_text(formats.emit_instance(doc))
        calls.clear()
        code, out = run_cli(capsys, "solve", "--problem", kind.value, "--input", str(path))
        assert code == 0 and calls == [kind]
        assert json.loads(out)["member"] == membership(kind, payload, k), k


def test_dimacs_round_trip_and_indexing():
    from tests.conftest import emit_dimacs

    text = "p edge 3 2\ne 1 2\ne 2 3\n"
    g = formats.parse_dimacs(text)
    assert g == path_graph(3)
    assert emit_dimacs(g) == text


def test_parse_errors_carry_diagnostics():
    with pytest.raises(ParseError, match="out of range"):
        formats.parse_instance(
            json.dumps(
                {
                    "format": "rekern-instance",
                    "version": 1,
                    "graph": {"n": 3, "edges": [[0, 9]]},
                }
            )
        )
    with pytest.raises(ParseError, match="line 2"):
        formats.parse_dimacs("p edge 3 1\ne 1 9\n")
    with pytest.raises(ParseError, match="declares"):
        formats.parse_dimacs("p edge 3 5\ne 1 2\n")
    with pytest.raises(ParseError, match="negative"):
        formats.parse_dimacs("p edge -1 0\n")
    # A second problem line that shrinks n under an edge already read.
    with pytest.raises(ParseError, match="line 3: second problem line"):
        formats.parse_dimacs("p edge 5 1\ne 4 5\np edge 3 1\n")
    with pytest.raises(ParseError):
        formats.parse_instance("")
    with pytest.raises(ParseError):
        formats.parse_instance("{not json")


def _kernel_equivalence_exit(tmp_path, capsys, result):
    """Exit code of ``verify kernel-equivalence`` for the yes-instance path
    0-1-2 with k = 1 against the given result document."""
    inst = formats.InstanceDocument(problem=PK.VERTEX_COVER, graph=path_graph(3), k=1)
    (tmp_path / "inst.json").write_text(formats.emit_instance(inst))
    (tmp_path / "res.json").write_text(
        json.dumps({"format": formats.RESULT_FORMAT, "version": 1, **result})
    )
    code, out = run_cli(
        capsys, "verify", "kernel-equivalence",
        "--input", str(tmp_path / "inst.json"), "--result", str(tmp_path / "res.json"),
    )
    return code, out


_PATH_RESULT = {"kind": "reduced", "graph": {"n": 3, "edges": [[0, 1], [1, 2]]}}


@pytest.mark.parametrize(
    "result",
    [
        pytest.param({"kind": "decided", "answer": "false"}, id="string-answer"),
        pytest.param({"kind": "decided", "answer": 0}, id="integer-answer"),
        pytest.param({"kind": "decided", "answer": None}, id="null-answer"),
        pytest.param({**_PATH_RESULT, "parameter": 1.0}, id="float-parameter"),
        pytest.param({**_PATH_RESULT, "parameter": True}, id="boolean-parameter"),
        pytest.param(
            {**_PATH_RESULT, "parameter": 1, "size_bound_claim": 3.0}, id="float-claim"
        ),
        pytest.param(
            {**_PATH_RESULT, "parameter": 1, "size_bound_claim": None}, id="null-claim"
        ),
        pytest.param(
            {"kind": "decided", "answer": True, "version": "1"}, id="string-version"
        ),
        pytest.param({"kind": "decided", "answer": True, "version": 2}, id="version-2"),
    ],
)
def test_cli_result_document_fields_are_strictly_typed(result, tmp_path, capsys):
    """``answer`` is a JSON boolean, ``parameter`` an integer and
    ``size_bound_claim`` an integer or absent, and ``version`` is 1;
    anything else is a usage error, where ``"answer": "false"`` used to
    read as a yes."""
    assert _kernel_equivalence_exit(tmp_path, capsys, result) == (2, "")


@pytest.mark.parametrize(
    "result",
    [
        {"kind": "decided", "answer": True},
        {**_PATH_RESULT, "parameter": 1},
        {**_PATH_RESULT, "parameter": 1, "size_bound_claim": 3},
    ],
    ids=["decided", "reduced", "reduced-with-claim"],
)
def test_cli_well_typed_result_documents_verify(result, tmp_path, capsys):
    code, out = _kernel_equivalence_exit(tmp_path, capsys, result)
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_result_round_trip():
    r = KernelResult.reduced(path_graph(3), 1, size_bound_claim=3)
    back = formats.parse_result(formats.emit_result(r))
    assert back == r
    r = KernelResult.decided(False)
    assert formats.parse_result(formats.emit_result(r)) == r


_label_text = st.text(st.sampled_from('a"\\/\n\té€漢😀') | st.characters(), max_size=6)
_note_values = st.one_of(
    st.none(), st.booleans(), st.integers(), _label_text, st.lists(_label_text, max_size=3)
)


@st.composite
def _kernel_results(draw):
    """Decided results, and reduced results with 0 to 50 edges, labels or
    none, with and without a size bound claim."""
    if draw(st.booleans()):
        return KernelResult.decided(draw(st.booleans()))
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=50, unique=True)) if pairs else []
    labels = draw(st.none() | st.lists(_label_text, min_size=n, max_size=n))
    claim = draw(st.none() | st.integers(n, n + 5))
    return KernelResult.reduced(
        Graph.from_edges(n, edges, labels), draw(st.integers(0, 60)), claim
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    result=_kernel_results(),
    notes=st.none() | st.dictionaries(_label_text, _note_values, max_size=3),
)
def test_emit_result_is_json_dumps_byte_for_byte(result, notes):
    """Both emitters write graphs without ``json``'s indenting encoder, and
    must give exactly its bytes; the instance document shares the writer."""
    payload = {"format": formats.RESULT_FORMAT, "version": formats.FORMAT_VERSION}
    if notes:
        payload["notes"] = notes
    if result.is_decided:
        payload.update(kind="decided", answer=result.answer)
    else:
        graph = {"n": result.graph.n, "edges": sorted(result.graph.edges)}
        if result.graph.labels is not None:
            graph["labels"] = list(result.graph.labels)
        payload.update(kind="reduced", graph=graph, parameter=result.parameter)
        if result.size_bound_claim is not None:
            payload["size_bound_claim"] = result.size_bound_claim
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert formats.emit_result(result, notes) == expected
    if result.is_reduced:
        doc = formats.InstanceDocument(graph=result.graph, k=result.parameter)
        doc.notes = notes or {}
        payload.update(format=formats.FORMAT_NAME, k=result.parameter)
        for key in ("kind", "parameter", "size_bound_claim"):
            payload.pop(key, None)
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert formats.emit_instance(doc) == expected


# --- CLI ---------------------------------------------------------------


def run_cli(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_classic_kernel(tmp_path, capsys):
    doc = formats.InstanceDocument(problem=PK.VERTEX_COVER, graph=path_graph(3), k=1)
    path = tmp_path / "inst.json"
    path.write_text(formats.emit_instance(doc))
    code, out = run_cli(capsys, "kernelize", "vc", "--mode", "classic3k", "--input", str(path))
    assert code == 0
    result = formats.parse_result(out)
    assert result.is_reduced and result.graph.n <= 3


def test_cli_reopt_kernel_reports_case(tmp_path, capsys):
    doc = formats.InstanceDocument(
        problem=PK.VERTEX_COVER,
        graph=Graph.from_edges(5, [(0, 2), (0, 3), (1, 4)]),
        k=2,
        k_modified=2,
        witness=frozenset({0, 1}),
        modification=EdgeAdd(3, 4),
    )
    path = tmp_path / "inst.json"
    path.write_text(formats.emit_instance(doc))
    code, out = run_cli(capsys, "kernelize", "vc", "--mode", "reopt2k", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["notes"]["branch"] == "case3"
    assert payload["parameter"] == 1 and payload["graph"]["n"] == 3


def test_cli_gadget_and_solve_and_verify(tmp_path, capsys):
    code, out = run_cli(
        capsys, "gadget", "setcover-cvc", "--universe", "2", "--k", "1",
        "--family", "[1]", "[2]", "[1, 2]",
    )
    assert code == 0
    doc = formats.parse_instance(out)
    assert doc.graph.n == 27
    gadget_path = tmp_path / "gadget.json"
    gadget_path.write_text(out)

    # the witness S1 verifies as a connected vertex cover at k
    code, out = run_cli(capsys, "verify", "solution", "--input", str(gadget_path))
    assert code == 0 and json.loads(out)["valid"] is True


@pytest.mark.parametrize("member", ["[1", "5", "[[1]]", "[true]", "[1.0]"])
def test_cli_setcover_gadget_rejects_a_malformed_family_member(capsys, member):
    """A member that is not JSON, not a list, or holds anything but
    integers is a usage error, not a traceback or a document that
    ``solve`` later rejects."""
    code, out = run_cli(
        capsys, "gadget", "setcover-cvc", "--universe", "2", "--family", "[2]", member
    )
    assert code == 2 and out == ""


def test_cli_setcover_gadget_output_solves_as_set_cover(tmp_path, capsys):
    code, out = run_cli(
        capsys, "gadget", "setcover-cvc", "--universe", "2", "--k", "1",
        "--family", "[1]", "[1, 2]",
    )
    assert code == 0
    path = tmp_path / "gadget.json"
    path.write_text(out)
    code, out = run_cli(capsys, "solve", "--problem", "set_cover", "--input", str(path))
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_cli_commands_in_a_row_keep_their_own_defaults(capsys):
    """The process parses every command with one parser; a command that
    sets options leaves the next one with the defaults of a fresh parser,
    ``gadget``'s ``--family`` list included."""
    from rekern import cli

    code, default = run_cli(capsys, "gadget", "setcover-cvc")
    assert code == 0
    code, custom = run_cli(
        capsys, "gadget", "setcover-cvc", "--universe", "3", "--k", "2",
        "--family", "[1, 2]", "[3]", "[2, 3]",
    )
    assert code == 0 and custom != default
    code, again = run_cli(capsys, "gadget", "setcover-cvc")
    assert code == 0 and again == default
    for argv in (
        ["gadget", "setcover-cvc"],
        ["solve", "--problem", "clique"],
        ["kernelize", "vc", "--mode", "reopt2k"],
        ["corpus", "--seed", "1"],
    ):
        assert vars(cli._parser().parse_args(argv)) == vars(
            cli.build_parser().parse_args(argv)
        )
    assert cli._parser() is cli._parser()


def test_cli_solve_dimacs(tmp_path, capsys):
    path = tmp_path / "g.col"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    code, out = run_cli(capsys, "solve", "--problem", "vertex_cover", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1 and payload["witness"] == [1]


def test_cli_verify_crown_exit_codes(tmp_path, capsys):
    good = formats.InstanceDocument(
        graph=Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        notes={"crown": {"C": [1, 2, 3], "H": [0], "R": [], "M": [[0, 1]]}},
    )
    path = tmp_path / "crown.json"
    path.write_text(formats.emit_instance(good))
    code, out = run_cli(capsys, "verify", "crown", "--input", str(path))
    assert code == 0
    bad = formats.InstanceDocument(
        graph=Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        notes={"crown": {"C": [0, 1], "H": [2], "R": [], "M": [[1, 2]]}},
    )
    path.write_text(formats.emit_instance(bad))
    code, out = run_cli(capsys, "verify", "crown", "--input", str(path))
    assert code == 4 and json.loads(out)["valid"] is False


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("C", [1.2, True], id="C-float-and-boolean"),
        pytest.param("C", [1.0, 2, 3], id="C-float"),
        pytest.param("C", "123", id="C-string"),
        pytest.param("H", [True], id="H-boolean"),
        pytest.param("H", [0.0], id="H-float"),
        pytest.param("R", ["0"], id="R-string-item"),
        pytest.param("M", [[0, 1.0]], id="M-float"),
        pytest.param("M", [[False, 1]], id="M-boolean"),
    ],
)
def test_cli_verify_crown_reads_its_notes_as_integers(field, value, tmp_path, capsys):
    """The crown notes go through the strict integer reader: a float, a
    boolean or a string is a usage error, not a crown to validate."""
    crown = {"C": [1, 2, 3], "H": [0], "R": [], "M": [[0, 1]], field: value}
    doc = formats.InstanceDocument(
        graph=Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), notes={"crown": crown}
    )
    path = tmp_path / "crown.json"
    path.write_text(formats.emit_instance(doc))
    assert run_cli(capsys, "verify", "crown", "--input", str(path)) == (2, "")


def test_cli_verify_kernel_equivalence(tmp_path, capsys):
    inst = formats.InstanceDocument(
        problem=PK.VERTEX_COVER, graph=path_graph(3), k=1
    )
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(formats.emit_instance(inst))
    res_path = tmp_path / "res.json"
    res_path.write_text(formats.emit_result(KernelResult.decided(True)))
    code, out = run_cli(
        capsys, "verify", "kernel-equivalence",
        "--input", str(inst_path), "--result", str(res_path),
    )
    assert code == 0 and json.loads(out)["equivalent"] is True
    res_path.write_text(formats.emit_result(KernelResult.decided(False)))
    code, out = run_cli(
        capsys, "verify", "kernel-equivalence",
        "--input", str(inst_path), "--result", str(res_path),
    )
    assert code == 4


def test_cli_verify_kernel_equivalence_modifies_only_a_graph(tmp_path, capsys):
    """The document's modification is applied to a graph payload before the
    check; a problem on a digraph cannot take one, whatever graph the
    document also carries."""
    res_path = tmp_path / "res.json"
    res_path.write_text(formats.emit_result(KernelResult.decided(False)))
    inst_path = tmp_path / "inst.json"

    def verify(doc):
        inst_path.write_text(formats.emit_instance(doc))
        return run_cli(
            capsys, "verify", "kernel-equivalence",
            "--input", str(inst_path), "--result", str(res_path),
        )

    # Closing the path 0-1-2 into a triangle lifts its cover number to 2.
    code, out = verify(
        formats.InstanceDocument(
            problem=PK.VERTEX_COVER, graph=path_graph(3), k=1,
            modification=EdgeAdd(0, 2),
        )
    )
    assert code == 0 and json.loads(out)["equivalent"] is True
    code, out = verify(
        formats.InstanceDocument(
            problem=PK.LEAF_OUT_TREE,
            digraph=Digraph.from_arcs(3, [(0, 1), (0, 2)]),
            graph=path_graph(3),
            k=2,
            modification=EdgeAdd(0, 2),
        )
    )
    assert (code, out) == (2, "")


def test_cli_size_guard_exit_code(tmp_path, capsys):
    big = Graph.from_edges(25, [(i, i + 1) for i in range(24)])
    path = tmp_path / "big.json"
    path.write_text(formats.emit_instance(formats.InstanceDocument(graph=big)))
    code, _ = run_cli(capsys, "solve", "--problem", "vertex_cover", "--input", str(path))
    assert code == 3


@pytest.mark.slow
def test_cli_size_guard_on_a_long_path_under_a_memory_cap(tmp_path):
    """Five commands that reach the exact oracle on a 3 * 10^5-vertex path
    exit 3 in a subprocess whose address space is capped at 3 GB: no
    command builds the path's adjacency masks before the size guard."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rekern

    n = 300_000
    graph = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    header = {"format": "rekern-instance", "version": 1, "graph": graph, "k": 1}
    docs = {
        "vertex_cover": {**header, "problem": "vertex_cover"},
        "ivst": {
            **header,
            "problem": "ivst",
            "modification": {"op": "edge_add", "u": 0, "v": n - 1},
        },
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    result = tmp_path / "result.json"
    result.write_text(formats.emit_result(KernelResult.decided(True)))
    vc, ivst = str(tmp_path / "vertex_cover.json"), str(tmp_path / "ivst.json")
    commands = [
        ["solve", "--problem", "vertex_cover", "--input", vc],
        ["solve", "--problem", "treewidth", "--input", vc],
        ["solve", "--problem", "connected_vertex_cover", "--input", vc],
        ["reopt", "kernelize", "--problem", "ivst", "--input", ivst],
        ["verify", "kernel-equivalence", "--input", vc, "--result", str(result)],
    ]

    # The child caps its own address space, then runs the command line.
    capped_cli = (
        "import resource, runpy; cap = 3 * 1024**3; "
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
        "runpy.run_module('rekern.cli', run_name='__main__')"
    )
    src = str(Path(rekern.__file__).resolve().parents[1])
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-c", capped_cli, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=600,
        )
        assert (run.returncode, run.stdout) == (3, ""), (argv, run.stderr[-2000:])
        assert run.stderr.startswith("size guard:"), argv


@pytest.mark.slow
@pytest.mark.parametrize(
    "problem, payload",
    [("vertex_cover", "graph"), ("leaf_out_tree", "digraph")],
)
def test_cli_solve_on_a_million_isolated_vertices(problem, payload, tmp_path):
    """``solve`` on 10^6 isolated vertices, each its own component, exits
    0 with value 0 and an empty witness: one pass splits the instance, so
    the cost stays linear in the vertex count."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rekern

    n = 1_000_000
    pairs = "edges" if payload == "graph" else "arcs"
    doc = {
        "format": "rekern-instance",
        "version": 1,
        "problem": problem,
        payload: {"n": n, pairs: []},
    }
    path = tmp_path / "isolated.json"
    path.write_text(json.dumps(doc))
    src = str(Path(rekern.__file__).resolve().parents[1])
    argv = ["solve", "--problem", problem, "--input", str(path)]
    run = subprocess.run(
        [sys.executable, "-m", "rekern.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    out = json.loads(run.stdout)
    assert (out["problem"], out["value"], out["witness"]) == (problem, 0, [])


def test_cli_usage_error():
    assert run_command(["kernelize", "vc", "--mode", "bogus"]) == 2
    assert run_command(["nonsense"]) == 2


@pytest.mark.parametrize("option, value", [("--count", "-1"), ("--max-n", "0")])
def test_cli_corpus_rejects_bad_sizes(option, value, capsys):
    assert run_command(["corpus", "--seed", "1", option, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: {option}")


@pytest.mark.parametrize(
    "command", [["solve", "--problem", "vertex_cover"], ["verify", "solution"]]
)
def test_cli_rejects_a_negative_limit(command, tmp_path, capsys):
    path = tmp_path / "empty.json"
    graph = Graph.from_edges(0)
    doc = formats.InstanceDocument(problem=PK.VERTEX_COVER, graph=graph, k=0)
    path.write_text(formats.emit_instance(doc))
    assert run_command([*command, "--limit", "-1", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: --limit")


def test_cli_deterministic_reports(tmp_path, capsys):
    doc = formats.InstanceDocument(problem=PK.VERTEX_COVER, graph=path_graph(5), k=2)
    path = tmp_path / "inst.json"
    path.write_text(formats.emit_instance(doc))
    _, first = run_cli(capsys, "kernelize", "vc", "--mode", "classic3k", "--input", str(path))
    _, second = run_cli(capsys, "kernelize", "vc", "--mode", "classic3k", "--input", str(path))
    assert first == second


def test_cli_corpus_seeded(tmp_path, capsys):
    code, first = run_cli(capsys, "corpus", "--seed", "9", "--count", "3", "--max-n", "6")
    assert code == 0
    code, second = run_cli(capsys, "corpus", "--seed", "9", "--count", "3", "--max-n", "6")
    assert first == second
    # every emitted document parses and carries a witness and a modification
    chunks = [c for c in first.split("}\n{") if c]
    assert len(first.strip()) > 0


def test_cli_end_to_end_corpus_kernelize_verify(tmp_path, capsys):
    """Artifacts produced by the toolkit verify as equivalent, end to end."""
    corpus_dir = tmp_path / "corpus"
    code, _ = run_cli(
        capsys, "corpus", "--seed", "11", "--count", "6", "--max-n", "8",
        "--out-dir", str(corpus_dir),
    )
    assert code == 0
    instances = sorted(corpus_dir.glob("*.json"))
    assert len(instances) == 6
    for inst_path in instances:
        import sys
        from io import StringIO

        # kernelize via the CLI, capture the result document
        stdin_backup = sys.stdin
        sys.stdin = StringIO(inst_path.read_text())
        try:
            code, out = run_cli(capsys, "kernelize", "vc", "--mode", "reopt2k")
        finally:
            sys.stdin = stdin_backup
        assert code == 0
        result_path = tmp_path / (inst_path.stem + ".result.json")
        result_path.write_text(out)
        code, verdict = run_cli(
            capsys, "verify", "kernel-equivalence",
            "--input", str(inst_path), "--result", str(result_path),
        )
        assert code == 0 and json.loads(verdict)["equivalent"] is True


def test_cli_reopt_generic_and_ivst(tmp_path, capsys):
    from rekern.graphs import disjoint_union, cycle_graph

    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    doc = formats.InstanceDocument(
        problem=PK.IVST, graph=g, k=2, k_modified=2,
        modification=EdgeAdd(0, 3),
    )
    path = tmp_path / "ivst.json"
    path.write_text(formats.emit_instance(doc))
    code, out = run_cli(capsys, "reopt", "kernelize", "--problem", "ivst", "--input", str(path))
    assert code == 0
    assert json.loads(out)["answer"] is True
    code, out = run_cli(
        capsys, "reopt", "kernelize", "--problem", "generic", "--input", str(path),
    )
    assert code == 0
    assert json.loads(out)["answer"] is True


def _malformed_reopt_documents():
    def doc(**changes):
        data = {
            "format": "rekern-instance",
            "version": 1,
            "problem": "vertex_cover",
            "graph": {"n": 3, "edges": [[0, 1]]},
            "k": 1,
            "witness": [0],
            "modification": {"op": "edge_add", "u": 1, "v": 2},
        }
        data.update(changes)
        return data

    return {
        "missing-n": doc(graph={"edges": [[0, 1]]}),
        "one-element-edge": doc(graph={"n": 3, "edges": [[0]]}),
        "non-integer-version": doc(version="x"),
        "edge-add-without-v": doc(modification={"op": "edge_add", "u": 1}),
        "short-labels": doc(graph={"n": 3, "edges": [[0, 1]], "labels": ["a"]}),
        "self-loop-edge": doc(graph={"n": 3, "edges": [[0, 1], [1, 1]]}),
        "out-of-range-arc": doc(digraph={"n": 3, "arcs": [[0, 3]]}),
        "self-loop-arc": doc(digraph={"n": 3, "arcs": [[2, 2]]}),
        "float-endpoint": doc(graph={"n": 3, "edges": [[0, 1.7]]}),
        "float-n": doc(graph={"n": 3.5, "edges": [[0, 1]]}),
        "string-labels": doc(graph={"n": 3, "edges": [[0, 1]], "labels": "abc"}),
        "integer-labels": doc(graph={"n": 3, "edges": [[0, 1]], "labels": [1, 2, 3]}),
        "boolean-k": doc(k=True),
        "boolean-k-modified": doc(k_modified=True),
        "float-witness": doc(witness=[1.9]),
        "boolean-witness": doc(witness=[True]),
        "string-witness": doc(witness="0"),
        "object-witness": doc(witness={"0": 0}),
        "float-modification-u": doc(modification={"op": "edge_add", "u": 0.9, "v": 2}),
        "string-modification-v": doc(modification={"op": "edge_add", "u": 1, "v": "2"}),
        "boolean-edge-del-u": doc(modification={"op": "edge_del", "u": False, "v": 1}),
        "float-vertex-del": doc(modification={"op": "vertex_del", "v": 1.0}),
        "float-neighbor": doc(modification={"op": "vertex_add", "neighbors": [0, 1.0]}),
        "string-neighbors": doc(modification={"op": "vertex_add", "neighbors": "01"}),
        "float-digraph-n": doc(digraph={"n": 3.0, "arcs": [[0, 1]]}),
        "float-arc": doc(digraph={"n": 3, "arcs": [[0, 1.5]]}),
        "float-universe": doc(set_cover={"universe": 2.0, "family": [[1], [2]], "k": 1}),
        "float-family-item": doc(set_cover={"universe": 2, "family": [[1], [2.7]], "k": 1}),
        "string-family": doc(set_cover={"universe": 2, "family": ["12"], "k": 1}),
        "boolean-set-cover-k": doc(set_cover={"universe": 2, "family": [[1], [2]], "k": True}),
        "string-version": doc(version="1"),
        "float-version": doc(version=1.5),
        "boolean-version": doc(version=True),
    }


@pytest.mark.parametrize("name", sorted(_malformed_reopt_documents()))
def test_cli_malformed_document_is_a_usage_error(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed_reopt_documents()[name]))
    code, out = run_cli(
        capsys, "kernelize", "vc", "--mode", "reopt2k", "--input", str(path)
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize("witness", [[0, 2, 9], [0, 2, -1]])
def test_cli_reopt_rejects_out_of_range_witness(witness, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "format": "rekern-instance",
                "version": 1,
                "problem": "vertex_cover",
                "graph": {"n": 4, "edges": [[0, 1], [2, 3]]},
                "k": 3,
                "k_modified": 3,
                "witness": witness,
                "modification": {"op": "edge_add", "u": 1, "v": 3},
            }
        )
    )
    code, out = run_cli(
        capsys, "kernelize", "vc", "--mode", "reopt2k", "--input", str(path)
    )
    assert code == 4 and out == ""


def _ivst_document(graph, k, witness, added=(2, 3)):
    return json.dumps(
        {
            "format": "rekern-instance",
            "version": 1,
            "problem": "ivst",
            "graph": graph,
            "k": k,
            "modification": {"op": "edge_add", "u": added[0], "v": added[1]},
            "witness": witness,
        }
    )


@pytest.mark.parametrize("problem", ["ivst", "generic"])
def test_cli_reopt_rejects_a_witness_that_is_not_a_subtree(problem, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(_ivst_document({"n": 4, "edges": []}, 1, [[0, 1], [1, 9]]))
    code, out = run_cli(
        capsys, "reopt", "kernelize", "--problem", problem, "--input", str(path)
    )
    assert code == 4 and out == ""


@pytest.mark.parametrize("problem", ["ivst", "generic"])
def test_cli_reopt_accepts_a_subtree_witness(problem, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(
        _ivst_document(
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
            2,
            [[0, 1], [1, 2], [2, 3]],
            added=(0, 3),
        )
    )
    code, out = run_cli(
        capsys, "reopt", "kernelize", "--problem", problem, "--input", str(path)
    )
    assert code == 0 and json.loads(out)["answer"] is True


def test_cli_reopt2k_on_a_long_augmenting_chain(tmp_path, capsys):
    """A staircase of 5,000 A-vertices: A-vertex i is adjacent to B-vertices
    i - 1 and i, and a leaf hangs off the top A-vertex.  Adding the edge
    from the top B-vertex to the leaf needs no rematch and takes the
    degenerate case 5 branch, at the default recursion limit."""
    a_side = 5000
    edges = [[i, a_side + i] for i in range(a_side)]
    edges += [[i, a_side + i - 1] for i in range(1, a_side)]
    edges.append([a_side - 1, 2 * a_side])
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps(
            {
                "format": "rekern-instance",
                "version": 1,
                "problem": "vertex_cover",
                "graph": {"n": 2 * a_side + 1, "edges": edges},
                "k": a_side,
                "k_modified": a_side,
                "witness": list(range(a_side)),
                "modification": {"op": "edge_add", "u": 2 * a_side - 1, "v": 2 * a_side},
            }
        )
    )
    code, out = run_cli(
        capsys, "kernelize", "vc", "--mode", "reopt2k", "--input", str(path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["notes"]["branch"] == "case5"
    assert payload["notes"]["trace"] == ["case5-degenerate"]
    assert payload["graph"]["n"] == 2 * a_side + 1


def _write_document(tmp_path, **fields):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps({"format": "rekern-instance", "version": 1, **fields})
    )
    return str(path)


@pytest.mark.parametrize(
    "problem, k",
    [
        ("clique", 1),
        ("longest_path", 0),
        ("vertex_cover", 1),
        ("connected_vertex_cover", 1),
    ],
)
def test_cli_verify_solution_rejects_a_vertex_outside_the_graph(
    problem, k, tmp_path, capsys
):
    path = _write_document(
        tmp_path, problem=problem, graph={"n": 0, "edges": []}, k=k, witness=[9]
    )
    code, out = run_cli(capsys, "verify", "solution", "--input", path)
    assert code == 4 and json.loads(out)["valid"] is False


def test_cli_document_without_its_payload_is_a_usage_error(tmp_path, capsys):
    path = _write_document(tmp_path, problem="set_cover", k=1, witness=[0])
    result = tmp_path / "result.json"
    result.write_text(formats.emit_result(KernelResult.decided(True)))
    code, out = run_cli(capsys, "verify", "solution", "--input", path)
    assert code == 2 and out == ""
    code, out = run_cli(
        capsys, "verify", "kernel-equivalence", "--input", path,
        "--result", str(result),
    )
    assert code == 2 and out == ""
    code, out = run_cli(capsys, "solve", "--problem", "set_cover", "--input", path)
    assert code == 2 and out == ""


def test_cli_longest_path_witness_broken_by_a_deletion(tmp_path, capsys):
    path = _write_document(
        tmp_path,
        problem="longest_path",
        graph={"n": 3, "edges": [[0, 1], [1, 2]]},
        k=2,
        witness=[0, 1, 2],
        modification={"op": "edge_del", "u": 0, "v": 1},
    )
    code, out = run_cli(
        capsys, "reopt", "kernelize", "--problem", "generic", "--input", path
    )
    assert code == 0 and json.loads(out)["answer"] is False


def test_cli_treewidth_witness_round_trips(tmp_path, capsys):
    graph = {"n": 3, "edges": [[0, 1], [1, 2]]}
    path = _write_document(tmp_path, problem="treewidth", graph=graph, k=1)
    code, out = run_cli(capsys, "solve", "--problem", "treewidth", "--input", path)
    assert code == 0
    witness = json.loads(out)["witness"]
    path = _write_document(
        tmp_path, problem="treewidth", graph=graph, k=1, witness=witness
    )
    code, out = run_cli(capsys, "verify", "solution", "--input", path)
    assert code == 0 and json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "witness",
    [
        [0, 1],
        {"bags": [[0, 1]]},
        {"bags": [[0, 1]], "tree": [[0, 1]]},
        {"bags": [["a"]], "tree": []},
        {"bags": [0], "tree": []},
    ],
)
def test_cli_malformed_treewidth_witness_is_a_usage_error(witness, tmp_path, capsys):
    path = _write_document(
        tmp_path,
        problem="treewidth",
        graph={"n": 3, "edges": [[0, 1], [1, 2]]},
        k=1,
        witness=witness,
    )
    code, out = run_cli(capsys, "verify", "solution", "--input", path)
    assert code == 2 and out == ""


_PATH_GRAPH = {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}}
_PAIR_WITNESSES = [[[0, 1], [1, 2.0]], [[0, True]], [[0, 1, 2]], [0, 1], "01"]
_SET_WITNESSES = [[1.9], [True], "1", {"1": 1}]

# problem -> (payload and k, a well-typed witness, ill-typed witnesses)
_WITNESS_CASES = {
    "vertex_cover": ({**_PATH_GRAPH, "k": 1}, [1], _SET_WITNESSES),
    "connected_vertex_cover": ({**_PATH_GRAPH, "k": 1}, [1], _SET_WITNESSES),
    "clique": ({**_PATH_GRAPH, "k": 2}, [0, 1], _SET_WITNESSES),
    "longest_path": ({**_PATH_GRAPH, "k": 2}, [0, 1, 2], [[0, 1.0, 2], [0, True], "012"]),
    "ivst": ({**_PATH_GRAPH, "k": 1}, [[0, 1], [1, 2]], _PAIR_WITNESSES),
    "leaf_out_tree": (
        {"digraph": {"n": 3, "arcs": [[0, 1], [0, 2]]}, "k": 2},
        [[0, 1], [0, 2]],
        _PAIR_WITNESSES,
    ),
    "set_cover": (
        {"set_cover": {"universe": 2, "family": [[1], [2], [1, 2]], "k": 1}, "k": 1},
        [2],
        [[2.0], [True], "2"],
    ),
    "treewidth": (
        {**_PATH_GRAPH, "k": 1},
        {"bags": [[0, 1], [1, 2]], "tree": [[0, 1]]},
        [
            {"bags": [[0, 1.0], [1, 2]], "tree": [[0, 1]]},
            {"bags": [[0, True], [1, 2]], "tree": [[0, 1]]},
            {"bags": ["01", [1, 2]], "tree": [[0, 1]]},
            {"bags": "01", "tree": []},
            {"bags": [[0, 1], [1, 2]], "tree": [[0, 1.0]]},
            {"bags": [[0, 1], [1, 2]], "tree": [[0, 1, 0]]},
            {"bags": [[0, 1], [1, 2]], "tree": "01"},
        ],
    ),
}


@pytest.mark.parametrize(
    "problem, witness, code",
    [
        pytest.param(problem, witness, code, id=f"{problem}-{i}")
        for problem, (_, good, bad) in _WITNESS_CASES.items()
        for i, (witness, code) in enumerate([(good, 0)] + [(w, 2) for w in bad])
    ],
)
def test_cli_verify_solution_reads_every_witness_item_as_an_integer(
    problem, witness, code, tmp_path, capsys
):
    """A witness item that is not a JSON integer (a float, a boolean, a
    string), or a witness that is not a list or a {bags, tree} object, is a
    usage error; the same document with a well-typed witness verifies."""
    fields, _, _ = _WITNESS_CASES[problem]
    path = _write_document(tmp_path, problem=problem, witness=witness, **fields)
    got, out = run_cli(capsys, "verify", "solution", "--input", path)
    assert got == code
    assert (json.loads(out)["valid"] is True) if code == 0 else out == ""


def _treewidth_reopt_document(tmp_path, graph, witness):
    return _write_document(
        tmp_path,
        problem="treewidth",
        graph=graph,
        k=1,
        witness=witness,
        modification={"op": "edge_add", "u": 3, "v": 4},
    )


def test_cli_reopt_rejects_an_invalid_decomposition(tmp_path, capsys):
    """At k' = k the AND dispatch re-checks only the new edge's component,
    so a decomposition that hides the triangle would answer yes."""
    path = _treewidth_reopt_document(
        tmp_path,
        {"n": 5, "edges": [[0, 1], [0, 2], [1, 2]]},
        {"bags": [[0, 1], [1, 2], [3], [4]], "tree": [[0, 1], [1, 2], [2, 3]]},
    )
    code, out = run_cli(
        capsys, "reopt", "kernelize", "--problem", "generic", "--input", path
    )
    assert code == 4 and out == ""


def test_cli_reopt_accepts_a_valid_decomposition(tmp_path, capsys):
    path = _treewidth_reopt_document(
        tmp_path,
        {"n": 5, "edges": [[0, 1], [1, 2]]},
        {"bags": [[0, 1], [1, 2], [3], [4]], "tree": [[0, 1], [1, 2], [2, 3]]},
    )
    code, out = run_cli(
        capsys, "reopt", "kernelize", "--problem", "generic", "--input", path
    )
    assert code == 0 and json.loads(out)["answer"] is True
