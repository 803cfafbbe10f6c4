import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekern import formats
from rekern.cli import run_command
from rekern.errors import ParseError
from rekern.graphs import EdgeAdd, EdgeDel, Graph, VertexAdd, VertexDel, path_graph
from rekern.instances import KernelResult
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


def test_witness_shapes_round_trip():
    doc = formats.InstanceDocument(
        problem=PK.IVST, graph=path_graph(4), witness=frozenset({(0, 1), (1, 2)})
    )
    back = formats.parse_instance(formats.emit_instance(doc))
    assert back.witness == frozenset({(0, 1), (1, 2)})
    doc = formats.InstanceDocument(
        problem=PK.LONGEST_PATH, graph=path_graph(4), witness=(0, 1, 2)
    )
    back = formats.parse_instance(formats.emit_instance(doc))
    assert back.witness == (0, 1, 2)


def test_dimacs_round_trip_and_indexing():
    text = "p edge 3 2\ne 1 2\ne 2 3\n"
    g = formats.parse_dimacs(text)
    assert g == path_graph(3)
    assert formats.emit_dimacs(g) == text


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


def test_cli_size_guard_exit_code(tmp_path, capsys):
    big = Graph.from_edges(25, [(i, i + 1) for i in range(24)])
    path = tmp_path / "big.json"
    path.write_text(formats.emit_instance(formats.InstanceDocument(graph=big)))
    code, _ = run_cli(capsys, "solve", "--problem", "vertex_cover", "--input", str(path))
    assert code == 3


def test_cli_usage_error():
    assert run_command(["kernelize", "vc", "--mode", "bogus"]) == 2
    assert run_command(["nonsense"]) == 2


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
