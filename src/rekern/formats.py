"""Instance documents: a canonical JSON format and a DIMACS-like edge list.

The canonical format is versioned and lossless for every field the
toolkit uses (problem kind, graph or set-cover payload, parameters,
witness, modification, labels).  The DIMACS-like format carries only the
graph and is 1-indexed on the wire, 0-indexed in the model.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

from .decomposition import TreeDecomposition
from .errors import ParseError
from .graphs import (
    Digraph,
    EdgeAdd,
    EdgeDel,
    Graph,
    LocalModification,
    VertexAdd,
    VertexDel,
)
from .instances import KernelResult
from .problems import PROBLEMS, ProblemKind, WitnessShape
from .setcover import SetCoverInstance

FORMAT_NAME = "rekern-instance"
FORMAT_VERSION = 1


@dataclass
class InstanceDocument:
    """Everything one command needs to know about one instance."""

    problem: ProblemKind | None = None
    graph: Graph | None = None
    digraph: Digraph | None = None
    set_cover: SetCoverInstance | None = None
    k: int | None = None
    k_modified: int | None = None
    witness: Any | None = None
    modification: LocalModification | None = None
    notes: dict[str, Any] = field(default_factory=dict)


def _modification_to_json(m: LocalModification) -> dict[str, Any]:
    if isinstance(m, EdgeAdd):
        return {"op": "edge_add", "u": m.u, "v": m.v}
    if isinstance(m, EdgeDel):
        return {"op": "edge_del", "u": m.u, "v": m.v}
    if isinstance(m, VertexDel):
        return {"op": "vertex_del", "v": m.v}
    return {"op": "vertex_add", "neighbors": sorted(m.neighbors)}


def _modification_from_json(data: dict[str, Any]) -> LocalModification:
    op = data.get("op")
    if op == "edge_add":
        return EdgeAdd(_json_int(data["u"], "u"), _json_int(data["v"], "v"))
    if op == "edge_del":
        return EdgeDel(_json_int(data["u"], "u"), _json_int(data["v"], "v"))
    if op == "vertex_del":
        return VertexDel(_json_int(data["v"], "v"))
    if op == "vertex_add":
        return VertexAdd(frozenset(_json_ints(data["neighbors"], "neighbors")))
    raise ParseError(f"unknown modification op {op!r}")


def _decomposition_from_json(data: Any) -> TreeDecomposition:
    _require(isinstance(data, dict), "a tree decomposition must be {bags, tree}")
    bags = tuple(
        frozenset(_json_ints(bag, "witness bag"))
        for bag in _json_list(data["bags"], "witness bags")
    )
    tree = Graph.from_edges(len(bags), _json_pairs(data["tree"], "witness tree"))
    return TreeDecomposition(tree, bags)


_WITNESS_READERS = {
    WitnessShape.VERTEX_SET: lambda data: frozenset(_json_ints(data, "witness")),
    WitnessShape.VERTEX_SEQUENCE: lambda data: tuple(_json_ints(data, "witness")),
    WitnessShape.PAIR_SET: lambda data: frozenset(_json_pairs(data, "witness")),
    WitnessShape.TREE_DECOMPOSITION: _decomposition_from_json,
}
_WITNESS_WRITERS = {
    WitnessShape.VERTEX_SET: sorted,
    WitnessShape.VERTEX_SEQUENCE: list,
    WitnessShape.PAIR_SET: lambda pairs: [list(pair) for pair in sorted(pairs)],
    WitnessShape.TREE_DECOMPOSITION: lambda td: {
        "bags": [sorted(bag) for bag in td.bags],
        "tree": td.tree.sorted_edges(),
    },
}


def _witness_shape(problem: ProblemKind | None) -> WitnessShape:
    """A document that names no problem carries a vertex set."""
    return WitnessShape.VERTEX_SET if problem is None else PROBLEMS[problem].witness


def _witness_to_json(witness: Any, problem: ProblemKind | None) -> Any:
    if witness is None:
        return None
    return _WITNESS_WRITERS[_witness_shape(problem)](witness)


def _witness_from_json(data: Any, problem: ProblemKind | None) -> Any:
    if data is None:
        return None
    return _WITNESS_READERS[_witness_shape(problem)](data)


def _json_int(value: Any, what: str) -> int:
    """A JSON integer; ``bool`` is an ``int`` subclass, so it fails here."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value: Any, what: str) -> list[Any]:
    if type(value) is not list:
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


def _json_ints(value: Any, what: str) -> list[int]:
    return [_json_int(x, f"{what} item") for x in _json_list(value, what)]


def _json_pairs(value: Any, what: str) -> list[tuple[int, int]]:
    pairs = []
    for pair in _json_list(value, what):
        ends = _json_ints(pair, f"{what} pair")
        _require(len(ends) == 2, f"{what} pair must have two items, got {pair!r}")
        pairs.append((ends[0], ends[1]))
    return pairs


def _graph_from_json(data: dict[str, Any]) -> Graph:
    """One normalized tuple per edge; ``Graph`` itself rejects self-loops
    and out-of-range edges."""
    n = _json_int(data["n"], "n")
    edges = []
    for u, v in data.get("edges", []):
        if type(u) is not int or type(v) is not int:
            raise ParseError(f"edge endpoints must be integers, got {[u, v]!r}")
        edges.append((u, v) if u < v else (v, u))
    labels = data.get("labels")
    if labels is not None:
        _require(
            type(labels) is list and all(type(x) is str for x in labels),
            "labels must be a list of strings",
        )
        labels = tuple(labels)
    return Graph(n, frozenset(edges), labels)


def _list_text(items: list[str], pad: str) -> str:
    """A JSON list of already written items, as ``indent=2`` lays it out
    on a line indented by ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _graph_text(g: Graph, pad: str) -> str:
    """The JSON object ``{"edges", "labels", "n"}`` of ``g``, edges sorted,
    as ``json.dumps(..., sort_keys=True, indent=2)`` writes it on a line
    indented by ``pad``, but without the pure-Python encoder that
    ``indent`` selects: one string per edge and per label."""
    keys = pad + "  "
    items = keys + "  "
    ends = items + "  "
    edges = [f"[\n{ends}{u},\n{ends}{v}\n{items}]" for u, v in g.sorted_edges()]
    fields = [f'"edges": {_list_text(edges, keys)}']
    if g.labels is not None:
        labels = [encode_basestring_ascii(label) for label in g.labels]
        fields.append(f'"labels": {_list_text(labels, keys)}')
    fields.append(f'"n": {g.n}')
    return "{\n" + keys + (",\n" + keys).join(fields) + "\n" + pad + "}"


def _document_text(payload: dict[str, Any]) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, with each
    ``Graph`` value written by ``_graph_text``."""
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, Graph):
            text = _graph_text(value, "  ")
        else:
            text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def emit_instance(doc: InstanceDocument) -> str:
    """Serialize a document to canonical (sorted-key) JSON text."""
    payload: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
    }
    if doc.problem is not None:
        payload["problem"] = doc.problem.value
    if doc.graph is not None:
        payload["graph"] = doc.graph
    if doc.digraph is not None:
        payload["digraph"] = {"n": doc.digraph.n, "arcs": sorted(doc.digraph.arcs)}
    if doc.set_cover is not None:
        payload["set_cover"] = {
            "universe": doc.set_cover.universe_size,
            "family": [sorted(m) for m in doc.set_cover.family],
            "k": doc.set_cover.k,
        }
    if doc.k is not None:
        payload["k"] = doc.k
    if doc.k_modified is not None:
        payload["k_modified"] = doc.k_modified
    if doc.witness is not None:
        payload["witness"] = _witness_to_json(doc.witness, doc.problem)
    if doc.modification is not None:
        payload["modification"] = _modification_to_json(doc.modification)
    if doc.notes:
        payload["notes"] = doc.notes
    return _document_text(payload)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def problem_kind(name: Any) -> ProblemKind:
    """The problem kind named ``name``; any other name is a usage error."""
    try:
        return ProblemKind(name)
    except ValueError:
        raise ParseError(f"unknown problem kind {name!r}") from None


@contextmanager
def as_parse_error(what: str) -> Iterator[None]:
    """Report a missing or ill-typed field inside the block as a ParseError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {exc!r}") from exc


@as_parse_error("instance document")
def _parse_json_instance(data: dict[str, Any]) -> InstanceDocument:
    _require(data.get("format") == FORMAT_NAME, "not a rekern instance document")
    version = _json_int(data.get("version", 0), "version")
    _require(version == FORMAT_VERSION, "unsupported version")
    doc = InstanceDocument()
    if "problem" in data:
        doc.problem = problem_kind(data["problem"])
    if "graph" in data:
        doc.graph = _graph_from_json(data["graph"])
    if "digraph" in data:
        dd = data["digraph"]
        doc.digraph = Digraph.from_arcs(
            _json_int(dd["n"], "digraph n"), _json_pairs(dd.get("arcs", []), "arcs")
        )
    if "set_cover" in data:
        sd = data["set_cover"]
        doc.set_cover = SetCoverInstance.of(
            _json_int(sd["universe"], "universe"),
            [
                _json_ints(member, "family member")
                for member in _json_list(sd["family"], "family")
            ],
            _json_int(sd["k"], "set cover k"),
        )
    if "k" in data:
        doc.k = _json_int(data["k"], "k")
    if "k_modified" in data:
        doc.k_modified = _json_int(data["k_modified"], "k_modified")
    if "witness" in data:
        doc.witness = _witness_from_json(data["witness"], doc.problem)
    if "modification" in data:
        doc.modification = _modification_from_json(data["modification"])
    if "notes" in data:
        doc.notes = dict(data["notes"])
    return doc


def parse_dimacs(text: str) -> Graph:
    """DIMACS-like edge list: ``p edge n m`` then ``e u v`` (1-indexed)."""
    n: int | None = None
    declared_m: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            _require(n is None, f"line {lineno}: second problem line")
            _require(
                len(parts) == 4 and parts[1] == "edge",
                f"line {lineno}: expected 'p edge <n> <m>'",
            )
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer sizes") from None
            _require(n >= 0, f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            _require(n is not None, f"line {lineno}: edge before problem line")
            _require(len(parts) == 3, f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoints") from None
            _require(
                1 <= u <= n and 1 <= v <= n,
                f"line {lineno}: endpoint out of range 1..{n}",
            )
            _require(u != v, f"line {lineno}: self-loop")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    _require(n is not None, "missing 'p edge' line")
    if declared_m is not None and declared_m != len(edges):
        raise ParseError(
            f"problem line declares {declared_m} edges, found {len(edges)}"
        )
    return Graph.from_edges(n, edges)


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> InstanceDocument:
    """Parse either format; JSON documents start with '{'."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input")
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError("top-level JSON value must be an object")
        return _parse_json_instance(data)
    return InstanceDocument(graph=parse_dimacs(text))


# --- kernel result documents --------------------------------------------------

RESULT_FORMAT = "rekern-result"


def emit_result(result: KernelResult, notes: dict[str, Any] | None = None) -> str:
    payload: dict[str, Any] = {"format": RESULT_FORMAT, "version": FORMAT_VERSION}
    if result.is_decided:
        payload["kind"] = "decided"
        payload["answer"] = result.answer
    else:
        payload["kind"] = "reduced"
        payload["graph"] = result.graph
        payload["parameter"] = result.parameter
        if result.size_bound_claim is not None:
            payload["size_bound_claim"] = result.size_bound_claim
    if notes:
        payload["notes"] = notes
    return _document_text(payload)


@as_parse_error("result document")
def parse_result(text: str) -> KernelResult:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(data, dict), "top-level JSON value must be an object")
    _require(data.get("format") == RESULT_FORMAT, "not a rekern result document")
    version = _json_int(data.get("version", 0), "version")
    _require(version == FORMAT_VERSION, "unsupported version")
    kind = data.get("kind")
    if kind == "decided":
        answer = data["answer"]
        _require(type(answer) is bool, f"answer must be a boolean, got {answer!r}")
        return KernelResult.decided(answer)
    if kind == "reduced":
        claim = None
        if "size_bound_claim" in data:
            claim = _json_int(data["size_bound_claim"], "size_bound_claim")
        return KernelResult.reduced(
            _graph_from_json(data["graph"]),
            _json_int(data["parameter"], "parameter"),
            claim,
        )
    raise ParseError(f"unknown result kind {kind!r}")
