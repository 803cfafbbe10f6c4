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
from .problems import ProblemKind
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
        return EdgeAdd(int(data["u"]), int(data["v"]))
    if op == "edge_del":
        return EdgeDel(int(data["u"]), int(data["v"]))
    if op == "vertex_del":
        return VertexDel(int(data["v"]))
    if op == "vertex_add":
        return VertexAdd(frozenset(int(x) for x in data["neighbors"]))
    raise ParseError(f"unknown modification op {op!r}")


def _witness_to_json(witness: Any) -> Any:
    if witness is None:
        return None
    if isinstance(witness, TreeDecomposition):
        bags = [sorted(bag) for bag in witness.bags]
        return {"bags": bags, "tree": witness.tree.sorted_edges()}
    if isinstance(witness, (frozenset, set)):
        items = sorted(witness)
        if items and isinstance(items[0], tuple):
            return [list(t) for t in items]
        return items
    if isinstance(witness, tuple):
        return list(witness)
    return witness


def _witness_from_json(data: Any, problem: ProblemKind | None) -> Any:
    if data is None:
        return None
    if problem is ProblemKind.TREEWIDTH:
        _require(isinstance(data, dict), "treewidth witness must be {bags, tree}")
        bags = tuple(frozenset(int(x) for x in bag) for bag in data["bags"])
        tree = Graph.from_edges(len(bags), [(int(a), int(b)) for a, b in data["tree"]])
        return TreeDecomposition(tree, bags)
    if problem is ProblemKind.LONGEST_PATH:
        return tuple(int(x) for x in data)
    if problem in (ProblemKind.IVST, ProblemKind.LEAF_OUT_TREE):
        return frozenset((int(u), int(v)) for u, v in data)
    if problem is ProblemKind.SET_COVER:
        return tuple(int(x) for x in data)
    return frozenset(int(x) for x in data)


def _graph_to_json(g: Graph) -> dict[str, Any]:
    payload: dict[str, Any] = {"n": g.n, "edges": g.sorted_edges()}
    if g.labels is not None:
        payload["labels"] = list(g.labels)
    return payload


def _graph_from_json(data: dict[str, Any]) -> Graph:
    """``Graph`` itself rejects self-loops and out-of-range edges."""
    edges = [(int(u), int(v)) for u, v in data.get("edges", [])]
    return Graph.from_edges(int(data["n"]), edges, labels=data.get("labels"))


def emit_instance(doc: InstanceDocument) -> str:
    """Serialize a document to canonical (sorted-key) JSON text."""
    payload: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
    }
    if doc.problem is not None:
        payload["problem"] = doc.problem.value
    if doc.graph is not None:
        payload["graph"] = _graph_to_json(doc.graph)
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
        payload["witness"] = _witness_to_json(doc.witness)
    if doc.modification is not None:
        payload["modification"] = _modification_to_json(doc.modification)
    if doc.notes:
        payload["notes"] = doc.notes
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


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
    _require(int(data.get("version", 0)) == FORMAT_VERSION, "unsupported version")
    doc = InstanceDocument()
    if "problem" in data:
        try:
            doc.problem = ProblemKind(data["problem"])
        except ValueError as exc:
            raise ParseError(f"unknown problem kind {data['problem']!r}") from exc
    if "graph" in data:
        doc.graph = _graph_from_json(data["graph"])
    if "digraph" in data:
        dd = data["digraph"]
        arcs = [(int(u), int(v)) for u, v in dd.get("arcs", [])]
        doc.digraph = Digraph.from_arcs(int(dd["n"]), arcs)
    if "set_cover" in data:
        sd = data["set_cover"]
        doc.set_cover = SetCoverInstance.of(
            int(sd["universe"]),
            [set(int(x) for x in member) for member in sd["family"]],
            int(sd["k"]),
        )
    if "k" in data:
        doc.k = int(data["k"])
    if "k_modified" in data:
        doc.k_modified = int(data["k_modified"])
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
        payload["graph"] = _graph_to_json(result.graph)
        payload["parameter"] = result.parameter
        if result.size_bound_claim is not None:
            payload["size_bound_claim"] = result.size_bound_claim
    if notes:
        payload["notes"] = notes
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@as_parse_error("result document")
def parse_result(text: str) -> KernelResult:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(data, dict), "top-level JSON value must be an object")
    _require(data.get("format") == RESULT_FORMAT, "not a rekern result document")
    kind = data.get("kind")
    if kind == "decided":
        return KernelResult.decided(bool(data["answer"]))
    if kind == "reduced":
        return KernelResult.reduced(
            _graph_from_json(data["graph"]),
            int(data["parameter"]),
            data.get("size_bound_claim"),
        )
    raise ParseError(f"unknown result kind {kind!r}")
