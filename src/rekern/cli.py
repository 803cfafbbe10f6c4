"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 size-guard refusal, 4 validation
failure.  Every command reads instance documents (canonical JSON or
DIMACS-like edge list) and writes a machine-readable JSON report to
standard output; identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any

from . import formats
from .crown import CrownDecomposition, validate_crown
from .errors import ParseError, PreconditionViolated, RekernError, SizeGuardExceeded
from .framework import (
    builtin_spec,
    compositional_reopt_kernelize,
    exact_component_kernelizer,
    ivst_reopt_kernelize_eplus,
)
from .gadgets import (
    build_clique_reopt_instance,
    build_extremal,
    build_negative_reopt_instance,
    build_setcover_cvc,
)
from .graphs import EdgeAdd, apply_modification
from .instances import ReoptInstance
from .matching import Matching
from .oracles import (
    membership,
    solve_exact,
    verify_kernel_equivalence,
    verify_solution,
)
from .problems import PROBLEMS, ProblemKind
from .setcover import SetCoverInstance
from .smallgraphs import random_graph
from .vc_kernels import reopt_vc_kernelize_2k_report, vc_kernelize_3k

USAGE_ERROR = 2
SIZE_GUARD_ERROR = 3
VALIDATION_ERROR = 4


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_instance(path: str | None) -> formats.InstanceDocument:
    return formats.parse_instance(_read_text(path))


def _print_json(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _instance_payload(doc: formats.InstanceDocument, kind: ProblemKind) -> Any:
    payload = getattr(doc, PROBLEMS[kind].payload)
    if payload is None:
        raise ParseError(f"document carries no instance for {kind.value}")
    return payload


def _reopt_instance_from_doc(
    doc: formats.InstanceDocument, problem: ProblemKind
) -> ReoptInstance:
    if doc.graph is None:
        raise ParseError("instance document carries no graph")
    if doc.k is None or doc.modification is None:
        raise ParseError("reoptimization needs 'k' and 'modification' fields")
    k_modified = doc.k_modified if doc.k_modified is not None else doc.k
    return ReoptInstance(
        problem, doc.graph, doc.k, doc.witness, doc.modification, k_modified
    )


def _cmd_kernelize(args: argparse.Namespace) -> int:
    """Parse, kernelize and emit with the cyclic garbage collector paused.

    This path builds only acyclic values (tuples, frozensets, frozen
    dataclasses), which reference counting frees, so a collection here
    only re-walks large live graphs.  The collector is switched back on
    afterwards if it was on before.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _kernelize(args)
    finally:
        if collecting:
            gc.enable()


def _kernelize(args: argparse.Namespace) -> int:
    doc = _load_instance(args.input)
    if args.mode == "classic3k":
        if doc.graph is None or doc.k is None:
            raise ParseError("classic kernel needs a graph and 'k'")
        result = vc_kernelize_3k(doc.graph, doc.k)
        sys.stdout.write(formats.emit_result(result, notes={"mode": "classic3k"}))
        return 0
    inst = _reopt_instance_from_doc(doc, ProblemKind.VERTEX_COVER)
    report = reopt_vc_kernelize_2k_report(inst)
    sys.stdout.write(
        formats.emit_result(
            report.result,
            notes={
                "mode": "reopt2k",
                "branch": report.branch,
                "trace": list(report.trace),
            },
        )
    )
    return 0


def _check_witness(inst: ReoptInstance) -> None:
    """The dispatch trusts the witness: an OR-compositional problem answers
    yes from it alone, an AND-compositional one re-checks only the
    environment of the modification.  So the witness must solve the
    original instance at ``k``.  A witness of the wrong shape (say, a
    vertex list for IVST) is a usage error."""
    if inst.witness is None:
        return
    with formats.as_parse_error("witness"):
        valid = verify_solution(inst.problem, inst.original, inst.witness, inst.k)
    if not valid:
        raise PreconditionViolated(
            f"witness does not solve the original {inst.problem.value} "
            f"instance at k = {inst.k}"
        )


def _cmd_reopt(args: argparse.Namespace) -> int:
    doc = _load_instance(args.input)
    problem = ProblemKind.IVST if args.problem == "ivst" else doc.problem
    if problem is None:
        raise ParseError("generic dispatch needs the document's problem kind")
    inst = _reopt_instance_from_doc(doc, problem)
    ck = exact_component_kernelizer(problem)
    if args.problem == "ivst":
        _check_witness(inst)
        result = ivst_reopt_kernelize_eplus(inst, ck)
    else:
        spec = builtin_spec(problem)
        _check_witness(inst)
        result = compositional_reopt_kernelize(inst, spec, ck)
    sys.stdout.write(formats.emit_result(result, notes={"problem": problem.value}))
    return 0


def _cmd_gadget(args: argparse.Namespace) -> int:
    if args.builder == "setcover-cvc":
        with formats.as_parse_error("--family"):
            family = [formats._json_ints(json.loads(m), "--family") for m in args.family]
        sc = SetCoverInstance.of(args.universe, family, args.k)
        gadget = build_setcover_cvc(sc)
        inst = gadget.reopt_instance()
        doc = formats.InstanceDocument(
            problem=ProblemKind.CONNECTED_VERTEX_COVER,
            graph=gadget.graph,
            set_cover=sc,
            k=inst.k,
            k_modified=inst.k_modified,
            witness=inst.witness,
            modification=inst.modification,
            notes={"budget_c": gadget.budget_c},
        )
        sys.stdout.write(formats.emit_instance(doc))
        return 0
    if args.builder == "extremal":
        kind = formats.problem_kind(args.problem)
        block = {PROBLEMS[kind].payload: build_extremal(kind, args.k)}
        doc = formats.InstanceDocument(problem=kind, k=args.k, **block)
        sys.stdout.write(formats.emit_instance(doc))
        return 0
    doc_in = _load_instance(args.input)
    if doc_in.graph is None:
        raise ParseError("builder needs an input graph document")
    if args.builder == "negative":
        kind = formats.problem_kind(args.problem)
        inst = build_negative_reopt_instance(
            kind, doc_in.graph, args.k, mode=args.mode
        )
    else:  # clique-reopt
        inst = build_clique_reopt_instance(doc_in.graph, args.k, mode=args.mode)
    doc = formats.InstanceDocument(
        problem=inst.problem,
        graph=inst.original,
        k=inst.k,
        k_modified=inst.k_modified,
        witness=inst.witness,
        modification=inst.modification,
    )
    sys.stdout.write(formats.emit_instance(doc))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    kind = formats.problem_kind(args.problem)
    doc = _load_instance(args.input)
    instance: Any = _instance_payload(doc, kind)
    solution = solve_exact(kind, instance, limit=args.limit)
    payload: dict[str, Any] = {
        "problem": kind.value,
        "value": solution.value,
        "witness": formats._witness_to_json(solution.witness, kind),
    }
    if doc.k is not None:
        payload["k"] = doc.k
        payload["member"] = membership(kind, instance, doc.k, limit=args.limit)
    _print_json(payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = _load_instance(args.input)
    if args.what == "crown":
        if doc.graph is None:
            raise ParseError("crown verification needs a graph")
        crown_data = doc.notes.get("crown")
        if crown_data is None:
            raise ParseError("document notes must carry a 'crown' object")
        with formats.as_parse_error("crown notes"):
            cd = CrownDecomposition.of(
                formats._json_ints(crown_data["C"], "crown C"),
                formats._json_ints(crown_data["H"], "crown H"),
                formats._json_ints(crown_data["R"], "crown R"),
                Matching.of(formats._json_pairs(crown_data["M"], "crown M")),
            )
        violations = validate_crown(doc.graph, cd)
        _print_json({"valid": not violations, "violations": violations})
        return 0 if not violations else VALIDATION_ERROR
    if args.what == "solution":
        if doc.problem is None or doc.k is None:
            raise ParseError("solution verification needs 'problem' and 'k'")
        instance: Any = _instance_payload(doc, doc.problem)
        ok = verify_solution(doc.problem, instance, doc.witness, doc.k)
        _print_json({"valid": ok})
        return 0 if ok else VALIDATION_ERROR
    # kernel-equivalence
    result = formats.parse_result(_read_text(args.result))
    if doc.problem is None or doc.k is None:
        raise ParseError("equivalence verification needs 'problem' and 'k'")
    instance = _instance_payload(doc, doc.problem)
    k = doc.k_modified if doc.k_modified is not None else doc.k
    if doc.modification is not None:
        if PROBLEMS[doc.problem].payload != "graph":
            raise ParseError(f"a {doc.problem.value} instance takes no modification")
        instance = apply_modification(instance, doc.modification)
    ok = verify_kernel_equivalence(doc.problem, instance, k, result, limit=args.limit)
    _print_json({"equivalent": ok})
    return 0 if ok else VALIDATION_ERROR


def _cmd_corpus(args: argparse.Namespace) -> int:
    """Deterministic random corpus of vertex-cover reoptimization instances."""
    if args.max_n < 3:
        raise ParseError("--max-n must be at least 3")
    rng = random.Random(args.seed)
    emitted = 0
    documents = []
    while emitted < args.count:
        n = rng.randint(3, args.max_n)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        absent = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not g.has_edge(i, j)
        ]
        if not absent:
            continue
        cover = solve_exact(ProblemKind.VERTEX_COVER, g).witness
        u, v = absent[rng.randrange(len(absent))]
        doc = formats.InstanceDocument(
            problem=ProblemKind.VERTEX_COVER,
            graph=g,
            k=len(cover),
            k_modified=len(cover),
            witness=cover,
            modification=EdgeAdd(u, v),
        )
        documents.append(formats.emit_instance(doc))
        emitted += 1
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(documents):
            (out / f"instance_{i:04d}.json").write_text(text)
        _print_json({"written": emitted, "directory": str(out)})
    else:
        for text in documents:
            sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rekern",
        description="Kernelization toolkit for reoptimization of parameterized "
        "graph problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kern = sub.add_parser("kernelize", help="vertex cover kernelization")
    kern_sub = kern.add_subparsers(dest="target", required=True)
    kern_vc = kern_sub.add_parser("vc")
    kern_vc.add_argument("--mode", choices=["classic3k", "reopt2k"], required=True)
    kern_vc.add_argument("--input", default="-")
    kern_vc.set_defaults(func=_cmd_kernelize)

    reopt = sub.add_parser("reopt", help="compositional reoptimization dispatch")
    reopt_sub = reopt.add_subparsers(dest="action", required=True)
    reopt_k = reopt_sub.add_parser("kernelize")
    reopt_k.add_argument("--problem", choices=["ivst", "generic"], required=True)
    reopt_k.add_argument("--input", default="-")
    reopt_k.set_defaults(func=_cmd_reopt)

    gadget = sub.add_parser("gadget", help="emit gadget instance documents")
    gadget.add_argument(
        "builder", choices=["setcover-cvc", "extremal", "negative", "clique-reopt"]
    )
    gadget.add_argument("--universe", type=int, default=2)
    gadget.add_argument(
        "--family",
        nargs="*",
        default=("[1]", "[2]", "[1, 2]"),
        help="family members as JSON lists, e.g. --family '[1]' '[1,2]'",
    )
    gadget.add_argument("--k", type=int, default=1)
    gadget.add_argument("--problem", default="ivst")
    gadget.add_argument("--mode", choices=["edge", "vertex"], default="edge")
    gadget.add_argument("--input", default="-")
    gadget.set_defaults(func=_cmd_gadget)

    solve = sub.add_parser("solve", help="exact oracle (size guarded)")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--input", default="-")
    solve.add_argument("--limit", type=int, default=None)
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="validators; exit 0 iff valid")
    verify.add_argument("what", choices=["crown", "solution", "kernel-equivalence"])
    verify.add_argument("--input", default="-")
    verify.add_argument("--result", help="kernel result document (equivalence)")
    verify.add_argument("--limit", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    corpus = sub.add_parser("corpus", help="seeded random instance corpus")
    corpus.add_argument("--seed", type=int, required=True)
    corpus.add_argument("--count", type=int, default=10)
    corpus.add_argument("--max-n", type=int, default=10)
    corpus.add_argument("--out-dir", default=None)
    corpus.set_defaults(func=_cmd_corpus)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: each ``parse_args`` call fills a fresh
    namespace, and every default is immutable, so nothing carries over from
    one command to the next."""
    return build_parser()


def run_command(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SizeGuardExceeded as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return SIZE_GUARD_ERROR
    except ParseError as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RekernError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
