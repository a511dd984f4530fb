"""Command-line front end.

Exit codes: 0 success, 1 parse errors and a standard output that closed
before the answer was written, 2 domain errors (wrong graph class,
disconnected input, bad flags, an input too large for the available
memory), 3 crosscheck mismatches, 4 internal errors (an answer that failed
its own re-verification or a broken solver invariant, reported as
"internal error: ..." on stderr).  JSON output is sorted-key and
deterministic for a fixed config and seed, apart from the elapsed_ms
field, which ``main`` sets to the handler's wall time; ``main`` also sets
the command field to the subcommand's name.

A command runs with the cyclic garbage collector paused (its data is
acyclic, so reference counting frees it) and prints library warnings as
"warning: <message>" on stderr; ``main`` restores the caller's collector
state and warning display when the command ends.  Warning filters such as
``-W error`` and ``-W ignore`` apply as usual.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
import warnings

# Each command imports the modules it runs when it runs, so a start pays
# only for those.  The package root holds the parser's vocabulary and the
# gamma dispatch and imports no submodule; json loads only when a command
# prints JSON.
from . import (
    DEFAULT_MAX_N,
    DEFAULT_SEED,
    FAMILY_KINDS,
    GRID_NAMES,
    METHODS,
    REDUCTION_KIND_NAMES,
    REDUCTION_KINDS,
    VARIANTS,
    gamma,
)
from .graph import (
    DomainError,
    Graph,
    ParseError,
    format_vertex_set,
    from_edge_list,
    parse_vertex_set,
    to_edge_list,
)


def _read_graph(path: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode("ascii")  # the codec a file is read with
            return from_edge_list(text)
        with open(path, "r", encoding="ascii") as handle:
            return from_edge_list(handle)
    except UnicodeError as exc:
        raise ParseError(f"input is not ASCII edge-list text: {exc}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    family = getattr(args, "family", None)
    path = getattr(args, "input", None)
    if family is not None:
        if path is not None:
            raise DomainError("pass either --in FILE or --family KIND --n N, not both")
        from .families import FamilySpec, generate

        return generate(FamilySpec(family, args.n))
    if path is None:
        raise DomainError("no input graph: pass --in FILE or --family KIND --n N")
    return _read_graph(path)


def _graph_field(graph: Graph) -> dict:
    return {"n": graph.n, "m": graph.m}


def _require_verified(graph: Graph, variant: str, witness: frozenset[int], source: str) -> None:
    """Re-check a witness before it is printed; a rejected one is named by its
    size and the sha256 of its printed set, since it can have 1e5 vertices."""
    from .verify import check_variant

    if not check_variant(graph, variant, witness):
        import hashlib

        digest = hashlib.sha256(format_vertex_set(witness).encode("ascii")).hexdigest()
        noun = "vertex" if len(witness) == 1 else "vertices"
        raise RuntimeError(
            f"{source} witness failed {variant} re-verification (witness of {len(witness)} {noun}, sha256 {digest})"
        )


def _cmd_gamma(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    graph = _load_graph(args)
    report = gamma(graph, args.variant, args.method, max_n=args.max_n)
    _require_verified(graph, args.variant, report.witness, report.method)
    payload = {
        "variant": args.variant,
        "graph": _graph_field(graph),
        "value": report.value,
        "witness": format_vertex_set(report.witness),
        "method": report.method,
    }
    text = [
        f"value {report.value}",
        f"witness {payload['witness']}",
        f"method {report.method}",
    ]
    return payload, text, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .verify import failure_reason

    graph = _load_graph(args)
    members = parse_vertex_set(args.set, graph)
    reason = failure_reason(graph, args.variant, members)
    verdict = reason is None
    payload = {
        "variant": args.variant,
        "graph": _graph_field(graph),
        "set": format_vertex_set(members),
        "verdict": verdict,
        "method": "definition",
    }
    text = [f"verdict {str(verdict).lower()}"]
    if reason:
        payload["reason"] = reason
        text.append(f"reason {reason}")
    return payload, text, 0


def _cmd_recognize(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .fast import recognize_classes

    graph = _load_graph(args)
    classes, split = recognize_classes(graph)
    payload = {
        "graph": _graph_field(graph),
        "classes": classes,
    }
    text = [f"{name} {str(flag).lower()}" for name, flag in sorted(classes.items())]
    if split is not None and split.obstruction:
        payload["split_obstruction"] = {
            "kind": split.obstruction_kind,
            "vertices": list(split.obstruction),
        }
        text.append(
            f"split obstruction {split.obstruction_kind} on "
            f"{format_vertex_set(split.obstruction)}"
        )
    return payload, text, 0


def _cmd_family(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .families import FamilySpec, formula_value, formula_witness, generate

    spec = FamilySpec(args.kind, args.n)
    graph = generate(spec)
    edge_list = to_edge_list(graph)
    payload = {
        "kind": args.kind,
        "n": args.n,
        "graph": _graph_field(graph),
        "edge_list": edge_list,
    }
    if args.emit_witness:
        witness = formula_witness(spec)
        _require_verified(graph, "scds", witness, f"{args.kind} formula")
        payload["witness"] = format_vertex_set(witness)
        payload["value"] = formula_value(spec)
    text = []
    if args.format == "text":
        text.append(edge_list.rstrip("\n"))
        if args.emit_witness:
            text += [f"witness {payload['witness']}", f"value {payload['value']}"]
    return payload, text, 0


def _cmd_reduce(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .reductions import build

    graph = _load_graph(args)
    artifact = build(args.kind, graph, args.param)
    edge_list = to_edge_list(artifact.output_graph)
    # The JSON keys are sorted on output, so the provenance needs no sort here.
    payload = {
        "kind": args.kind,
        "graph": _graph_field(artifact.output_graph),
        "parameter": artifact.output_parameter,
        "edge_list": edge_list,
        "provenance": {str(v): role for v, role in artifact.provenance.items()},
    }
    text = []
    if args.format == "text":
        text = [edge_list.rstrip("\n"), f"parameter {artifact.output_parameter}", "provenance:"]
        text.extend(f"  {v} {role}" for v, role in sorted(artifact.provenance.items()))
    return payload, text, 0


def _cmd_check_equivalence(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .reductions import check_equivalence

    graph = _load_graph(args)
    report = check_equivalence(args.kind, graph, max_output_n=args.max_output_n)
    source_variant, target_variant, offset = REDUCTION_KINDS[args.kind]
    payload = {
        "kind": args.kind,
        "graph": _graph_field(graph),
        "source_variant": source_variant,
        "target_variant": target_variant,
        "source_value": report.source_value,
        "target_value": report.target_value,
        "offset": offset,
        "rows": [
            {
                "t": row.t,
                "source_holds": row.source_holds,
                "target_holds": row.target_holds,
                "match": row.match,
            }
            for row in report.rows
        ],
        "verdict": "all-match" if report.all_match else f"counterexample t={report.first_mismatch}",
    }
    text = [
        f"source {source_variant} = {report.source_value}",
        f"target {target_variant} = {report.target_value} (offset {offset})",
    ]
    for row in report.rows:
        mark = "ok" if row.match else "MISMATCH"
        text.append(
            f"t={row.t} source<= {str(row.source_holds).lower()} "
            f"target<= {str(row.target_holds).lower()} {mark}"
        )
    text.append(f"verdict {payload['verdict']}")
    return payload, text, 0


def _cmd_crosscheck(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .crosscheck import GRID_RUNNERS

    if args.count < 0:
        raise DomainError(f"--count must be nonnegative, got {args.count}")
    grids = list(GRID_RUNNERS) if args.grid == "all" else [args.grid]
    results = []
    for grid in grids:
        runner = GRID_RUNNERS[grid]
        if grid == "families":
            report = runner()
        elif grid == "reductions":
            report = runner(seed=args.seed)
        else:
            kwargs = {"count": args.count, "seed": args.seed}
            if args.max_n is not None:
                kwargs["max_n"] = args.max_n
            report = runner(**kwargs)
        results.extend((grid, r) for r in report)
    passed = sum(1 for _, r in results if r.passed)
    payload = {
        "grids": grids,
        "seed": args.seed,
        "total": len(results),
        "passed": passed,
        "failures": [
            {"grid": g, "name": r.name, "detail": r.detail}
            for g, r in results
            if not r.passed
        ],
    }
    text = []
    for grid, result in results:
        mark = "PASS" if result.passed else "FAIL"
        detail = f" ({result.detail})" if result.detail else ""
        text.append(f"{mark} [{grid}] {result.name}{detail}")
    text.append(f"{passed}/{len(results)} checks passed")
    return payload, text, 0 if passed == len(results) else 3


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="input", metavar="FILE", help="edge-list file, '-' for stdin")
    parser.add_argument("--family", choices=FAMILY_KINDS, help="generate a family member instead of reading a file")
    parser.add_argument("--n", type=int, default=0, help="family parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="securedom",
        description="secure connected/total domination: solvers, verifiers, reductions",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="compute a domination number")
    _add_input_flags(p)
    p.add_argument("--variant", choices=VARIANTS, default="scds")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--max-n", dest="max_n", type=int, default=DEFAULT_MAX_N)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("verify", help="check a certificate set")
    _add_input_flags(p)
    p.add_argument("--variant", choices=VARIANTS, default="scds")
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("recognize", help="classify a graph")
    _add_input_flags(p)
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("family", help="emit a family member's edge list")
    p.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-witness", action="store_true", dest="emit_witness")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("reduce", help="build a hardness-reduction instance")
    _add_input_flags(p)
    p.add_argument("--kind", choices=REDUCTION_KIND_NAMES, required=True)
    p.add_argument("--param", type=int, required=True)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("check-equivalence", help="sweep a reduction's threshold equivalence")
    _add_input_flags(p)
    p.add_argument("--kind", choices=REDUCTION_KIND_NAMES, required=True)
    p.add_argument("--max-output-n", dest="max_output_n", type=int, default=DEFAULT_MAX_N)
    p.set_defaults(handler=_cmd_check_equivalence)

    p = sub.add_parser("crosscheck", help="run validation grids against the exact oracle")
    p.add_argument("--grid", choices=(*GRID_NAMES, "all"), default="all")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(handler=_cmd_crosscheck)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Graphs, reports and records hold no reference cycles, so reference
    # counting frees them; a cyclic-collector pass during a command would
    # only re-walk live data.  Both settings are the caller's again on exit.
    collecting = gc.isenabled()
    show = warnings.showwarning
    warnings.showwarning = _show_warning
    gc.disable()
    try:
        start = time.perf_counter()
        payload, text, code = args.handler(args)
        payload["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
        payload["command"] = args.command
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input is too large for the available memory", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()
        warnings.showwarning = show
    try:
        if args.format == "json":
            import json

            print(json.dumps(payload, sort_keys=True))
        else:
            print("\n".join(text))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early.  Point fd 1 at the null device so that
        # the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
