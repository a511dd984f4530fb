"""Command-line front end.

Exit codes: 0 success, 1 parse errors, 2 domain errors (wrong graph class,
disconnected input, bad flags), 3 crosscheck mismatches, 4 internal errors
(an answer that failed its own re-verification or a broken solver
invariant, reported as "internal error: ..." on stderr).  JSON output is
sorted-key and deterministic for a fixed config and seed, apart from the
elapsed_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .crosscheck import DEFAULT_SEED, GRID_RUNNERS
from .exact import DEFAULT_MAX_N
from .families import FAMILY_KINDS, FamilySpec, formula_value, formula_witness, generate
from .fast import (
    METHODS,
    SplitRejection,
    ThresholdRejection,
    bench_block_graph,
    bench_threshold_graph,
    block_decompose,
    gamma,
    gamma_sc_block,
    gamma_sc_threshold,
    is_bipartite,
    recognize_split,
    recognize_threshold,
)
from .graph import (
    DomainError,
    Graph,
    ParseError,
    format_vertex_set,
    from_edge_list,
    parse_vertex_set,
    require_vertex_count,
    to_edge_list,
)
from .reductions import REDUCTION_KINDS, build, check_equivalence
from .verify import VARIANTS, check_variant, failure_reason


def _read_graph(path: str) -> Graph:
    try:
        if path == "-":
            return from_edge_list(sys.stdin)
        with open(path, "r", encoding="ascii") as handle:
            return from_edge_list(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not ASCII edge-list text: {exc}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    family = getattr(args, "family", None)
    if family is not None:
        return generate(FamilySpec(family, args.n))
    path = getattr(args, "input", None)
    if path is None:
        raise DomainError("no input graph: pass --in FILE or --family KIND --n N")
    return _read_graph(path)


def _graph_field(graph: Graph) -> dict:
    return {"n": graph.n, "m": graph.m}


def _cmd_gamma(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    graph = _load_graph(args)
    report = gamma(graph, args.variant, args.method, max_n=args.max_n)
    if not check_variant(graph, args.variant, report.witness):
        raise RuntimeError(f"{report.method} witness failed {args.variant} re-verification")
    payload = {
        "command": "gamma",
        "variant": args.variant,
        "graph": _graph_field(graph),
        "value": report.value,
        "witness": format_vertex_set(report.witness),
        "method": report.method,
        "elapsed_ms": round(report.elapsed * 1000, 3),
    }
    text = [
        f"value {report.value}",
        f"witness {payload['witness']}",
        f"method {report.method}",
    ]
    return payload, text, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    graph = _load_graph(args)
    start = time.perf_counter()
    members = parse_vertex_set(args.set, graph)
    verdict = check_variant(graph, args.variant, members)
    reason = None if verdict else failure_reason(graph, args.variant, members)
    payload = {
        "command": "verify",
        "variant": args.variant,
        "graph": _graph_field(graph),
        "set": format_vertex_set(members),
        "verdict": verdict,
        "method": "definition",
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    text = [f"verdict {str(verdict).lower()}"]
    if reason:
        payload["reason"] = reason
        text.append(f"reason {reason}")
    return payload, text, 0


def _cmd_recognize(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    graph = _load_graph(args)
    start = time.perf_counter()
    # block_decompose refuses exactly the graphs that are empty or
    # disconnected, so its outcome doubles as the connectivity test.
    try:
        block_graph = block_decompose(graph).cliques
        connected = True
    except DomainError:
        block_graph = connected = False
    split = recognize_split(graph)
    threshold = recognize_threshold(graph)
    classes = {
        "connected": connected,
        "complete": graph.is_complete(),
        "tree": connected and graph.m == graph.n - 1,
        "block_graph": block_graph,
        "split": not isinstance(split, SplitRejection),
        "threshold": not isinstance(threshold, ThresholdRejection),
        "bipartite": is_bipartite(graph),
    }
    payload = {
        "command": "recognize",
        "graph": _graph_field(graph),
        "classes": classes,
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    text = [f"{name} {str(flag).lower()}" for name, flag in sorted(classes.items())]
    if isinstance(split, SplitRejection) and split.obstruction:
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
    start = time.perf_counter()
    spec = FamilySpec(args.kind, args.n)
    graph = generate(spec)
    edge_list = to_edge_list(graph)
    payload = {
        "command": "family",
        "kind": args.kind,
        "n": args.n,
        "graph": _graph_field(graph),
        "edge_list": edge_list,
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    text = [edge_list.rstrip("\n")]
    if args.emit_witness:
        witness = formula_witness(spec)
        if not check_variant(graph, "scds", witness):
            raise RuntimeError(f"{args.kind} formula witness failed scds re-verification")
        value = formula_value(spec)
        payload["witness"] = format_vertex_set(witness)
        payload["value"] = value
        text.append(f"witness {payload['witness']}")
        text.append(f"value {value}")
    return payload, text, 0


def _cmd_reduce(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    graph = _load_graph(args)
    start = time.perf_counter()
    artifact = build(args.kind, graph, args.param)
    edge_list = to_edge_list(artifact.output_graph)
    payload = {
        "command": "reduce",
        "kind": args.kind,
        "graph": _graph_field(artifact.output_graph),
        "parameter": artifact.output_parameter,
        "edge_list": edge_list,
        "provenance": {str(v): role for v, role in sorted(artifact.provenance.items())},
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    text = [edge_list.rstrip("\n"), f"parameter {artifact.output_parameter}", "provenance:"]
    text.extend(f"  {v} {role}" for v, role in sorted(artifact.provenance.items()))
    return payload, text, 0


def _cmd_check_equivalence(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    graph = _load_graph(args)
    start = time.perf_counter()
    report = check_equivalence(args.kind, graph, max_output_n=args.max_output_n)
    payload = {
        "command": "check-equivalence",
        "kind": args.kind,
        "graph": _graph_field(graph),
        "source_variant": report.source_variant,
        "target_variant": report.target_variant,
        "source_value": report.source_value,
        "target_value": report.target_value,
        "offset": report.offset,
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
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    text = [
        f"source {report.source_variant} = {report.source_value}",
        f"target {report.target_variant} = {report.target_value} (offset {report.offset})",
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
    start = time.perf_counter()
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
        results.extend((grid, r) for r in report.results)
    passed = sum(1 for _, r in results if r.passed)
    payload = {
        "command": "crosscheck",
        "grids": grids,
        "seed": args.seed,
        "total": len(results),
        "passed": passed,
        "failures": [
            {"grid": g, "name": r.name, "detail": r.detail}
            for g, r in results
            if not r.passed
        ],
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    text = []
    for grid, result in results:
        mark = "PASS" if result.passed else "FAIL"
        detail = f" ({result.detail})" if result.detail else ""
        text.append(f"{mark} [{grid}] {result.name}{detail}")
    text.append(f"{passed}/{len(results)} checks passed")
    return payload, text, 0 if passed == len(results) else 3


def _cmd_bench(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    solver = gamma_sc_block if args.method == "block" else gamma_sc_threshold
    builder = bench_block_graph if args.method == "block" else bench_threshold_graph
    if args.doubling:
        require_vertex_count(2 * args.n, "the doubled bench instance")

    def run(n: int) -> tuple[int, float]:
        graph = builder(n)
        start = time.perf_counter()
        report = solver(graph)
        return report.value, time.perf_counter() - start

    value, elapsed = run(args.n)
    payload = {
        "command": "bench",
        "method": args.method,
        "n": args.n,
        "value": value,
        "elapsed_ms": round(elapsed * 1000, 3),
    }
    text = [f"n={args.n} value={value} elapsed_ms={payload['elapsed_ms']}"]
    if args.doubling:
        value2, elapsed2 = run(2 * args.n)
        ratio = elapsed2 / elapsed if elapsed > 0 else float("inf")
        payload["doubled"] = {
            "n": 2 * args.n,
            "value": value2,
            "elapsed_ms": round(elapsed2 * 1000, 3),
            "ratio": round(ratio, 2),
        }
        text.append(
            f"n={2 * args.n} value={value2} "
            f"elapsed_ms={payload['doubled']['elapsed_ms']} ratio={payload['doubled']['ratio']}"
        )
    return payload, text, 0


def _add_input_flags(parser: argparse.ArgumentParser, family_ok: bool = True) -> None:
    parser.add_argument("--in", dest="input", metavar="FILE", help="edge-list file, '-' for stdin")
    if family_ok:
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
    p.add_argument("--kind", choices=sorted(REDUCTION_KINDS), required=True)
    p.add_argument("--param", type=int, required=True)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("check-equivalence", help="sweep a reduction's threshold equivalence")
    _add_input_flags(p)
    p.add_argument("--kind", choices=sorted(REDUCTION_KINDS), required=True)
    p.add_argument("--max-output-n", dest="max_output_n", type=int, default=20)
    p.set_defaults(handler=_cmd_check_equivalence)

    p = sub.add_parser("crosscheck", help="run validation grids against the exact oracle")
    p.add_argument("--grid", choices=(*GRID_RUNNERS, "all"), default="all")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(handler=_cmd_crosscheck)

    p = sub.add_parser("bench", help="time the linear solvers")
    p.add_argument("--method", choices=("block", "threshold"), required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--doubling", action="store_true")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text, code = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(text))
    return code


if __name__ == "__main__":
    sys.exit(main())
