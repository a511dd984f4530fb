"""securedom benchmark: fresh-process CLI latency, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_certify --seed 3 --seconds 30 --trace 0

With ``--trace 0`` every request is a fresh ``python -m securedom --format
json ...`` process, sent one at a time by this process (a closed loop with
one client).  The request list is repeated until ``--seconds`` have passed
and every request ran at least once; every answer is checked against the
record in ``expected.json``.  With ``--trace 1`` the same requests go
through ``securedom.cli.main(argv)`` in this process, alternating untraced
and traced passes, and the per-layer totals of the traced passes are
reported.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import check  # noqa: E402
import workloads  # noqa: E402

REQUEST_CAP_S = 120.0
SETUP_REPEATS = 3
# During the requests, one more --help start follows the first request that
# ends this many seconds after the previous start.
SETUP_EVERY_S = 2.0
MIN_TRACED_PASSES = 2
# Per-request figures printed on the first traced pass.
REQUEST_TRACE = ("verify.check_variant_s", "fast.block_decompose_calls", "exact.candidates", "verify.base_checks")


# -- fresh-process requests ----------------------------------------------------


def spawn(argv: list[str], out_path: str, err_path: str) -> tuple[float, int, float, bool]:
    """Run one child to completion; return (wall s, exit code, peak RSS MiB, timed out).

    The peak RSS comes from the child's own rusage, read by ``os.wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    timed_out = threading.Event()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)

    def kill() -> None:
        timed_out.set()
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(REQUEST_CAP_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, timed_out.is_set()


def cli_argv(request: workloads.Request) -> list[str]:
    return ["--format", "json", *request.argv]


def judge(request, expected: dict, code: int, stdout: str, stderr: str, timed_out: bool) -> str | None:
    """Why a response counts as failed, or None when it is correct."""
    if timed_out:
        return f"exceeded the {REQUEST_CAP_S:.0f} s request cap"
    if "Traceback" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1]
    wrong = check.mismatches(expected, check.answer(request.argv[0], code, stdout))
    if wrong:
        return "mismatch in " + ", ".join(wrong)
    return None


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    With N samples sorted ascending that is the sample at rank N - 10,
    percentile 100 (N - 10) / N.  Below 100 samples that percentile is
    under p90, so the maximum (p100) is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 100:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(workload: str, instance: workloads.Instance, expected: dict, seconds: float, workdir: str) -> dict:
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")

    setup = []
    last_start = 0.0

    def start_up() -> None:
        nonlocal last_start
        wall, code, _, _ = spawn(["-m", "securedom", "--help"], out_path, err_path)
        if code != 0:
            raise RuntimeError("securedom --help failed")
        setup.append(wall)
        last_start = time.perf_counter()

    # One unmeasured start compiles the package's bytecode, as an installed
    # package would have it.  setup_s is the median of a few fresh starts
    # here and of more starts spread over the requests, so that one stall
    # of the host cannot move it.
    spawn(["-m", "securedom", "--help"], out_path, err_path)
    for _ in range(SETUP_REPEATS):
        start_up()

    # Requests go round the list until --seconds have passed and every
    # request has run at least once.
    per_request: dict[workloads.Request, list[float]] = {r: [] for r in instance.requests}
    peak_rss = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < len(instance.requests) or time.perf_counter() - start < seconds:
        request = instance.requests[attempted % len(instance.requests)]
        wall, code, rss, timed_out = spawn(["-m", "securedom", *cli_argv(request)], out_path, err_path)
        with open(out_path, encoding="utf-8", errors="replace") as f_out, open(err_path, encoding="utf-8", errors="replace") as f_err:
            stdout, stderr = f_out.read(), f_err.read()
        attempted += 1
        reason = judge(request, expected[request.part][request.id], code, stdout, stderr, timed_out)
        if reason:
            failed += 1
            print(f"FAILED {request.id}: {reason}")
        per_request[request].append(wall)
        peak_rss = max(peak_rss, rss)
        if time.perf_counter() - last_start >= SETUP_EVERY_S:
            start_up()

    print(f"workload {workload}: {attempted} requests in {time.perf_counter() - start:.1f} s, "
          f"closed loop, one client")
    medians = {}
    for request, samples in per_request.items():
        medians[request] = statistics.median(samples)
        print(f"  {request.id:45s} median {medians[request]:8.4f} s over {len(samples)}")
    # Per command class, the same statistics as the gated p50_s, and the tail.
    for part in workloads.WORKLOADS[workload]:
        name = part.split(".", 1)[1]
        mine = [r for r in instance.requests if r.part == part]
        samples = [w for r in mine for w in per_request[r]]
        pct, tail_value = tail(samples)
        print(f"  {name}_p50_s {statistics.geometric_mean(medians[r] for r in mine):.4f} s; "
              f"{name}_tail_s {tail_value:.4f} s is p{pct:.1f} over {len(samples)} samples")
    print(f"  setup_s is the median of {len(setup)} starts; "
          f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "p50_s": (statistics.geometric_mean(medians.values()), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# -- traced in-process run -----------------------------------------------------


def clear_caches() -> None:
    """Empty the package's functools caches, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "securedom" or name.startswith("securedom."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call_in_process(request: workloads.Request) -> tuple[int, str, str]:
    """One request through securedom.cli.main; returns (exit code, stdout, stderr)."""
    import securedom.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = securedom.cli.main(cli_argv(request))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed request, not a crashed benchmark
            traceback.print_exc()
            code = 1
    return code, stdout.getvalue(), stderr.getvalue()


def in_process_pass(instance: workloads.Instance, expected: dict, tracer=None) -> tuple[float, int, int, int]:
    """Send every request through securedom.cli.main; return (wall s, output
    bytes, attempted, failed).  With a tracer, print each request's share of
    time in the checker and its search and decomposition counts."""
    clear_caches()
    out_bytes = attempted = failed = 0
    start = time.perf_counter()
    for request in instance.requests:
        before = tracer.metrics() if tracer else None
        begun = time.perf_counter()
        code, stdout, stderr = call_in_process(request)
        if tracer:
            wall = time.perf_counter() - begun
            after = tracer.metrics()
            delta = {k: after[k] - before[k] for k in REQUEST_TRACE}
            share = delta["verify.check_variant_s"] / wall
            print(f"  {request.id:45s} {wall:8.4f} s, check_variant {100 * share:5.1f} %, "
                  + ", ".join(f"{k} {delta[k]:.0f}" for k in REQUEST_TRACE[1:]))
        out_bytes += len(stdout.encode("utf-8"))
        attempted += 1
        reason = judge(request, expected[request.part][request.id], code, stdout, stderr, False)
        if reason:
            failed += 1
            print(f"FAILED {request.id}: {reason}")
    return time.perf_counter() - start, out_bytes, attempted, failed


def traced(workload: str, instance: workloads.Instance, expected: dict, seconds: float) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer()
    plain_walls, traced_walls, layer_runs, counter_runs = [], [], [], []
    attempted = failed = 0
    out_bytes = 0
    start = time.perf_counter()
    while len(traced_walls) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        wall, _, a, f = in_process_pass(instance, expected)
        plain_walls.append(wall)
        attempted, failed = attempted + a, failed + f
        tracer.reset()
        tracer.install()
        try:
            wall, out_bytes, a, f = in_process_pass(instance, expected, tracer if not traced_walls else None)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        attempted, failed = attempted + a, failed + f
        layer = tracer.metrics()
        layer_runs.append(layer)
        counter_runs.append({k: layer[k] for k in tracing.DETERMINISTIC})

    if tracer.missing:
        print("traced names not found (skipped): " + ", ".join(sorted(tracer.missing)))
    repeatable = all(run == counter_runs[0] for run in counter_runs)
    if not repeatable:
        print("deterministic counters differ between traced passes: " + json.dumps(counter_runs))
    print(f"workload {workload}: {len(plain_walls)} untraced and {len(traced_walls)} traced in-process passes")
    metrics = {}
    for name in layer_runs[0]:
        value = statistics.median(run[name] for run in layer_runs)
        unit = "s" if name.endswith("_s") else "us" if name == "exact.us_per_candidate" else "count"
        metrics[name] = (value, unit)
    metrics["cli.output_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    metrics["trace.missing_names"] = (len(tracer.missing), "count")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "repeatable": repeatable}


# -- entry point ---------------------------------------------------------------


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "securedom", "__init__.py")):
        print(f"securedom sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    record = load_expected()
    index = str(workloads.instance_index(args.seed))
    expected = record["requests"][index]
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        instance = workloads.build(args.workload, args.seed, workdir, record["witnesses"][index])
        inputs_ok = True
        for part, digests in instance.input_sha.items():
            for name, digest in sorted(digests.items()):
                want = record["inputs"][index][part][name]
                print(f"input {part} {name} sha256 {digest}" + ("" if digest == want else f" (expected {want})"))
                inputs_ok = inputs_ok and digest == want
        if args.trace:
            result = traced(args.workload, instance, expected, args.seconds)
        else:
            result = end_to_end(args.workload, instance, expected, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = inputs_ok and result["failed"] == 0 and result.get("repeatable", True)
    metrics = {}
    for name, (value, unit) in result["metrics"].items():
        if not math.isfinite(value):
            correct = False
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
