"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Values are exact-match (combinatorial identities); each criterion also
enforces its wall-clock budget.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

from __future__ import annotations

import statistics
import time
from functools import partial
from itertools import combinations

import pytest

from conftest import bench_block_graph, bench_threshold_graph, path_graph, plain_solve, star_graph
from securedom import (
    check_equivalence,
    enumerate_connected_graphs,
    from_edge_list,
    gamma_sc_block,
    gamma_sc_threshold,
    is_block_graph,
    is_scds,
    is_scds_definition,
    random_graph,
    random_split_graph,
    solve,
    to_edge_list,
)
from securedom.crosscheck import (
    DEFAULT_SEED,
    block_grid,
    structural_audit,
    threshold_grid,
    trees_grid,
)
from securedom.families import FamilySpec, formula_value, formula_witness, generate
from securedom.reductions import build
from securedom.verify import check_variant

# The closed-form secure-connected values for the acceptance grid.  The
# three-rung-wide entries follow n + ceil(n/3): 5 + 2 = 7 for the 5-ladder.
FAMILY_VALUES = {
    ("subdivided_wheel", 3): 4,
    ("subdivided_wheel", 4): 5,
    ("subdivided_wheel", 5): 6,
    ("book", 2): 4,
    ("book", 3): 5,
    ("book", 4): 6,
    ("ladder", 3): 4,
    ("ladder", 4): 6,
    ("ladder", 5): 7,
    ("ladder", 6): 8,
}


def _line(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_family_formulas_match_oracle():
    start = time.perf_counter()
    for (kind, n), expected in FAMILY_VALUES.items():
        spec = FamilySpec(kind, n)
        assert formula_value(spec) == expected, (kind, n)
        exact = solve(generate(spec), "scds").value
        assert exact == expected, (kind, n, exact)
    elapsed = time.perf_counter() - start
    _line("criterion 1 (family formulas vs oracle)", elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_2_family_witnesses_verify():
    start = time.perf_counter()
    for (kind, n), expected in FAMILY_VALUES.items():
        spec = FamilySpec(kind, n)
        witness = formula_witness(spec)
        assert len(witness) == expected, (kind, n)
        assert is_scds_definition(generate(spec), witness)[0], (kind, n)
    elapsed = time.perf_counter() - start
    _line("criterion 2 (closed-form witnesses verify)", elapsed < 1, f"{elapsed:.2f}s")


def test_criterion_3_tree_value_is_vertex_count():
    start = time.perf_counter()
    results = trees_grid(count=50, max_n=12, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    detail = f"{len(results)} trees, {elapsed:.1f}s"
    for failure in failures:
        detail += f" | {failure.name}: {failure.detail}"
    _line("criterion 3 (trees need every vertex)", not failures and elapsed < 120, detail)


def test_criterion_4_block_formula_matches_oracle():
    start = time.perf_counter()
    results = block_grid(count=50, max_n=13, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    detail = f"{len(results)} graphs, {elapsed:.1f}s"
    for failure in failures:
        detail += f" | {failure.name}: {failure.detail}"
    _line("criterion 4 (block formula vs oracle)", not failures and elapsed < 600, detail)


def test_criterion_5_threshold_formula_with_star_correction():
    start = time.perf_counter()
    results = threshold_grid(count=50, max_n=13, seed=DEFAULT_SEED)
    failures = [r for r in results if not r.passed]
    assert gamma_sc_threshold(star_graph(3)).value == 4
    assert gamma_sc_threshold(path_graph(3)).value == 3
    elapsed = time.perf_counter() - start
    detail = f"{len(results)} graphs incl. stars, {elapsed:.1f}s"
    for failure in failures:
        detail += f" | {failure.name}: {failure.detail}"
    _line("criterion 5 (threshold formula vs oracle)", not failures and elapsed < 600, detail)


def test_criterion_6_checker_equivalence_is_exhaustive_to_n6():
    start = time.perf_counter()
    disagreements = []
    graphs = 0
    pairs = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            graphs += 1
            for size in range(n + 1):
                for combo in combinations(range(n), size):
                    s = frozenset(combo)
                    pairs += 1
                    if is_scds_definition(g, s)[0] != is_scds(g, s):
                        disagreements.append((n, g.edges(), sorted(s)))
    elapsed = time.perf_counter() - start
    detail = f"{graphs} graphs, {pairs} subsets, {len(disagreements)} disagreements, {elapsed:.1f}s"
    if disagreements:
        detail += f" | first: {disagreements[0]}"
    _line(
        "criterion 6 (secure-connected checkers agree)",
        not disagreements and elapsed < 600,
        detail,
    )


def _universal_and_split_sweeps():
    reports = []
    for kind in ("dm_to_scdm", "dm_to_stdm"):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                reports.append((kind, f"enum n={n}", check_equivalence(kind, g)))
        for i in range(30):
            n = 6 + i % 2
            g = random_graph(n, 0.45, DEFAULT_SEED + i)
            reports.append((kind, f"seed={DEFAULT_SEED + i} n={n}", check_equivalence(kind, g)))
    for kind in ("dm_split_to_scdm_split", "dm_split_to_stdm_split"):
        for i in range(30):
            n = 2 + (DEFAULT_SEED + i) % 5
            g, _ = random_split_graph(n, DEFAULT_SEED + i)
            reports.append((kind, f"seed={DEFAULT_SEED + i} n={n}", check_equivalence(kind, g)))
    return reports


@pytest.fixture(scope="module")
def bipartite_sweeps():
    reports = []
    for n in range(1, 5):
        for idx, g in enumerate(enumerate_connected_graphs(n)):
            reports.append((f"enum n={n} #{idx}", g, check_equivalence("scdm_to_scdb", g)))
    for i in range(10):
        g = random_graph(5, 0.5, DEFAULT_SEED + i)
        reports.append((f"seed={DEFAULT_SEED + i} n=5", g, check_equivalence("scdm_to_scdb", g)))
    return reports


def test_criterion_7_universal_and_split_reductions_all_match():
    start = time.perf_counter()
    reports = _universal_and_split_sweeps()
    mismatches = [(kind, label) for kind, label, rep in reports if not rep.all_match]
    elapsed = time.perf_counter() - start
    _line(
        "criterion 7 (universal and split reduction sweeps)",
        not mismatches,
        f"{len(reports)} instances, {len(mismatches)} counterexamples, {elapsed:.1f}s"
        + (f" | first: {mismatches[0]}" if mismatches else ""),
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the doubled-bipartite instance equivalence is refuted by brute force: "
        "complete sources force four gadget-side vertices against a shifted "
        "threshold of three, and sources whose optima rely on hard-to-defend "
        "vertices gain cheaper certificates through the hubs; the verified "
        "counterexamples are pinned in test_reductions.py"
    ),
)
def test_criterion_7_bipartite_reduction_all_match_as_stated(bipartite_sweeps):
    mismatches = []
    for label, g, rep in bipartite_sweeps:
        if not rep.all_match:
            mismatches.append(
                f"{label}: edges={g.edges()} t={rep.first_mismatch} "
                f"source={rep.source_value} target={rep.target_value}"
            )
    for item in mismatches:
        print(f"ACCEPTANCE criterion 7 (bipartite sweep) counterexample: {item}")
    _line(
        "criterion 7 (bipartite reduction sweep, as stated)",
        not mismatches,
        f"{len(bipartite_sweeps)} instances, {len(mismatches)} counterexamples",
    )


def test_criterion_7_bipartite_counterexamples_are_genuine(bipartite_sweeps):
    """Every sweep mismatch must survive unpruned re-solving on both sides,
    so reported counterexamples are facts about the construction, never
    solver-pruning artifacts."""
    start = time.perf_counter()
    mismatched = [(label, g, rep) for label, g, rep in bipartite_sweeps if not rep.all_match]
    assert mismatched, "expected documented counterexamples in the stated grid"
    for label, g, rep in mismatched:
        assert plain_solve(g, "scds")[0] == rep.source_value, label
        assert plain_solve(build("scdm_to_scdb", g, 1).output_graph, "scds")[0] == rep.target_value, label
        assert rep.first_mismatch is not None
    elapsed = time.perf_counter() - start
    _line(
        "criterion 7 (bipartite counterexamples re-verified unpruned)",
        True,
        f"{len(mismatched)} findings re-verified, {elapsed:.1f}s",
    )


def test_criterion_8_structural_facts_hold_on_every_exact_solve():
    start = time.perf_counter()
    violations = []
    checked = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            if g.is_complete():
                continue
            checked += 1
            problems = structural_audit(g, solve(g, "scds").witness)
            if problems:
                violations.append((n, g.edges(), problems))
    elapsed = time.perf_counter() - start
    detail = f"{checked} graphs audited, {len(violations)} violations, {elapsed:.1f}s"
    if violations:
        detail += f" | first: {violations[0]}"
    _line("criterion 8 (structural facts on exact solves)", not violations, detail)


def _median_runtimes(*calls, runs: int = 3) -> list[float]:
    """The median wall time of each call, over ``runs`` rounds that run the
    calls in turn, so that load drift on a shared host lands on every call
    alike instead of on the ratio between them."""
    times: list[list[float]] = [[] for _ in calls]
    for _ in range(runs):
        for call, row in zip(calls, times):
            t0 = time.perf_counter()
            call()
            row.append(time.perf_counter() - t0)
    return [statistics.median(row) for row in times]


@pytest.mark.parametrize(
    "name,builder,solver",
    [
        ("block", bench_block_graph, gamma_sc_block),
        ("threshold", bench_threshold_graph, gamma_sc_threshold),
    ],
)
def test_criterion_9_linear_solvers_scale(name, builder, solver):
    graphs = [builder(n) for n in (100_000, 200_000)]
    base, doubled = _median_runtimes(*(partial(solver, g) for g in graphs))
    ratio = doubled / base if base > 0 else float("inf")
    _line(
        f"criterion 9 ({name} solver linearity)",
        base < 1.0 and ratio < 3.0,
        f"n=1e5: {base * 1000:.0f}ms, n=2e5: {doubled * 1000:.0f}ms, ratio {ratio:.2f}",
    )


@pytest.mark.parametrize(
    "name,builder,solver",
    [
        ("block", bench_block_graph, gamma_sc_block),
        ("threshold", bench_threshold_graph, gamma_sc_threshold),
    ],
)
def test_criterion_10_witness_reverification_scales(name, builder, solver):
    """The re-check `gamma` runs before printing stays near-linear."""
    checks = []
    for n in (100_000, 200_000):
        graph = builder(n)
        witness = solver(graph).witness
        assert check_variant(graph, "scds", witness)
        checks.append(partial(check_variant, graph, "scds", witness))
    base, doubled = _median_runtimes(*checks)
    ratio = doubled / base if base > 0 else float("inf")
    _line(
        f"criterion 10 ({name} witness re-verification linearity)",
        ratio < 3.0,
        f"n=1e5: {base * 1000:.0f}ms, n=2e5: {doubled * 1000:.0f}ms, ratio {ratio:.2f}",
    )


def test_criterion_11_parse_build_recognize_pipeline_scales():
    """Serialize, parse, build and recognize: the chain every CLI request runs."""

    def pipeline(graph):
        assert is_block_graph(from_edge_list(to_edge_list(graph)))

    graphs = [bench_block_graph(n) for n in (100_000, 200_000)]
    base, doubled = _median_runtimes(*(partial(pipeline, g) for g in graphs))
    ratio = doubled / base if base > 0 else float("inf")
    _line(
        "criterion 11 (parse-build-recognize pipeline linearity)",
        ratio < 3.0,
        f"n=1e5: {base * 1000:.0f}ms, n=2e5: {doubled * 1000:.0f}ms, ratio {ratio:.2f}",
    )
