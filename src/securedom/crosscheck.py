"""Cross-validation grids: closed forms and fast solvers against the exact
oracle, and reduction equivalences swept over every threshold.

Each grid returns per-instance results so the CLI can print one line per
check and the test suite can assert on the same data.  Every exact
secure-connected solve is also audited for the structural facts that any
optimal certificate must satisfy (bound over the domination number, forced
leaves and supports, redundant domination after any single removal).
"""

from __future__ import annotations

from typing import NamedTuple

# Each grid imports the generators, solvers and builders it runs when it
# runs, so one grid's request loads only its own modules.
from .exact import solve
from .graph import DomainError, Graph
from .names import DEFAULT_SEED
from .verify import is_dominating, is_scds_definition

# (kind, parameters) of the family members the families grid checks.
FAMILY_GRID = (
    ("subdivided_wheel", (3, 4, 5)),
    ("book", (2, 3, 4)),
    ("ladder", (3, 4, 5, 6)),
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class GridReport:
    """The results of one grid, in the order they were recorded."""

    def __init__(self) -> None:
        self.results: list[CheckResult] = []

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(CheckResult(name, passed, detail))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]


def structural_audit(graph: Graph, witness: frozenset[int]) -> list[str]:
    """Facts every optimal secure-connected certificate of a connected
    non-complete graph must satisfy; returns violation messages."""
    problems = []
    if graph.is_complete():
        return problems
    gamma = solve(graph, "ds").value
    if 1 + gamma > len(witness):
        problems.append(f"value {len(witness)} below 1 + domination number {1 + gamma}")
    if graph.n >= 3:
        mandatory = graph.leaves() | graph.supports()
        if not mandatory <= witness:
            problems.append(f"witness misses forced vertices {sorted(mandatory - witness)}")
    for v in sorted(witness):
        if not is_dominating(graph, witness - {v}):
            problems.append(f"witness minus {v} no longer dominates")
    return problems


def _check_scds_instance(report: GridReport, name: str, graph: Graph, fast_report) -> None:
    """Compare a fast solver's answer with the oracle and verify both witnesses."""
    exact = solve(graph, "scds")
    ok = fast_report.value == exact.value
    detail = f"fast={fast_report.value} exact={exact.value}"
    verified, _ = is_scds_definition(graph, fast_report.witness)
    if not verified:
        ok = False
        detail += " fast-witness-invalid"
    if len(fast_report.witness) != fast_report.value:
        ok = False
        detail += " fast-witness-size-mismatch"
    audit = structural_audit(graph, exact.witness)
    if audit:
        ok = False
        detail += " audit:" + ";".join(audit)
    report.record(name, ok, detail)


def families_grid() -> GridReport:
    from .families import FamilySpec, formula_value, formula_witness, generate

    report = GridReport()
    for spec in (FamilySpec(kind, n) for kind, sizes in FAMILY_GRID for n in sizes):
        graph = generate(spec)
        value = formula_value(spec)
        witness = formula_witness(spec)
        name = f"family {spec.kind} n={spec.n}"
        verified, _ = is_scds_definition(graph, witness)
        if not verified:
            report.record(name, False, "closed-form witness failed verification")
            continue
        if len(witness) != value:
            report.record(name, False, f"witness size {len(witness)} != formula {value}")
            continue
        exact = solve(graph, "scds")
        ok = exact.value == value
        detail = f"formula={value} exact={exact.value}"
        audit = structural_audit(graph, exact.witness)
        if audit:
            ok = False
            detail += " audit:" + ";".join(audit)
        report.record(name, ok, detail)
    return report


def trees_grid(count: int = 50, max_n: int = 12, seed: int = DEFAULT_SEED) -> GridReport:
    # n starts at 3: the unique 2-vertex tree is the complete graph, whose
    # secure connected value is 1, so the every-vertex identity needs n >= 3.
    if max_n < 3:
        raise DomainError("trees grid needs max_n >= 3")
    from .exact import random_tree
    from .fast import gamma_sc_block

    report = GridReport()
    for i in range(count):
        n = 3 + (seed + i) % (max_n - 2)
        graph = random_tree(n, seed + i)
        exact = solve(graph, "scds")
        fast = gamma_sc_block(graph)
        ok = exact.value == n == fast.value
        detail = f"n={n} exact={exact.value} block={fast.value}"
        audit = structural_audit(graph, exact.witness)
        if audit:
            ok = False
            detail += " audit:" + ";".join(audit)
        report.record(f"tree seed={seed + i} n={n}", ok, detail)
    return report


def block_grid(count: int = 50, max_n: int = 13, seed: int = DEFAULT_SEED) -> GridReport:
    if max_n < 2:
        raise DomainError("block grid needs max_n >= 2")
    from .exact import random_block_graph
    from .fast import gamma_sc_block

    report = GridReport()
    for i in range(count):
        n = 2 + (seed + i) % (max_n - 1)
        graph = random_block_graph(n, seed + i)
        _check_scds_instance(
            report, f"block seed={seed + i} n={n}", graph, gamma_sc_block(graph)
        )
    return report


def threshold_grid(count: int = 50, max_n: int = 13, seed: int = DEFAULT_SEED) -> GridReport:
    if max_n < 1:
        raise DomainError("threshold grid needs max_n >= 1")
    from .exact import random_threshold_graph
    from .families import FamilySpec, generate
    from .fast import gamma_sc_threshold

    report = GridReport()
    for i in range(count):
        n = 1 + (seed + i) % max_n
        graph = random_threshold_graph(n, seed + i)
        _check_scds_instance(
            report, f"threshold seed={seed + i} n={n}", graph, gamma_sc_threshold(graph)
        )
    for n in range(2, 7):
        graph = generate(FamilySpec("star", n))
        _check_scds_instance(report, f"star n={n}", graph, gamma_sc_threshold(graph))
    return report


# Kinds whose threshold equivalence provably holds for every admissible
# source (the double-domination and forced-gadget arguments), so any sweep
# mismatch means an implementation bug.
GATED_REDUCTION_KINDS = (
    "dm_to_scdm",
    "dm_to_stdm",
    "dm_split_to_scdm_split",
    "dm_split_to_stdm_split",
)

# The doubled-bipartite kinds are measured, not gated: brute force refutes
# their claimed equivalence in both directions.  Complete sources break the
# forward map (a one-vertex certificate's mirror is stranded after its only
# defender swaps out, so the target optimum is 4 while the shifted threshold
# allows 3), and sources whose certificates lean on hard-to-defend vertices
# break the converse (the hubs x, y defend originals in the output, which
# the projection back to the source cannot emulate; the unicyclic graph
# {01,03,12,13,34} has source optimum 5 but target optimum 6 < 5 + 2).
MEASURED_REDUCTION_KINDS = ("scdm_to_scdb", "stdm_to_stdb")


def reductions_grid(seed: int = DEFAULT_SEED) -> GridReport:
    """The empirical-equivalence grid.

    Gated kinds must sweep all-match on every instance.  Measured kinds
    record the checker's verdict as data: instances that mismatch pass the
    grid as reported findings (the grid validates the checker, and the
    finding itself lives in the detail string and dedicated tests).
    """
    from .exact import enumerate_connected_graphs, random_graph
    from .fast import random_split_graph
    from .reductions import check_equivalence

    report = GridReport()

    def run(kind: str, graph: Graph, label: str, partition=None) -> None:
        eq = check_equivalence(kind, graph, partition)
        detail = f"src={eq.source_value} tgt={eq.target_value}"
        if eq.all_match:
            report.record(f"{kind} {label}", True, detail)
        elif kind in MEASURED_REDUCTION_KINDS:
            report.record(
                f"{kind} {label}",
                True,
                f"FINDING: counterexample at t={eq.first_mismatch} " + detail,
            )
        else:
            report.record(
                f"{kind} {label}",
                False,
                f"counterexample at t={eq.first_mismatch} " + detail,
            )

    for kind in ("dm_to_scdm", "dm_to_stdm"):
        for n in range(1, 6):
            for idx, graph in enumerate(enumerate_connected_graphs(n)):
                run(kind, graph, f"enum n={n} #{idx}")
        for i in range(30):
            n = 6 + i % 2
            graph = random_graph(n, 0.45, seed + i)
            run(kind, graph, f"seed={seed + i} n={n}")
    for n in range(1, 5):
        for idx, graph in enumerate(enumerate_connected_graphs(n)):
            run("scdm_to_scdb", graph, f"enum n={n} #{idx}")
    for i in range(10):
        graph = random_graph(5, 0.5, seed + i)
        run("scdm_to_scdb", graph, f"seed={seed + i} n=5")
    for kind in ("dm_split_to_scdm_split", "dm_split_to_stdm_split"):
        for i in range(30):
            n = 2 + (seed + i) % 5
            graph, partition = random_split_graph(n, seed + i)
            run(kind, graph, f"seed={seed + i} n={n}", partition)
    return report


GRID_RUNNERS = {
    "families": families_grid,
    "trees": trees_grid,
    "block": block_grid,
    "threshold": threshold_grid,
    "reductions": reductions_grid,
}
