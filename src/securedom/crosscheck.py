"""Cross-validation grids: closed forms and fast solvers against the exact
oracle, and reduction equivalences swept over every threshold; also the
seeded random generators that build the grids' instances and the test
corpora.

Each grid returns its per-instance results as a list, so the CLI can print
one line per check and the test suite can assert on the same data.  Every
exact secure-connected solve is also audited for the structural facts that
any optimal certificate must satisfy (forced leaves and supports, redundant
domination after any single removal).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import TYPE_CHECKING, Callable, NamedTuple

# Each grid imports the solvers and builders it runs when it runs, so one
# grid's request loads only its own modules.
from .exact import solve
from .graph import DomainError, Graph
from .names import DEFAULT_MAX_N, DEFAULT_SEED
from .verify import is_dominating, is_scds_definition

if TYPE_CHECKING:
    from .fast import SplitPartition
    from .report import SolveReport

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


# -- seeded random generators ----------------------------------------------


def _rng(n: int, seed: int) -> random.Random:
    if n < 1:
        raise DomainError("n must be at least 1")
    return random.Random(seed)


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Connected G(n, p) sample; resamples until connected (bounded retries)."""
    rng = _rng(n, seed)
    for _ in range(10_000):
        edges = [e for e in combinations(range(n), 2) if rng.random() < edge_probability]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g
    raise DomainError("failed to sample a connected graph; raise edge_probability")


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-attachment random tree on n vertices."""
    rng = _rng(n, seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_block_graph(n: int, seed: int) -> Graph:
    """Random block graph: cliques of size 2..4 glued tree-fashion at shared
    cut vertices until n vertices exist."""
    rng = _rng(n, seed)
    edges: list[tuple[int, int]] = []
    built = 1
    while built < n:
        cut = rng.randrange(built)
        size = rng.randint(2, min(4, n - built + 1))
        block = [cut] + list(range(built, built + size - 1))
        built += size - 1
        edges.extend(combinations(block, 2))
    return Graph.from_edges(n, edges)


def random_threshold_graph(n: int, seed: int) -> Graph:
    """Random creation sequence (each new vertex isolated or universal); the
    final vertex is forced universal so the result is connected."""
    rng = _rng(n, seed)
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        universal = True if v == n - 1 else rng.random() < 0.5
        if universal:
            edges.extend((u, v) for u in range(v))
    return Graph.from_edges(n, edges)


def random_split_graph(n: int, seed: int) -> tuple[Graph, SplitPartition]:
    """Seeded split graph with a known partition (clique size random)."""
    from .fast import SplitPartition

    rng = _rng(n, seed)
    c = rng.randint(1, n)
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    for w in range(c, n):
        for u in range(c):
            if rng.random() < 0.5:
                edges.append((u, w))
    graph = Graph.from_edges(n, edges)
    return graph, SplitPartition(
        clique=frozenset(range(c)), independent=frozenset(range(c, n))
    )


# -- grids ------------------------------------------------------------------


def structural_audit(graph: Graph, witness: frozenset[int]) -> list[str]:
    """Facts every optimal secure-connected certificate of a connected
    non-complete graph must satisfy; returns violation messages.

    Such a certificate S also has more members than the domination number
    γ, and the removal test covers that bound without computing γ: if some
    S − v dominates then γ <= |S| − 1, so when |S| <= γ no S − v dominates
    and every non-empty S with |S| <= γ is flagged.
    """
    problems = []
    if graph.is_complete():
        return problems
    if graph.n >= 3:
        mandatory = graph.leaves() | graph.supports()
        if not mandatory <= witness:
            problems.append(f"witness misses forced vertices {sorted(mandatory - witness)}")
    for v in sorted(witness):
        if not is_dominating(graph, witness - {v}):
            problems.append(f"witness minus {v} no longer dominates")
    return problems


def _audited(name: str, graph: Graph, exact: SolveReport, passed: bool, detail: str) -> CheckResult:
    """The check's result, failed with the audit's messages when the exact
    witness breaks a structural fact."""
    audit = structural_audit(graph, exact.witness)
    if audit:
        return CheckResult(name, False, f"{detail} audit:{';'.join(audit)}")
    return CheckResult(name, passed, detail)


def _check_scds_instance(
    name: str, graph: Graph, fast_solve: Callable[[Graph], SolveReport]
) -> CheckResult:
    """Compare a fast solver's answer with the oracle and verify both witnesses."""
    fast = fast_solve(graph)
    exact = solve(graph, "scds")
    passed = fast.value == exact.value
    detail = f"fast={fast.value} exact={exact.value}"
    if not is_scds_definition(graph, fast.witness)[0]:
        passed = False
        detail += " fast-witness-invalid"
    return _audited(name, graph, exact, passed, detail)


def _random_grid(
    grid: str,
    smallest: int,
    count: int,
    max_n: int,
    seed: int,
    check: Callable[[int, int], CheckResult],
) -> list[CheckResult]:
    """``check(n, seed + i)`` for each i < ``count``, with n cycling through
    ``smallest``..``max_n`` from an offset set by the seed.  An n above the
    exact search's cap is refused before its instance is built."""
    if max_n < smallest:
        raise DomainError(f"{grid} grid needs max_n >= {smallest}")
    results = []
    for i in range(count):
        n = smallest + (seed + i) % (max_n - smallest + 1)
        if n > DEFAULT_MAX_N:
            raise DomainError(f"{grid} grid refused: instance n={n} is above the exact search cap of {DEFAULT_MAX_N}")
        results.append(check(n, seed + i))
    return results


def families_grid() -> list[CheckResult]:
    from .families import FamilySpec, formula_value, formula_witness, generate

    def check(spec: FamilySpec) -> CheckResult:
        graph = generate(spec)
        value = formula_value(spec)
        witness = formula_witness(spec)
        name = f"family {spec.kind} n={spec.n}"
        if not is_scds_definition(graph, witness)[0]:
            return CheckResult(name, False, "closed-form witness failed verification")
        if len(witness) != value:
            return CheckResult(name, False, f"witness size {len(witness)} != formula {value}")
        exact = solve(graph, "scds")
        return _audited(name, graph, exact, exact.value == value, f"formula={value} exact={exact.value}")

    return [check(FamilySpec(kind, n)) for kind, sizes in FAMILY_GRID for n in sizes]


def trees_grid(count: int = 50, max_n: int = 12, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    # n starts at 3: the unique 2-vertex tree is the complete graph, whose
    # secure connected value is 1, so the every-vertex identity needs n >= 3.
    from .fast import gamma_sc_block

    def check(n: int, seed: int) -> CheckResult:
        graph = random_tree(n, seed)
        exact = solve(graph, "scds")
        fast = gamma_sc_block(graph)
        detail = f"n={n} exact={exact.value} block={fast.value}"
        return _audited(f"tree seed={seed} n={n}", graph, exact, exact.value == n == fast.value, detail)

    return _random_grid("trees", 3, count, max_n, seed, check)


def block_grid(count: int = 50, max_n: int = 13, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    from .fast import gamma_sc_block

    def check(n: int, seed: int) -> CheckResult:
        return _check_scds_instance(f"block seed={seed} n={n}", random_block_graph(n, seed), gamma_sc_block)

    return _random_grid("block", 2, count, max_n, seed, check)


def threshold_grid(count: int = 50, max_n: int = 13, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    from .families import FamilySpec, generate
    from .fast import gamma_sc_threshold

    def check(n: int, seed: int) -> CheckResult:
        graph = random_threshold_graph(n, seed)
        return _check_scds_instance(f"threshold seed={seed} n={n}", graph, gamma_sc_threshold)

    results = _random_grid("threshold", 1, count, max_n, seed, check)
    for n in range(2, 7):
        graph = generate(FamilySpec("star", n))
        results.append(_check_scds_instance(f"star n={n}", graph, gamma_sc_threshold))
    return results


# The doubled-bipartite kinds are measured, not gated.  Every other kind is
# gated: its threshold equivalence provably holds for every admissible
# source (the double-domination and forced-gadget arguments), so any sweep
# mismatch means an implementation bug.  Brute force refutes the measured
# kinds' claimed equivalence in both directions.  Complete sources break the
# forward map (a one-vertex certificate's mirror is stranded after its only
# defender swaps out, so the target optimum is 4 while the shifted threshold
# allows 3), and sources whose certificates lean on hard-to-defend vertices
# break the converse (the hubs x, y defend originals in the output, which
# the projection back to the source cannot emulate; the unicyclic graph
# {01,03,12,13,34} has source optimum 5 but target optimum 6 < 5 + 2).
MEASURED_REDUCTION_KINDS = ("scdm_to_scdb", "stdm_to_stdb")


def reductions_grid(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The empirical-equivalence grid.

    Gated kinds must sweep all-match on every instance.  Measured kinds
    record the checker's verdict as data: instances that mismatch pass the
    grid as reported findings (the grid validates the checker, and the
    finding itself lives in the detail string and dedicated tests).
    """
    from .exact import enumerate_connected_graphs
    from .reductions import check_equivalence

    results = []

    def run(kind: str, graph: Graph, label: str) -> None:
        eq = check_equivalence(kind, graph)
        measured = kind in MEASURED_REDUCTION_KINDS
        detail = f"src={eq.source_value} tgt={eq.target_value}"
        if not eq.all_match:
            detail = f"{'FINDING: ' if measured else ''}counterexample at t={eq.first_mismatch} {detail}"
        results.append(CheckResult(f"{kind} {label}", eq.all_match or measured, detail))

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
            graph, _ = random_split_graph(n, seed + i)
            run(kind, graph, f"seed={seed + i} n={n}")
    return results


GRID_RUNNERS = {
    "families": families_grid,
    "trees": trees_grid,
    "block": block_grid,
    "threshold": threshold_grid,
    "reductions": reductions_grid,
}
