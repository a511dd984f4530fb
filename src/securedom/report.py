"""The record every solver returns, the method names it carries,
``formula_report``, the one builder of every closed-form answer (the block
and threshold formulas and the complete-graph shortcut that the exact
search and the threshold formula share), and ``gamma``, the one dispatch.

A leaf module: it imports only the standard library and ``names`` when
loaded, so the linear-time solvers build reports without loading the exact
search, and ``gamma`` loads a solver only when a request reaches it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, NamedTuple

from .names import DEFAULT_MAX_N, METHODS

if TYPE_CHECKING:
    from .graph import Graph

METHOD_EXACT = "exact_search"
METHOD_BLOCK = "block_formula"
METHOD_THRESHOLD = "threshold_formula"
METHOD_TRIVIAL = "trivial_complete"


class SolveReport(NamedTuple):
    """Result of a minimum-domination computation.

    nodes_explored counts the full-size candidates the exact search
    reached: those its one bitset walk arrives at after its branch cuts,
    whether or not they pass the cover filters, and 0 for the formulas and
    the complete-graph shortcut.  The count is deterministic.  elapsed is
    wall time in seconds.
    """

    variant: str
    value: int
    witness: frozenset[int]
    method: str
    elapsed: float
    nodes_explored: int


def formula_report(method: str, value: int, witness: frozenset[int], start: float) -> SolveReport:
    """The scds report of a closed-form answer, after checking that the
    witness has ``value`` vertices.

    ``start`` is the caller's perf_counter reading, so elapsed covers the
    caller's own work.  A size mismatch is a broken formula, not a bad
    input, so it raises RuntimeError.
    """
    if len(witness) != value:
        raise RuntimeError(f"{method} witness size disagrees with the formula")
    return SolveReport("scds", value, witness, method, time.perf_counter() - start, 0)


def trivial_complete(start: float) -> SolveReport:
    """The secure connected answer on a complete graph: any single vertex."""
    return formula_report(METHOD_TRIVIAL, 1, frozenset({0}), start)


def gamma(
    graph: Graph, variant: str, method: str = "auto", *, max_n: int | None = DEFAULT_MAX_N
) -> SolveReport:
    """Minimum certificate size and witness by the named method.

    ``block`` and ``threshold`` compute scds only.  ``auto`` answers scds
    with ``fast.gamma_sc_formula`` and passes its DomainError (wrong class
    or disconnected) on to the exact search, which answers the other
    variants too and reports any refusal.  A graph with fewer than n - 1
    edges cannot be connected, so ``auto`` skips the formulas for it.
    """
    from .graph import DomainError

    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    if method in ("block", "threshold"):
        if variant != "scds":
            raise DomainError(f"the {method} formula computes the scds variant only")
        from .fast import gamma_sc_block, gamma_sc_threshold

        return (gamma_sc_block if method == "block" else gamma_sc_threshold)(graph)
    if method == "auto" and variant == "scds" and graph.m >= graph.n - 1:
        from .fast import gamma_sc_formula

        try:
            return gamma_sc_formula(graph)
        except DomainError:
            pass
    from .exact import solve

    return solve(graph, variant, max_n=max_n)
