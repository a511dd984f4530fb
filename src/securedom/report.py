"""The record every solver returns, the method names it carries, the
complete-graph shortcut that the exact search, the linear-time solvers and
the ``auto`` dispatch share, and ``gamma``, that dispatch.

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
    reached: those the bitset walk arrives at after its branch cuts,
    whether or not they pass the cover filters, and 0 for the formulas and
    the complete-graph shortcut.  Bound-estimation sub-solves are not
    included.  The count is deterministic.  elapsed is wall time in
    seconds.
    """

    variant: str
    value: int
    witness: frozenset[int]
    method: str
    elapsed: float
    nodes_explored: int


def trivial_complete(start: float) -> SolveReport:
    """The secure connected answer on a complete graph: any single vertex.

    ``start`` is the caller's perf_counter reading, so elapsed covers the
    caller's own checks.
    """
    return SolveReport(
        variant="scds",
        value=1,
        witness=frozenset({0}),
        method=METHOD_TRIVIAL,
        elapsed=time.perf_counter() - start,
        nodes_explored=0,
    )


def gamma(
    graph: Graph, variant: str, method: str = "auto", *, max_n: int | None = DEFAULT_MAX_N
) -> SolveReport:
    """Minimum certificate size and witness by the named method.

    ``block`` and ``threshold`` compute scds only.  ``auto`` tries, for scds,
    the complete-graph shortcut, then the block formula, then the threshold
    formula, moving on when one raises DomainError (wrong class or
    disconnected); the exact search takes the rest and reports any refusal.
    A graph with fewer than n - 1 edges cannot be connected, so ``auto``
    skips both formulas for it.
    """
    from .graph import DomainError

    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    if method in ("block", "threshold"):
        if variant != "scds":
            raise DomainError(f"the {method} formula computes the scds variant only")
        from .fast import gamma_sc_block, gamma_sc_threshold

        return (gamma_sc_block if method == "block" else gamma_sc_threshold)(graph)
    if method == "auto" and variant == "scds" and graph.n >= 1:
        if graph.is_complete():
            return trivial_complete(time.perf_counter())
        if graph.m >= graph.n - 1:
            from .fast import gamma_sc_block, gamma_sc_threshold

            for formula in (gamma_sc_block, gamma_sc_threshold):
                try:
                    return formula(graph)
                except DomainError:
                    pass
    from .exact import solve

    return solve(graph, variant, max_n=max_n)
