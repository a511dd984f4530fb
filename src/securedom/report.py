"""The record every solver returns, the method names it carries, and the
complete-graph shortcut that the exact search, the linear-time solvers and
the ``auto`` dispatch share.

A leaf module (it imports only the standard library), so the linear-time
solvers can build reports without loading the exact search.
"""

from __future__ import annotations

import time
from typing import NamedTuple

METHOD_EXACT = "exact_search"
METHOD_BLOCK = "block_formula"
METHOD_THRESHOLD = "threshold_formula"
METHOD_TRIVIAL = "trivial_complete"


class SolveReport(NamedTuple):
    """Result of a minimum-domination computation.

    nodes_explored counts the full-size candidates the reported search
    reached: with pruning, those the bitset walk arrives at after its branch
    cut, whether or not they pass the cover filters; without, every subset
    passed to the checker.  Bound-estimation sub-solves are not included.
    The count is deterministic.  elapsed is wall time in seconds.
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
