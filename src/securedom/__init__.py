"""Secure connected and secure total domination: exact solvers, certificate
verifiers, graph-class algorithms, family formulas, and hardness-reduction
builders, cross-validated against brute force at desk scale.

The package root holds the command-line vocabulary, the record every solver
returns with its method names and builders, and ``gamma``, the one dispatch
that the library and the CLI share.  It imports no submodule, so ``--help``
and flag checking load no solver, and any module of the package can bind
these names with ``from . import ...``: each literal is written once, and
``verify.VARIANTS`` is ``securedom.VARIANTS``.  ``gamma`` loads a solver
only when a request reaches it.  Every other public name loads on first use
(PEP 562): ``securedom.solve`` imports ``securedom.exact`` (and what it
needs) the first time it is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .graph import Graph

VARIANTS = ("ds", "cds", "tds", "sds", "scds", "stds")

METHODS = ("auto", "exact", "block", "threshold")

FAMILY_KINDS = ("complete", "subdivided_wheel", "book", "ladder", "star")

# The exact search refuses graphs with more vertices unless told otherwise.
DEFAULT_MAX_N = 20

# Each reduction kind: (source variant, target variant, parameter offset).
REDUCTION_KINDS = {
    "dm_to_scdm": ("ds", "scds", 1),
    "dm_to_stdm": ("ds", "stds", 1),
    "scdm_to_scdb": ("scds", "scds", 2),
    "stdm_to_stdb": ("scds", "stds", 2),
    "dm_split_to_scdm_split": ("ds", "scds", 2),
    "dm_split_to_stdm_split": ("ds", "stds", 2),
}

REDUCTION_KIND_NAMES = tuple(sorted(REDUCTION_KINDS))

# The keys of crosscheck.GRID_RUNNERS, in its order.
GRID_NAMES = ("families", "trees", "block", "threshold", "reductions")

DEFAULT_SEED = 1729

METHOD_EXACT = "exact_search"
METHOD_BLOCK = "block_formula"
METHOD_THRESHOLD = "threshold_formula"
METHOD_TRIVIAL = "trivial_complete"


class SolveReport(NamedTuple):
    """Result of a minimum-domination computation.

    nodes_explored counts the full-size candidates the exact search
    reached: those its one bitset walk arrives at after its branch cuts,
    whether or not they pass the cover filters, and 0 for the formulas and
    the complete-graph shortcut.  The count is deterministic.
    """

    value: int
    witness: frozenset[int]
    method: str
    nodes_explored: int


def formula_report(method: str, value: int, witness: frozenset[int]) -> SolveReport:
    """The scds report of a closed-form answer (a block or threshold formula,
    or the complete-graph shortcut), after checking that the witness has
    ``value`` vertices.

    A size mismatch is a broken formula, not a bad input, so it raises
    RuntimeError.
    """
    if len(witness) != value:
        raise RuntimeError(f"{method} witness size disagrees with the formula")
    return SolveReport(value, witness, method, 0)


def trivial_complete() -> SolveReport:
    """The secure connected answer on a complete graph: any single vertex."""
    return formula_report(METHOD_TRIVIAL, 1, frozenset({0}))


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


# Each home module and the public names it loads on first use; VARIANTS,
# FAMILY_KINDS and REDUCTION_KINDS are bound above, so they never reach
# __getattr__.
_EXPORTS = {
    "crosscheck": (
        "random_block_graph",
        "random_graph",
        "random_split_graph",
        "random_threshold_graph",
        "random_tree",
    ),
    "exact": ("enumerate_connected_graphs", "solve"),
    "families": ("FAMILY_KINDS", "FamilySpec", "formula_value", "formula_witness", "generate"),
    "fast": (
        "BlockDecomposition",
        "SplitPartition",
        "SplitRejection",
        "ThresholdOrdering",
        "ThresholdRejection",
        "block_decompose",
        "gamma_sc_block",
        "gamma_sc_threshold",
        "is_bipartite",
        "is_block_graph",
        "recognize_split",
        "recognize_threshold",
    ),
    "graph": ("ComponentLabeling", "DomainError", "Graph", "ParseError", "from_edge_list", "to_edge_list"),
    "reductions": ("REDUCTION_KINDS", "EquivalenceReport", "ReductionArtifact", "check_equivalence"),
    "verify": (
        "VARIANTS",
        "is_connected_dominating",
        "is_dominating",
        "is_scds",
        "is_scds_definition",
        "is_secure_dominating",
        "is_stds",
        "is_total_dominating",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "SolveReport", "gamma"])


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
