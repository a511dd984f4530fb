"""Secure connected and secure total domination: exact solvers, certificate
verifiers, graph-class algorithms, family formulas, and hardness-reduction
builders, cross-validated against brute force at desk scale.

The package root holds the command-line vocabulary below and imports no
submodule, so ``--help`` and flag checking load no solver, and any module
of the package can bind these names with ``from . import ...``: each
literal is written once, and ``verify.VARIANTS`` is ``securedom.VARIANTS``.
Every other public name loads on first use (PEP 562): ``securedom.gamma``
imports ``securedom.report`` (and what it needs) the first time it is read.
"""

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

# Each home module and the public names it exports; VARIANTS, FAMILY_KINDS
# and REDUCTION_KINDS are bound above, so they never reach __getattr__.
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
    "report": ("SolveReport", "gamma"),
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

__all__ = sorted(_HOME)


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
