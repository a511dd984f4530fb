"""Secure connected and secure total domination: exact solvers, certificate
verifiers, graph-class algorithms, family formulas, and hardness-reduction
builders, cross-validated against brute force at desk scale.

The public names load on first use (PEP 562): ``import securedom`` imports
no submodule, and ``securedom.gamma`` imports ``securedom.report`` (and what
it needs) the first time it is read.
"""

# Each home module and the public names it exports.
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
