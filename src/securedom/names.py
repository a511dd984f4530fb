"""The names the command-line parser offers, in a module that imports nothing.

``build_parser`` reads its choices and defaults from here, so ``--help``
and flag checking load no solver.  The library modules bind their public
names (``verify.VARIANTS``, ``report.METHODS``, ``families.FAMILY_KINDS``,
``exact.DEFAULT_MAX_N``, ``reductions.REDUCTION_KINDS``,
``crosscheck.DEFAULT_SEED``) to these same objects, so each literal is
written once.
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
