"""The names the command-line parser offers, in a module that imports nothing.

``build_parser`` reads its choices and defaults from here, so ``--help``
and flag checking load no solver.  The library modules bind their public
names (``verify.VARIANTS``, ``report.METHODS``, ``families.FAMILY_KINDS``,
``exact.DEFAULT_MAX_N``, ``crosscheck.DEFAULT_SEED``) to these same
objects, so each literal is written once.
"""

VARIANTS = ("ds", "cds", "tds", "sds", "scds", "stds")

METHODS = ("auto", "exact", "block", "threshold")

FAMILY_KINDS = ("complete", "subdivided_wheel", "book", "ladder", "star")

# The exact search refuses graphs with more vertices unless told otherwise.
DEFAULT_MAX_N = 20

# The keys of reductions.REDUCTION_KINDS, sorted.
REDUCTION_KIND_NAMES = (
    "dm_split_to_scdm_split",
    "dm_split_to_stdm_split",
    "dm_to_scdm",
    "dm_to_stdm",
    "scdm_to_scdb",
    "stdm_to_stdb",
)

# The keys of crosscheck.GRID_RUNNERS, in its order.
GRID_NAMES = ("families", "trees", "block", "threshold", "reductions")

DEFAULT_SEED = 1729
