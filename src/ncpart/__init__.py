"""Exact enumeration of non-crossing set partitions and the distribution
of contiguous subword patterns in their canonical sequences.

The package has seven layers:

``algebra``
    Exact multivariate polynomials over big rationals and truncated
    power series, with division, square roots, and equation solvers.
``core``
    Canonical sequences, non-crossing partitions, enumeration, subword
    patterns, and pattern-family classification.
``stats``
    Statistics: occurrence counts and exact distribution tables over all
    partitions of each size, from a transfer-matrix engine or, for
    reference, an exhaustive prefix walk.
``formulas``
    Closed-form generating series for every covered pattern family,
    plus total-occurrence counts.
``recurrence``
    An independent route to the staircase-tail series through a refined
    recurrence on the smallest repeated letter.
``bijections``
    Constructive maps that explain the coincidences among distributions:
    occurrence exchanges, run reversals, and descent-code reversal.
``cli``
    The ``ncpart`` command-line front end with its verification suites,
    which check each route against the others; Table 1's stored
    equations and their mutation hook live there.
"""

from .algebra import (
    DEFAULT_ORDER,
    MultiPoly,
    TruncatedSeries,
    catalan_series,
    series_div,
    series_sqrt,
    solve_poly_functional,
    solve_quadratic,
)
from .bijections import (
    decode_descent_code,
    descent_code,
    map_descent_code,
    map_equiv,
    map_f,
    map_g,
    map_runrev,
)
from .core import (
    DEFAULT_ENUM_LIMIT,
    CanonicalSeq,
    Generic,
    NCPartition,
    PatternFamily,
    RhoTail,
    Run,
    RunAscent,
    RunStaircase,
    Sandwich,
    StaircaseTail,
    SubwordPattern,
    as_ncpartition,
    as_pattern,
    catalan,
    classify_all,
    classify_pattern,
    enumerate_nc,
    format_sequence,
    is_canonical_nc,
    is_noncrossing,
    is_restricted_growth,
    iter_nc,
    iter_rgs,
    parse_sequence,
)
from .errors import (
    EmptyPartition,
    FamilyViolation,
    IndexOutOfRange,
    InvalidPattern,
    LimitExceeded,
    NcpartError,
    PatternLengthMismatch,
    UnsupportedFamily,
)
from .cli import TABLE1_PATTERNS, table1_mutation_slots, verify_table1
from .formulas import (
    gf_1a_rho_1b,
    gf_1m,
    gf_1m2,
    gf_joint_1a_1b2,
    gf_rho_1b,
    gf_staircase_joint_rep,
    gf_staircase_tail,
    joint_quadratic,
    total_occurrences,
)
from .recurrence import (
    StaircaseRecurrence,
    recurrence_table,
    staircase_series_by_recurrence,
)
from .stats import (
    batch_distribution_rows,
    block_count,
    count_subword,
    distribution,
    distribution_rows,
    joint_distribution,
    joint_rows,
    rep,
    rep_joint_distribution,
    rep_joint_rows,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "DEFAULT_ORDER",
    "MultiPoly",
    "TruncatedSeries",
    "catalan_series",
    "series_div",
    "series_sqrt",
    "solve_poly_functional",
    "solve_quadratic",
    # core
    "DEFAULT_ENUM_LIMIT",
    "CanonicalSeq",
    "NCPartition",
    "SubwordPattern",
    "PatternFamily",
    "Run",
    "RunAscent",
    "StaircaseTail",
    "RunStaircase",
    "Sandwich",
    "RhoTail",
    "Generic",
    "as_ncpartition",
    "as_pattern",
    "catalan",
    "classify_all",
    "classify_pattern",
    "enumerate_nc",
    "format_sequence",
    "is_canonical_nc",
    "is_noncrossing",
    "is_restricted_growth",
    "iter_nc",
    "iter_rgs",
    "parse_sequence",
    # errors
    "NcpartError",
    "LimitExceeded",
    "InvalidPattern",
    "FamilyViolation",
    "EmptyPartition",
    "PatternLengthMismatch",
    "IndexOutOfRange",
    "UnsupportedFamily",
    # stats
    "count_subword",
    "rep",
    "block_count",
    "distribution",
    "distribution_rows",
    "batch_distribution_rows",
    "joint_distribution",
    "joint_rows",
    "rep_joint_distribution",
    "rep_joint_rows",
    # formulas
    "joint_quadratic",
    "gf_joint_1a_1b2",
    "gf_1m",
    "gf_1m2",
    "gf_rho_1b",
    "gf_1a_rho_1b",
    "gf_staircase_tail",
    "gf_staircase_joint_rep",
    "total_occurrences",
    # recurrence
    "StaircaseRecurrence",
    "recurrence_table",
    "staircase_series_by_recurrence",
    # bijections
    "descent_code",
    "decode_descent_code",
    "map_descent_code",
    "map_equiv",
    "map_f",
    "map_g",
    "map_runrev",
    # cli
    "TABLE1_PATTERNS",
    "table1_mutation_slots",
    "verify_table1",
]
