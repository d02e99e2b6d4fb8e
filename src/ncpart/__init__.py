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

The package re-exports each module's ``__all__``, so every public name is
listed once, in its own module.
"""

from . import algebra, bijections, core, errors, cli, formulas, recurrence, stats
from .algebra import *
from .bijections import *
from .core import *
from .errors import *
from .cli import *
from .formulas import *
from .recurrence import *
from .stats import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *algebra.__all__,
    *bijections.__all__,
    *core.__all__,
    *errors.__all__,
    *cli.__all__,
    *formulas.__all__,
    *recurrence.__all__,
    *stats.__all__,
]
