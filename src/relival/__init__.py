"""Interval arithmetic founded on sets, with total relational operations.

Intervals are closed connected sets of reals with binary64 bounds;
operations return the tightest representable interval around the solution
set of their defining relation, rounding outward so the true set is never
lost.  Expressions evaluate over boxes through a shared-variable routing
discipline, point evaluation stays inside interval evaluation, and the
analysis layer checks the convergence that inclusion monotonicity
promises.
"""

from . import analysis, expr, interval, oracle, rounding, semantics
from .rounding import *
from .interval import *
from .expr import *
from .semantics import *
from .analysis import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [
    *rounding.__all__,
    *interval.__all__,
    *expr.__all__,
    *semantics.__all__,
    *analysis.__all__,
    *oracle.__all__,
    "__version__",
]
