"""Interval arithmetic founded on sets, with total relational operations.

Intervals are closed connected sets of reals with binary64 bounds;
operations return the tightest representable interval around the solution
set of their defining relation, rounding outward so the true set is never
lost.  Expressions evaluate over boxes with each variable one coordinate
however often it occurs, point evaluation stays inside interval
evaluation, and the analysis layer checks the convergence that inclusion
monotonicity promises.

The exact-rational ``oracle`` module is loaded on first use of
``relival.oracle`` or one of its names, so importing the engine or the
command line does not pay for it.
"""

import importlib

from . import analysis, expr, interval, rounding, semantics
from .rounding import *
from .interval import *
from .expr import *
from .semantics import *
from .analysis import *

__version__ = "0.1.0"

# oracle.__all__, listed here so that reading __all__ does not import the oracle
_ORACLE_NAMES = (
    "RationalInterval",
    "relational_oracle",
    "corner_range_oracle",
    "sample_inclusion",
    "random_case",
    "random_single_occurrence_case",
    "ManifestCase",
    "write_manifest",
    "read_manifest",
)

__all__ = [
    *rounding.__all__,
    *interval.__all__,
    *expr.__all__,
    *semantics.__all__,
    *analysis.__all__,
    *_ORACLE_NAMES,
    "__version__",
]


def __getattr__(name):
    # import_module, not "from . import oracle": that statement looks the
    # submodule up as an attribute of this package first, which lands back here
    if name == "oracle":
        return importlib.import_module(".oracle", __name__)
    if name in _ORACLE_NAMES:
        return getattr(importlib.import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "oracle", *_ORACLE_NAMES})
