"""Intervals as sets of reals, with total relational arithmetic.

An ``Interval`` is a closed connected set of reals: the empty set, a
bounded ``[lo, hi]``, a ray, or the whole line.  An infinite bound records
the absence of a constraint on that side; the infinities themselves are
never members.  An interval is its two bounds and nothing else: the
empty set is the pair ``(inf, -inf)``, as in IEEE Std 1788.1-2017, and
``is_empty`` is read from it.  ``Box`` is an ordered tuple of intervals
with coordinatewise membership.  Both are slotted frozen dataclasses with
one validating constructor.  Each operation is written once, as a kernel
on bare ``(lo, hi)`` float pairs; its public function unboxes the
operands and boxes the kernel's pair, and box tapes run the kernels
directly.

Arithmetic follows the relational reading: ``X op Y`` is the tightest
representable interval around every ``z`` for which witnesses ``x in X``
and ``y in Y`` satisfy the defining equation (``x + y = z`` for addition,
``z + y = x`` for subtraction, ``z * y = x`` for division, ``y * y = x``
for the two-sided root).  This makes every operation total: division by
an interval containing zero and roots of partly negative ranges are
ordinary cases, not errors.  Image-style variants (``div_canonical``,
``sqrt_canonical``) are provided alongside for the operations where the
two readings differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import copysign

# sub_down goes unused here: the benchmark tracer patches each rounding helper
# in this module's namespace, so each must stay bound
from .rounding import (
    _abridged,
    add_down,
    add_up,
    div_down,
    div_up,
    mul_down,
    mul_up,
    round_down,
    round_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
)

__all__ = [
    "Interval",
    "Box",
    "EMPTY",
    "REALS",
    "hull_bounds",
    "hull_union",
    "add",
    "sub",
    "mul",
    "div",
    "div_canonical",
    "sqrt_rel",
    "sqrt_canonical",
    "neg",
    "absolute",
    "member",
    "subset",
    "intersects",
    "width",
    "midpoint",
    "parse_interval",
    "format_interval",
    "parse_box",
]

_INF = math.inf
_NINF = -math.inf


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed connected set of reals with binary64 bounds.

    A slotted frozen value whose only fields are its bounds.
    ``Interval(lo, hi)`` keeps float bounds as given and rounds any other
    bound descriptor (int, Fraction, Decimal, numeric string) outward, so
    the interval always contains the reals it names.  It normalizes:
    reversed bounds (lo > hi) denote the empty set, as do impossible ones
    (lo = +inf or hi = -inf, since the infinities are not members), and
    the empty set is always stored as ``(inf, -inf)``.  ``is_empty`` reads
    that pair, as the kernels and predicates do.
    """

    lo: float
    hi: float

    # the single validation hook; the benchmark tracer times and counts constructions here
    def __post_init__(self):
        lo, hi = self.lo, self.hi
        # other bound descriptors name exact reals: round them outward
        if type(lo) is not float:
            lo = float(round_down(lo))
            object.__setattr__(self, "lo", lo)
        if type(hi) is not float:
            hi = float(round_up(hi))
            object.__setattr__(self, "hi", hi)
        if lo <= hi and lo != _INF and hi != _NINF:
            # normalize -0.0 so equal sets compare and print identically
            if lo == 0.0 and copysign(1.0, lo) < 0.0:
                object.__setattr__(self, "lo", 0.0)
            if hi == 0.0 and copysign(1.0, hi) < 0.0:
                object.__setattr__(self, "hi", 0.0)
            return
        if lo != lo or hi != hi:
            raise ValueError("interval bounds cannot be NaN")
        object.__setattr__(self, "lo", _INF)
        object.__setattr__(self, "hi", _NINF)

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def is_empty(self) -> bool:
        """True for the empty set, whose stored bounds are (inf, -inf)."""
        return self.lo > self.hi

    @property
    def is_bounded(self) -> bool:
        """True when both bounds are finite (vacuously true on empty)."""
        return self.lo > -math.inf and self.hi < math.inf  # true on (inf, -inf)

    @property
    def is_degenerate(self) -> bool:
        """Single-point interval."""
        return self.lo == self.hi  # false on (inf, -inf)

    def __contains__(self, value: float) -> bool:
        return member(value, self)

    def __str__(self) -> str:
        return format_interval(self)

    def __repr__(self) -> str:
        return format_interval(self)


EMPTY = Interval(_INF, _NINF)
REALS = Interval(-math.inf, math.inf)


def hull_bounds(lo=None, hi=None) -> Interval:
    """Tightest interval around the exact real bounds ``lo <= hi``.

    Bounds may be floats, ints, Fractions, Decimals, or numeric literal
    strings; each side rounds outward.  ``hull_bounds()`` (or both bounds
    None) is the empty set; exactly one None is an error.
    """
    if lo is None and hi is None:
        return EMPTY
    if lo is None or hi is None:
        raise ValueError("either give both bounds or neither")
    return Interval(lo, hi)


def hull_union(x: Interval, y: Interval) -> Interval:
    """Smallest interval containing both arguments."""
    # the empty bounds (inf, -inf) are the identity of min/max
    return Interval(min(x.lo, y.lo), max(x.hi, y.hi))


def member(value: float, x: Interval) -> bool:
    """Set membership; non-reals (NaN and the infinities) never belong."""
    return math.isfinite(value) and x.lo <= value <= x.hi  # false on (inf, -inf)


def subset(x: Interval, y: Interval) -> bool:
    """True when every member of ``x`` belongs to ``y``."""
    # the empty bounds (inf, -inf) lie inside every pair and contain none
    return y.lo <= x.lo and x.hi <= y.hi


def intersects(x: Interval, y: Interval) -> bool:
    """True when the two sets share at least one point."""
    return max(x.lo, y.lo) <= min(x.hi, y.hi)  # the pair of their intersection


def width(x: Interval) -> float:
    """Upper bound on ``hi - lo``; 0 for empty, inf when unbounded."""
    if x.is_empty:
        return 0.0
    if x.lo == -math.inf or x.hi == math.inf:
        return math.inf
    return sub_up(x.hi, x.lo)


def midpoint(x: Interval) -> float:
    """Midpoint of a bounded nonempty interval; others have none."""
    if x.is_empty or not x.is_bounded:
        raise ValueError("no midpoint: interval is empty or unbounded")
    m = x.lo / 2 + x.hi / 2
    if m < x.lo:
        m = x.lo
    elif m > x.hi:
        m = x.hi
    return m


# Kernels return (inf, -inf) for the empty set, else float bounds with lo <= hi, lo != inf
# and hi != -inf, so lo > hi alone tells an empty operand.  A -0.0 bound may pass through:
# no kernel tells it from 0.0 (sign tests use >= and <=; no zero divisor reaches div_*).
_EMPTY_PAIR = (_INF, _NINF)


def _add(x, y):
    (a, b), (c, d) = x, y
    if a > b or c > d:
        return _EMPTY_PAIR
    return add_down(a, c), add_up(b, d)


def _sub(x, y):
    (a, b), (c, d) = x, y
    if a > b or c > d:
        return _EMPTY_PAIR
    return add_down(a, -d), add_up(b, -c)  # sub_down and sub_up, one frame fewer


def _mul(x, y):
    (a, b), (c, d) = x, y
    if a > b or c > d:
        return _EMPTY_PAIR
    if a >= 0.0:
        if c >= 0.0:
            return mul_down(a, c), mul_up(b, d)
        if d <= 0.0:
            return mul_down(b, c), mul_up(a, d)
        return mul_down(b, c), mul_up(b, d)
    if b <= 0.0:
        if c >= 0.0:
            return mul_down(a, d), mul_up(b, c)
        if d <= 0.0:
            return mul_down(b, d), mul_up(a, c)
        return mul_down(a, d), mul_up(a, c)
    if c >= 0.0:
        return mul_down(a, d), mul_up(b, d)
    if d <= 0.0:
        return mul_down(b, c), mul_up(a, c)
    return min(mul_down(a, d), mul_down(b, c)), max(mul_up(a, c), mul_up(b, d))


def _div_by_positive(a, b, c, d):
    # hull of {u / v : u in [a, b], v in [c, d], v > 0}; requires d > 0
    if c <= 0.0:
        # divisors reach arbitrarily close to zero from above
        lo = _NINF if a < 0 else (0.0 if a == 0 else div_down(a, d))
        hi = _INF if b > 0 else (0.0 if b == 0 else div_up(b, d))
        return lo, hi
    lo = div_down(a, c) if a < 0 else div_down(a, d)
    hi = div_up(b, c) if b > 0 else div_up(b, d)
    return lo, hi


def _div_canonical(x, y):
    (a, b), (c, d) = x, y
    if a > b or c > d:
        return _EMPTY_PAIR
    lo, hi = _EMPTY_PAIR
    if d > 0:
        lo, hi = _div_by_positive(a, b, c, d)
    if c < 0:
        # negative divisors, reflected: {u/v : v<0} = {(-u)/(-v) : -v>0}
        nlo, nhi = _div_by_positive(-b, -a, -d if d < 0 else 0.0, -c)
        lo, hi = min(lo, nlo), max(hi, nhi)
    return lo, hi


def _div(x, y):
    if x[0] <= 0.0 <= x[1] and y[0] <= 0.0 <= y[1]:
        return _NINF, _INF
    return _div_canonical(x, y)


def _sqrt_rel(x):
    if x[1] < 0:  # the empty pair's hi is -inf
        return _EMPTY_PAIR
    r = sqrt_up(x[1])
    return -r, r


def _sqrt_canonical(x):
    if x[1] < 0:  # the empty pair's hi is -inf
        return _EMPTY_PAIR
    return (sqrt_down(x[0]) if x[0] > 0 else 0.0), sqrt_up(x[1])


def _neg(x):
    return -x[1], -x[0]  # the empty pair maps to itself


def _absolute(x):
    a, b = x
    if a >= 0:  # the empty pair included
        return x
    if b <= 0:
        return -b, -a
    return 0.0, max(b, -a)


def add(x: Interval, y: Interval) -> Interval:
    """{z | x + y = z for some x in X, y in Y}, rounded outward."""
    return Interval(*_add((x.lo, x.hi), (y.lo, y.hi)))


def sub(x: Interval, y: Interval) -> Interval:
    """{z | z + y = x for some x in X, y in Y}, rounded outward."""
    return Interval(*_sub((x.lo, x.hi), (y.lo, y.hi)))


def mul(x: Interval, y: Interval) -> Interval:
    """{z | x * y = z for some witnesses}, rounded outward.

    The signs of the operands (nonnegative, nonpositive, or straddling
    zero) pick the corner products that bound the hull, two per case
    and four when both straddle; directed rounding is monotone, so these
    are the corners a min/max over all four would choose.  A zero
    endpoint annihilates an infinite one, which is exactly the set
    semantics ({0 * y} = {0}).
    """
    return Interval(*_mul((x.lo, x.hi), (y.lo, y.hi)))


def div_canonical(x: Interval, y: Interval) -> Interval:
    """Hull of the quotient image {x / y : x in X, y in Y, y != 0}.

    Division by [0,0] gives the empty set; a divisor straddling zero
    splits into its sign parts and the two partial hulls are joined.
    """
    return Interval(*_div_canonical((x.lo, x.hi), (y.lo, y.hi)))


def div(x: Interval, y: Interval) -> Interval:
    """{z | z * y = x for some witnesses}, rounded outward.

    Total: when both operands contain zero, every real is a solution of
    z * 0 = 0 and the whole line comes back.  Otherwise the solution set
    coincides with the quotient image.
    """
    return Interval(*_div((x.lo, x.hi), (y.lo, y.hi)))


def sqrt_rel(x: Interval) -> Interval:
    """{y | y * y = x for some x in X}: both roots, rounded outward.

    Empty when X is entirely negative; otherwise symmetric about zero.
    """
    return Interval(*_sqrt_rel((x.lo, x.hi)))


def sqrt_canonical(x: Interval) -> Interval:
    """Hull of {sqrt(x) : x in X, x >= 0}: the nonnegative branch only."""
    return Interval(*_sqrt_canonical((x.lo, x.hi)))


def neg(x: Interval) -> Interval:
    """{-x : x in X}; exact, no rounding needed."""
    return Interval(*_neg((x.lo, x.hi)))


def absolute(x: Interval) -> Interval:
    """{|x| : x in X}; exact, no rounding needed."""
    return Interval(*_absolute((x.lo, x.hi)))


# the operators of Interval values are the public operations
Interval.__neg__, Interval.__abs__, Interval.__truediv__ = neg, absolute, div
Interval.__add__, Interval.__sub__, Interval.__mul__ = add, sub, mul

# the kernel of each public operation; box tapes in semantics run these
_KERNELS = {add: _add, sub: _sub, mul: _mul, div: _div, div_canonical: _div_canonical,
            sqrt_rel: _sqrt_rel, sqrt_canonical: _sqrt_canonical, neg: _neg, absolute: _absolute}


def _format_bound(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return f"{v:.17g}"


def format_interval(x: Interval) -> str:
    """Render in the textual syntax: ``empty`` or ``[lo,hi]``.

    Finite bounds print with 17 significant digits, enough to reparse to
    the identical float.
    """
    if x.is_empty:
        return "empty"
    return f"[{_format_bound(x.lo)},{_format_bound(x.hi)}]"


def parse_interval(text: str) -> Interval:
    """Parse ``empty`` or ``[lo,hi]``; literal bounds round outward.

    Bounds are decimal literals or ``inf``/``-inf``.  Raises ValueError
    on anything else.
    """
    s = text.strip()
    if s.lower() == "empty":
        return EMPTY
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad interval syntax: {_abridged(text)}")
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"interval needs exactly two bounds: {_abridged(text)}")
    try:
        return Interval(parts[0], parts[1])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad interval bound in {_abridged(text)}: {exc}") from None


def parse_box(text: str) -> "Box":
    """Parse a ``;``-separated list of interval texts into a box."""
    parts = text.split(";")
    return Box(tuple(parse_interval(p) for p in parts))


@dataclass(frozen=True, slots=True)
class Box:
    """Ordered tuple of intervals; empty as a set iff any coordinate is.

    A slotted frozen value, like ``Interval``.
    """

    dims: tuple

    def __post_init__(self):
        dims = tuple(self.dims)
        for d in dims:
            if not isinstance(d, Interval):
                raise TypeError("box coordinates must be intervals")
        object.__setattr__(self, "dims", dims)

    @property
    def arity(self) -> int:
        return len(self.dims)

    @property
    def is_empty(self) -> bool:
        return any(d.is_empty for d in self.dims)

    @property
    def is_bounded(self) -> bool:
        return all(d.is_bounded for d in self.dims)

    def contains(self, point) -> bool:
        """Coordinatewise membership of a real tuple."""
        pt = tuple(point)
        if len(pt) != len(self.dims):
            raise ValueError("point arity does not match box arity")
        return all(member(v, d) for v, d in zip(pt, self.dims))

    def is_subset_of(self, other: "Box") -> bool:
        if len(self.dims) != len(other.dims):
            raise ValueError("box arities differ")
        if self.is_empty:
            return True
        return all(subset(a, b) for a, b in zip(self.dims, other.dims))

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i: int) -> Interval:
        return self.dims[i]

    def __str__(self) -> str:
        return ";".join(format_interval(d) for d in self.dims)

    def __repr__(self) -> str:
        return f"Box({self.__str__()})"
