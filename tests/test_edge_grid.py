"""Soundness and 1-ulp tightness of the interval operations on an edge grid.

The grid's 26 endpoints are the values where binary64 arithmetic changes
behaviour: both signed zeros, the smallest subnormal, the smallest
normal 2**-1022, the two-product thresholds 2**-969 and 2**995 of
``rounding`` with their neighbours, 1 and its neighbours, and the
largest finite float, each with both signs.  Every pair of distinct
endpoints, in order, is an interval: 325 of them, ``[-0.0, 0.0]``
included.  Each operation's kernel runs on the bare bound pairs, signed
zeros as written, and every pair it returns must be a valid one: the
empty pair ``(inf, -inf)``, or float bounds with ``lo <= hi``,
``lo != inf`` and ``hi != -inf``.  That is what lets the kernels test an
operand for emptiness with ``lo > hi`` alone.  The boxed result is
compared with ``relational_oracle``'s exact answer: it must contain it,
and each finite bound must be the tightest float bound or its outward
neighbour.

Tier-1 runs the unary operations on the whole grid, and every binary one
with one operand on a stride of the grid and the other on all of it.  The full grid (105,625 pairs per binary
operation) runs as a script:

    PYTHONPATH=src python tests/test_edge_grid.py
"""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from relival.interval import (
    _KERNELS,
    Interval,
    absolute,
    add,
    div,
    div_canonical,
    mul,
    neg,
    sqrt_canonical,
    sqrt_rel,
    sub,
)
from relival.oracle import RATIONAL_EMPTY, RationalInterval, relational_oracle
from relival.rounding import MAX_FLOAT, next_down, next_up, round_down, round_up

from conftest import ulp_steps

_TINY, _HUGE = 2.0**-969, 2.0**995
_POSITIVE = [
    5e-324,
    2.0**-1022,
    next_down(_TINY), _TINY, next_up(_TINY),
    next_down(_HUGE), _HUGE, next_up(_HUGE),
    next_down(1.0), 1.0, next_up(1.0),
    MAX_FLOAT,
]
# sorted() is stable and -0.0 == 0.0, so -0.0 stays first of the two zeros
ENDPOINTS = sorted([-v for v in _POSITIVE] + [-0.0, 0.0] + _POSITIVE)
GRID = [(a, b) for i, a in enumerate(ENDPOINTS) for b in ENDPOINTS[i + 1 :]]

BINARY = {"+": add, "-": sub, "*": mul, "/": div, "/c": div_canonical}
UNARY = {"sqrt": sqrt_canonical, "sqrtr": sqrt_rel, "neg": neg, "abs": absolute}


def _canonical_oracle(x: Interval, y: Interval) -> RationalInterval:
    """Exact hull of {u / v : u in x, v in y, v != 0}."""
    if not (x.lo <= 0 <= x.hi and y.lo <= 0 <= y.hi):
        # no zero-by-zero witness: the image is the relational solution set
        return relational_oracle("/", x, y)
    if y.lo == 0 and y.hi == 0:
        return RATIONAL_EMPTY
    # 0 / v is attained; divisors near zero of either sign send the
    # nonzero numerators of the matching sign to infinity
    pos, negs = y.hi > 0, y.lo < 0
    lo = -math.inf if (pos and x.lo < 0) or (negs and x.hi > 0) else Fraction(0)
    hi = math.inf if (pos and x.hi > 0) or (negs and x.lo < 0) else Fraction(0)
    return RationalInterval(lo, hi)


def _oracle(op: str, x: Interval, y=None) -> RationalInterval:
    if op == "/c":
        return _canonical_oracle(x, y)
    return relational_oracle(op, x, y)


def _verdict(got: Interval, want: RationalInterval) -> str:
    """"ok", "unsound" (misses an exact member) or "loose" (over 1 ulp wide)."""
    if want.is_empty:
        return "ok" if got.is_empty else "loose"
    if not want.is_inside(got):
        return "unsound"
    # round_down and round_up pass an absent bound's infinity through
    lo, hi = round_down(want.lo), round_up(want.hi)
    return "ok" if ulp_steps(got.lo, lo) <= 1 and ulp_steps(got.hi, hi) <= 1 else "loose"


def _valid_pair(p) -> bool:
    lo, hi = p
    if type(lo) is not float or type(hi) is not float:
        return False
    return p == (math.inf, -math.inf) or (lo <= hi and lo != math.inf and hi != -math.inf)


def _evaluate(op: str, x: "tuple[float, float]", y=None) -> Interval:
    if y is None:
        p = _KERNELS[UNARY[op]](x)
    else:
        p = _KERNELS[BINARY[op]](x, y)
    assert _valid_pair(p), f"{op} on {x}, {y} gave {p}"
    return Interval(*p)


def _check(op: str, x, y=None) -> str:
    want = _oracle(op, Interval(*x), None if y is None else Interval(*y))
    return _verdict(_evaluate(op, x, y), want)


def _failures(op: str, pairs) -> list:
    return [(x, y) for x, y in pairs if _check(op, x, y) != "ok"][:5]


def test_grid_shape():
    assert len(ENDPOINTS) == 26 and len(GRID) == 325
    assert math.copysign(1.0, ENDPOINTS[12]) < 0 < math.copysign(1.0, ENDPOINTS[13])


def test_kernels_on_empty_and_unbounded_operands():
    # the oracle needs bounded operands: these are checked for a valid
    # result pair and for empty propagation only
    inf = math.inf
    empty = (inf, -inf)
    operands = [empty, (-inf, inf), (-inf, -0.0), (-inf, 0.0), (-0.0, inf), (0.0, inf),
                (-inf, -1.0), (1.0, inf), (-inf, -MAX_FLOAT), (MAX_FLOAT, inf)] + GRID[::5]
    for f in UNARY.values():
        for x in operands:
            p = _KERNELS[f](x)
            assert _valid_pair(p), f"{f.__name__} on {x} gave {p}"
            assert x != empty or p == empty
    for f in BINARY.values():
        for x in operands:
            for y in operands:
                p = _KERNELS[f](x, y)
                assert _valid_pair(p), f"{f.__name__} on {x}, {y} gave {p}"
                assert empty not in (x, y) or p == empty


@pytest.mark.parametrize("op", sorted(BINARY))
def test_binary_on_a_stride_of_the_grid(op):
    side = GRID[::25]
    pairs = [(x, y) for x in side for y in GRID] + [(x, y) for x in GRID for y in side]
    assert _failures(op, pairs) == []


@pytest.mark.parametrize("op", sorted(UNARY))
def test_unary_on_the_whole_grid(op):
    assert [x for x in GRID if _check(op, x) != "ok"] == []


def main() -> int:
    bad = 0
    for op in sorted(UNARY):
        tally = Counter(_check(op, x) for x in GRID)
        print(op, len(GRID), dict(tally))
        bad += len(GRID) - tally["ok"]
    for op in sorted(BINARY):
        tally = Counter(_check(op, x, y) for x in GRID for y in GRID)
        print(op, len(GRID) ** 2, dict(tally))
        bad += len(GRID) ** 2 - tally["ok"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
