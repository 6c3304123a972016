"""Independent ground truth for cross-checking the interval engine.

Everything here recomputes answers from first principles in exact
rational arithmetic, deliberately sharing no code with the rounded
engine.  One table, ``_RULES``, holds an exact rule per operation: on
the exact bounds of nonempty operands (Fractions, an infinity where a
bound is absent) it returns the bound pair of the operation's exact
solution set, rebuilt from its defining relation; ``_MODES`` rebinds
``/`` and ``sqrt`` for each reading, as ``mode_select`` does.  Three
oracles read the table: ``relational_oracle`` applies one rule to
bounded operands, ``corner_range_oracle`` takes the hull of a
single-occurrence ``+ - * neg`` expression's exact values at the
corners of its box, and ``expression_oracle`` folds the rules over a
whole expression, which a sound engine's result must contain (Moore's
fundamental theorem).  Oracle results use ``RationalInterval``:
Fraction bounds in ``Interval``'s set format (an infinity for an absent
bound, ``(inf, -inf)`` for the empty set), so comparisons against the
engine are exact and then judged in float ULP steps.

Random case generators draw expressions with matching boxes.  One tree
builder serves both case diets of ``random_case``; a table gives each
diet its thresholds, the kinds they pick, its infix operations and the
kinds whose operand is a positive variable.  ``sample_inclusion``, the
sampler behind ``relival check``, runs the engine's own point
evaluation, so it lives in ``semantics`` and is re-exported here.  The
package loads this module only on first use of one of its names, so the
command line never imports it.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import _ORACLE_NAMES

# member and eval_interval go unused here: the benchmark tracer patches each of
# them, and variable_sequence, in this module's namespace, so each must stay bound
from .expr import Binary, Expr, Unary, Var, _fold, _postorder, occurs_once, variable_sequence
from .interval import Box, Interval, member
from .semantics import _box_dims, eval_interval, sample_inclusion

__all__ = list(_ORACLE_NAMES)

_INF = math.inf
_INFS = (_INF, -_INF)
_ZERO = Fraction(0)
_EMPTY = (_INF, -_INF)


@dataclass(frozen=True)
class RationalInterval:
    """Exact interval: Fraction bounds, ``-inf``/``inf`` where absent, empty as ``(inf, -inf)``."""

    lo: "Fraction | float"
    hi: "Fraction | float"

    def __post_init__(self):
        if not self.lo <= self.hi and (self.lo, self.hi) != _EMPTY:
            raise ValueError("rational interval bounds out of order")
        if self.lo == self.hi and self.lo in _INFS:
            raise ValueError("an infinite bound marks an absent one; use (inf, -inf) for empty")

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @classmethod
    def bounded(cls, lo, hi) -> "RationalInterval":
        return cls(Fraction(lo), Fraction(hi))

    @classmethod
    def from_interval(cls, iv: Interval) -> "RationalInterval":
        return cls(*_bounds(iv))

    def contains(self, q) -> bool:
        # as for ``member``, NaN (the one value unequal to itself) and the infinities never belong
        return q == q and q not in _INFS and self.lo <= Fraction(q) <= self.hi

    def is_inside(self, iv: Interval) -> bool:
        """Exact test that every member of self belongs to the float interval."""
        # the empty pair lies inside every pair, and no nonempty one inside it
        return iv.lo <= self.lo and self.hi <= iv.hi


RATIONAL_EMPTY = RationalInterval(*_EMPTY)
RATIONAL_REALS = RationalInterval(-_INF, _INF)


_SQRT_BITS = 200


def _sqrt_bracket(q: Fraction):
    """(lo, hi) with lo <= sqrt(q) <= hi; the gap is ~2**-_SQRT_BITS relative."""
    if q < 0:
        raise ValueError("negative radicand")
    n, d = q.numerator, q.denominator
    scaled = (n * d) << (2 * _SQRT_BITS)
    s = isqrt(scaled)
    den = d << _SQRT_BITS
    lo = Fraction(s, den)
    if s * s == scaled:
        return lo, lo
    return lo, Fraction(s + 1, den)


# The exact rules.  Each takes the bounds of nonempty operands, Fractions or a float
# infinity where a bound is absent (so ``type(b) is float`` tells an infinity, without the
# slow Fraction-to-float comparison), and returns the bound pair of the exact result,
# (inf, -inf) when it is empty.  An infinity never meets a Fraction in arithmetic, which
# would convert the Fraction to a float and overflow past the float range.


def _plus(a, b):
    # two bounds of one side: two infinities share their sign
    return a if type(a) is float else b if type(b) is float else a + b


def _times(a, b):
    # a zero factor annihilates an infinite one: {0} * R = {0}
    if a == 0 or b == 0:
        return _ZERO
    if type(a) is float or type(b) is float:
        return _INF if (a > 0) == (b > 0) else -_INF
    return a * b


def _product(a, b, c, d):
    corners = (_times(a, c), _times(a, d), _times(b, c), _times(b, d))
    return min(corners), max(corners)


def _quotient_image(a, b, c, d):
    """Hull of {u / v : u in [a, b], v in [c, d], v != 0}; empty for the divisor [0, 0]."""
    # u / v = u * (1 / v) over each sign part of the divisor, where 1 / v is monotone and
    # its bounds are the part's infinity at 0 and 0 at an infinity
    lo, hi = _EMPTY
    if d > 0:
        lo, hi = _product(a, b, _ZERO if d == _INF else 1 / d, _INF if c <= 0 else 1 / c)
    if c < 0:
        nlo, nhi = _product(a, b, -_INF if d >= 0 else 1 / d, _ZERO if c == -_INF else 1 / c)
        lo, hi = min(lo, nlo), max(hi, nhi)
    return lo, hi


def _quotient(a, b, c, d):
    # z * v = u: with 0 in both operands, every z solves z * 0 = 0
    return (-_INF, _INF) if a <= 0 <= b and c <= 0 <= d else _quotient_image(a, b, c, d)


def _root_image(a, b):
    # the nonnegative branch; sqrt(2)'s outer bracket lies above its inner one, so a
    # point's lower bound is clamped to its upper
    if b < 0:
        return _EMPTY
    hi = b if b == _INF else _sqrt_bracket(b)[0]
    return (_ZERO if a <= 0 else min(_sqrt_bracket(a)[1], hi)), hi


def _root_pair(a, b):
    # y * y = x: both roots of the largest admissible radicand; the empty pair maps to itself
    hi = _root_image(a, b)[1]
    return -hi, hi


_RULES = {
    "+": lambda a, b, c, d: (_plus(a, c), _plus(b, d)),
    "-": lambda a, b, c, d: (_plus(a, -d), _plus(b, -c)),
    "*": _product,
    "/": _quotient,
    "neg": lambda a, b: (-b, -a),
    "abs": lambda a, b: (a, b) if a >= 0 else (-b, -a) if b <= 0 else (_ZERO, max(b, -a)),
    "sqrt": _root_image,
    "sqrtr": _root_pair,
}
_BINARY = ("+", "-", "*", "/")
# each mode's rebinding of "/" and "sqrt", as mode_select makes it; None is the default reading
_MODES = {None: {}, "relational": {"sqrt": _root_pair}, "canonical": {"/": _quotient_image}}


def _exact_fold(e: Expr, rules: dict, leaf):
    """``rules`` folded over ``e`` on bound pairs, ``leaf(var)`` at the leaves; an empty operand gives the empty pair."""
    return _fold(
        e,
        leaf,
        lambda u, x: x if x[0] > x[1] else rules[u.op](*x),
        lambda n, x, y: _EMPTY if x[0] > x[1] or y[0] > y[1] else rules[n.op](*x, *y),
    )


def _bounds(iv: Interval) -> tuple:
    # an interval's bounds as exact ones: Fractions, and an infinity where absent
    return tuple(b if b in _INFS else Fraction(b) for b in (iv.lo, iv.hi))


def relational_oracle(op: str, x: Interval, y: "Interval | None" = None) -> RationalInterval:
    """Recompute one operation from its defining relation, exactly.

    ``y`` is given for the binary operations ``+ - * /`` and only for
    them.  Operands must be bounded (the result may still be unbounded:
    division by a range through zero reports its absent bounds as
    ``-inf``/``inf``).  The result is attained by witnesses, so it is
    always a subset of the true relational answer; for ``+ - * / neg abs``
    it is the exact hull, for the roots it is exact on perfect squares and
    an inner approximation within 2**-200 otherwise.
    """
    if op not in _RULES:
        raise ValueError(f"no oracle for operation {op!r}")
    binary = op in _BINARY
    if binary != (y is not None):
        raise ValueError(f"operation {op!r} takes {'two operands' if binary else 'one operand'}")
    operands = (x, y) if binary else (x,)
    for iv, side in zip(operands, ("the first operand", "the second operand")):
        if not iv.is_bounded:
            raise ValueError(f"oracle needs bounded operands; {side} is unbounded")
    if any(iv.is_empty for iv in operands):
        return RATIONAL_EMPTY
    return RationalInterval(*_RULES[op](*(b for iv in operands for b in _bounds(iv))))


_CORNER_OPS = {"+", "-", "*", "neg"}


def corner_range_oracle(e: Expr, box: Box) -> RationalInterval:
    """Exact range of a single-occurrence ``+ - * neg`` expression.

    Each variable appears in at most one leaf, so the expression is
    affine in every variable separately and its range over a box is the
    hull of its values at the corners, each computed here by the exact
    rules on point pairs.
    """
    if not occurs_once(e):
        raise ValueError("corner oracle needs each variable in a single leaf")
    if not all(n.op in _CORNER_OPS for n in _postorder(e) if not isinstance(n, Var)):
        raise ValueError("corner oracle covers only + - * neg")
    choices = []
    for d in _box_dims(e, box):
        if d.is_empty or not d.is_bounded:
            raise ValueError("corner oracle needs bounded nonempty coordinates")
        lo, hi = Fraction(d.lo), Fraction(d.hi)
        choices.append((lo,) if lo == hi else (lo, hi))
    names = variable_sequence(e)
    # each corner's value, as a point pair (v, v)
    values = [_exact_fold(e, _RULES, lambda v: (at[v.name],) * 2)[0]
              for at in (dict(zip(names, corner)) for corner in itertools.product(*choices))]
    return RationalInterval(min(values), max(values))


def expression_oracle(e: Expr, box, mode: "str | None" = None) -> RationalInterval:
    """Exact interval evaluation of ``e`` over ``box`` (a ``Box`` or any sequence of intervals).

    Each node applies its operation's exact rule, in the reading of
    ``mode`` (None for the default, ``"relational"`` or ``"canonical"``,
    as for ``mode_select``), to its operands' results.  Each rule gives
    its operation's exact set, or for the roots a subset within 2**-200;
    the exact operations are inclusion monotone, and a sound engine's
    operations contain them, so (Moore's fundamental theorem) the
    engine's ``eval_interval`` under the same reading contains this
    result.  Any box is taken: rays, the whole line and empty coordinates
    too.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; use 'relational' or 'canonical'")
    rules = {**_RULES, **_MODES[mode]}
    at = dict(zip(variable_sequence(e), map(_bounds, _box_dims(e, box))))
    return RationalInterval(*_exact_fold(e, rules, lambda v: at[v.name]))


# each case diet: (thresholds, kinds, infix operations, guarded kinds).  A node's
# draw r below the k-th threshold takes the k-th kind, and a larger one an infix
# operation on two subtrees.  A guarded kind's operand (sqrt's radicand, the
# divisor of "/") is a positive variable drawn from the pool, not a subtree.
_DIETS = {
    False: ((0.10, 0.20, 0.28, 0.36), ("neg", "abs", "sqrt", "sqrtr"), ("+", "-", "*", "/", "+", "-", "*"), ()),
    True: ((0.18, 0.30, 0.40, 0.52), ("neg", "abs", "sqrt", "/"), ("+", "-", "*"), ("sqrt", "/")),
}


def _build_tree(rng: random.Random, depth: int, pool, positive: set, diet) -> Expr:
    if depth <= 1 or rng.random() < 0.3:
        return Var(rng.choice(pool))
    thresholds, kinds, infix, guarded = diet
    k = bisect_right(thresholds, rng.random())
    if k == len(kinds):
        op = rng.choice(infix)
        left = _build_tree(rng, depth - 1, pool, positive, diet)
        return Binary(op, left, _build_tree(rng, depth - 1, pool, positive, diet))
    op = kinds[k]
    if op not in guarded:
        return Unary(op, _build_tree(rng, depth - 1, pool, positive, diet))
    name = rng.choice(pool)
    positive.add(name)
    if op == "sqrt":
        return Unary(op, Var(name))
    return Binary(op, _build_tree(rng, depth - 1, pool, positive, diet), Var(name))


def random_case(rng: random.Random, max_depth: int = 5, max_vars: int = 4, continuous: bool = False):
    """Random expression with a matching bounded box; returns (expr, box).

    ``continuous`` picks one of two diets in ``_DIETS``, which one tree
    builder draws from.  With ``continuous=True`` the draw avoids
    discontinuity sources: division and sqrt apply only to variables
    whose boxes stay inside [1/4, 4], so evaluation is Lipschitz on the
    box and shrinking boxes give shrinking results.  Without it, anything
    goes (division through zero, roots of negative ranges), which is the
    right diet for totality and inclusion checks.
    """
    nvars = rng.randint(1, max_vars)
    pool = [f"x{i}" for i in range(nvars)]
    positive: set = set()
    e = _build_tree(rng, max_depth, pool, positive, _DIETS[bool(continuous)])
    dims = []
    for name in variable_sequence(e):
        if name in positive:
            lo = rng.uniform(0.25, 2.0)
            hi = lo + rng.uniform(0.05, 2.0)
        else:
            center = rng.uniform(-3.0, 3.0)
            half = rng.uniform(0.05, 2.0)
            lo, hi = center - half, center + half
        dims.append(Interval(lo, hi))
    return e, Box(tuple(dims))


def _build_single(rng: random.Random, leaves: int, counter: list) -> Expr:
    if leaves == 1:
        name = f"v{counter[0]}"
        counter[0] += 1
        node: Expr = Var(name)
    else:
        split = rng.randint(1, leaves - 1)
        node = Binary(
            rng.choice(("+", "-", "*")),
            _build_single(rng, split, counter),
            _build_single(rng, leaves - split, counter),
        )
    if rng.random() < 0.2:
        node = Unary("neg", node)
    return node


# leaves of a single-occurrence case: corners stay exact up to this many (see below)
_SINGLE_LEAVES = 6


def random_single_occurrence_case(rng: random.Random):
    """Random single-occurrence ``+ - * neg`` expression with a dyadic box.

    Box endpoints are multiples of 1/16 with magnitude at most 8, so any
    corner evaluation of such an expression (at most 6 leaves) stays
    exactly representable in binary64 and the engine's rounded corners
    are exact.  Returns (expr, box).
    """
    leaves = rng.randint(1, _SINGLE_LEAVES)
    e = _build_single(rng, leaves, [0])
    dims = []
    for _ in variable_sequence(e):
        t1 = rng.randint(-128, 128)
        t2 = rng.randint(-128, 128)
        lo, hi = sorted((t1, t2))
        dims.append(Interval(lo / 16, hi / 16))
    return e, Box(tuple(dims))
