"""Independent ground truth for cross-checking the interval engine.

Everything here recomputes answers from first principles in exact
rational arithmetic, deliberately sharing no code with the rounded
engine: relational results are rebuilt from the defining equations with
corner analysis plus symbolic treatment of zero divisors, and ranges of
single-occurrence product/sum expressions come from exact corner
enumeration.  Oracle results use ``RationalInterval``: Fraction bounds in
``Interval``'s set format (an infinity for an absent bound, ``(inf, -inf)``
for the empty set), so comparisons against the engine are exact and then
judged in float ULP steps.

Random case generators draw expressions with matching boxes.  One tree
builder serves both case diets of ``random_case``; a table gives each
diet its thresholds, the kinds they pick, its infix operations and the
kinds whose operand is a positive variable.  A plain-text manifest
format records test cases (one per line, fields tab-separated: seed,
expression, box, check name) so fixed corpora can be committed and
replayed.  ``sample_inclusion``, the sampler behind ``relival check``,
runs the engine's own point evaluation, so it lives in ``semantics`` and
is re-exported here.  The package loads this module only on first use of
one of its names, so the command line never imports it.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import _ORACLE_NAMES

# member and eval_interval go unused here: the benchmark tracer patches each of
# them, and variable_sequence, in this module's namespace, so each must stay bound
from .expr import (
    Binary, Expr, Unary, Var, _fold, _postorder, occurs_once, parse, to_source, variable_sequence
)
from .interval import Box, Interval, member, parse_box
from .semantics import _box_dims, eval_interval, sample_inclusion

__all__ = list(_ORACLE_NAMES)


@dataclass(frozen=True)
class RationalInterval:
    """Exact interval: Fraction bounds, ``-inf``/``inf`` where absent, empty as ``(inf, -inf)``."""

    lo: "Fraction | float"
    hi: "Fraction | float"

    def __post_init__(self):
        if not self.lo <= self.hi and (self.lo, self.hi) != (math.inf, -math.inf):
            raise ValueError("rational interval bounds out of order")
        if self.lo == self.hi and self.lo in (math.inf, -math.inf):
            raise ValueError("an infinite bound marks an absent one; use (inf, -inf) for empty")

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @classmethod
    def bounded(cls, lo, hi) -> "RationalInterval":
        return cls(Fraction(lo), Fraction(hi))

    @classmethod
    def from_interval(cls, iv: Interval) -> "RationalInterval":
        lo = iv.lo if math.isinf(iv.lo) else Fraction(iv.lo)
        hi = iv.hi if math.isinf(iv.hi) else Fraction(iv.hi)
        return cls(lo, hi)

    def contains(self, q) -> bool:
        # as for ``member``, NaN (the one value unequal to itself) and the infinities never belong
        return q == q and q not in (math.inf, -math.inf) and self.lo <= Fraction(q) <= self.hi

    def is_inside(self, iv: Interval) -> bool:
        """Exact test that every member of self belongs to the float interval."""
        # the empty pair lies inside every pair, and no nonempty one inside it
        return iv.lo <= self.lo and self.hi <= iv.hi


RATIONAL_EMPTY = RationalInterval(math.inf, -math.inf)
RATIONAL_REALS = RationalInterval(-math.inf, math.inf)


# exact binary corner operations, shared by the relational and corner oracles
_CORNER_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _require_bounded(iv: Interval, side: str):
    if not iv.is_bounded:
        raise ValueError(f"oracle needs bounded operands; {side} is unbounded")


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


def _div_oracle(xlo: Fraction, xhi: Fraction, ylo: Fraction, yhi: Fraction) -> RationalInterval:
    # solution set of z*y = x over exact rationals
    zero_in_x = xlo <= 0 <= xhi
    zero_in_y = ylo <= 0 <= yhi
    if ylo == 0 and yhi == 0:
        # z*0 = x solvable iff 0 in X, and then by every z
        return RATIONAL_REALS if zero_in_x else RATIONAL_EMPTY
    if zero_in_x and zero_in_y:
        return RATIONAL_REALS
    # witnesses with y != 0: the corner quotients, which bound the hull exactly, since
    # a / b is monotone in each argument while b keeps one sign
    candidates = [a / b for a in (xlo, xhi) for b in (ylo, yhi) if b != 0]
    # an endpoint at zero with the other side nonzero still witnesses z=0
    if zero_in_x:
        candidates.append(Fraction(0))
    pos_near_zero = yhi > 0 and ylo <= 0  # arbitrarily small positive divisors
    neg_near_zero = ylo < 0 and yhi >= 0
    unbounded_above = (pos_near_zero and xhi > 0) or (neg_near_zero and xlo < 0)
    unbounded_below = (pos_near_zero and xlo < 0) or (neg_near_zero and xhi > 0)
    lo = -math.inf if unbounded_below else min(candidates)
    hi = math.inf if unbounded_above else max(candidates)
    return RationalInterval(lo, hi)


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
    binary = op in _CORNER_BINARY or op == "/"
    if not binary and op not in ("neg", "abs", "sqrt", "sqrtr"):
        raise ValueError(f"no oracle for operation {op!r}")
    if binary != (y is not None):
        raise ValueError(f"operation {op!r} takes {'two operands' if binary else 'one operand'}")
    _require_bounded(x, "the first operand")
    if binary:
        _require_bounded(y, "the second operand")
    if x.is_empty or (binary and y.is_empty):
        return RATIONAL_EMPTY
    xlo, xhi = Fraction(x.lo), Fraction(x.hi)
    if binary:
        ylo, yhi = Fraction(y.lo), Fraction(y.hi)
        if op == "/":
            return _div_oracle(xlo, xhi, ylo, yhi)
        # for "-", z + y = x, so z ranges over corner differences
        f = _CORNER_BINARY[op]
        vals = [f(a, b) for a in (xlo, xhi) for b in (ylo, yhi)]
        return RationalInterval(min(vals), max(vals))
    if op == "neg":
        return RationalInterval(-xhi, -xlo)
    if op == "abs":
        if xlo >= 0:
            return RationalInterval(xlo, xhi)
        if xhi <= 0:
            return RationalInterval(-xhi, -xlo)
        return RationalInterval(Fraction(0), max(xhi, -xlo))
    if xhi < 0:
        return RATIONAL_EMPTY
    hi_inner, _ = _sqrt_bracket(xhi)
    if op == "sqrtr":
        # y*y = x: symmetric pair of roots of the largest admissible radicand
        return RationalInterval(-hi_inner, hi_inner)
    # sqrt: image of the nonnegative branch
    if xlo <= 0:
        return RationalInterval(Fraction(0), hi_inner)
    _, lo_outer = _sqrt_bracket(xlo)
    return RationalInterval(min(lo_outer, hi_inner), hi_inner)


_CORNER_OPS = {*_CORNER_BINARY, "neg"}


def _corner_ops_only(e: Expr) -> bool:
    return all(n.op in _CORNER_OPS for n in _postorder(e) if not isinstance(n, Var))


def _exact_eval(e: Expr, env: dict) -> Fraction:
    return _fold(
        e,
        lambda v: env[v.name],
        lambda u, child: -child,
        lambda b, left, right: _CORNER_BINARY[b.op](left, right),
    )


def corner_range_oracle(e: Expr, box: Box) -> RationalInterval:
    """Exact range of a single-occurrence ``+ - * neg`` expression.

    Each variable appears in at most one leaf, so the expression is
    affine in every variable separately and its range over a box is the
    hull of its values at the corners, computed here in exact rationals.
    """
    if not occurs_once(e):
        raise ValueError("corner oracle needs each variable in a single leaf")
    if not _corner_ops_only(e):
        raise ValueError("corner oracle covers only + - * neg")
    choices = []
    for d in _box_dims(e, box):
        if d.is_empty or not d.is_bounded:
            raise ValueError("corner oracle needs bounded nonempty coordinates")
        lo, hi = Fraction(d.lo), Fraction(d.hi)
        choices.append((lo,) if lo == hi else (lo, hi))
    names = variable_sequence(e)
    # the hull as running bounds, seeded with the empty pair
    best_lo, best_hi = math.inf, -math.inf
    for corner in itertools.product(*choices):
        v = _exact_eval(e, dict(zip(names, corner)))
        if v < best_lo:
            best_lo = v
        if v > best_hi:
            best_hi = v
    return RationalInterval(best_lo, best_hi)


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


@dataclass(frozen=True)
class ManifestCase:
    """One recorded test case: seed, expression source, box text, check name."""

    seed: int
    expression: str
    box: str
    check: str

    def parsed(self):
        """(expr, box) pair reconstructed from the recorded texts."""
        e, _ = parse(self.expression)
        return e, parse_box(self.box)


def write_manifest(path, cases) -> None:
    """Write cases one per line, tab-separated (fields contain spaces)."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in cases:
            fh.write(f"{c.seed}\t{c.expression}\t{c.box}\t{c.check}\n")


def read_manifest(path):
    """Read a manifest written by ``write_manifest``; skips blank lines."""
    cases = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"manifest line {lineno} needs 4 tab-separated fields")
            cases.append(ManifestCase(int(parts[0]), parts[1], parts[2], parts[3]))
    return cases


def case_for(seed: int, e: Expr, box: Box, check: str) -> ManifestCase:
    """Manifest record for an in-memory case."""
    return ManifestCase(seed, to_source(e), str(box), check)
