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

Random case generators draw expressions with matching boxes, and a
plain-text manifest format records test cases (one per line, fields
tab-separated: seed, expression, box, check name) so fixed corpora can
be committed and replayed.  ``sample_inclusion``, the sampler behind
``relival check``, runs the engine's own point evaluation, so it lives in
``semantics`` and is re-exported here.  The package loads this module
only on first use of one of its names, so the command line never
imports it.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

# member and eval_interval go unused here: the benchmark tracer patches each of
# them, and variable_sequence, in this module's namespace, so each must stay bound
from .expr import (
    Binary, Expr, Unary, Var, _fold, _postorder, occurs_once, parse, to_source, variable_sequence
)
from .interval import Box, Interval, member, parse_box
from .semantics import _box_dims, eval_interval, sample_inclusion

__all__ = [
    "RationalInterval",
    "relational_oracle",
    "corner_range_oracle",
    "sample_inclusion",
    "random_case",
    "random_single_occurrence_case",
    "ManifestCase",
    "write_manifest",
    "read_manifest",
]


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
        return self.lo <= Fraction(q) <= self.hi

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


def _sqrt_bracket(q: Fraction, bits: int = 200):
    """(lo, hi) with lo <= sqrt(q) <= hi; the gap is ~2**-bits relative."""
    if q < 0:
        raise ValueError("negative radicand")
    n, d = q.numerator, q.denominator
    scaled = (n * d) << (2 * bits)
    s = isqrt(scaled)
    den = d << bits
    lo = Fraction(s, den)
    if s * s == scaled:
        return lo, lo
    return lo, Fraction(s + 1, den)


def _div_oracle(x: Interval, y: Interval, grid: int) -> RationalInterval:
    # solution set of z*y = x over exact rationals
    xlo, xhi = Fraction(x.lo), Fraction(x.hi)
    ylo, yhi = Fraction(y.lo), Fraction(y.hi)
    zero_in_x = xlo <= 0 <= xhi
    zero_in_y = ylo <= 0 <= yhi
    if ylo == 0 and yhi == 0:
        # z*0 = x solvable iff 0 in X, and then by every z
        return RATIONAL_REALS if zero_in_x else RATIONAL_EMPTY
    if zero_in_x and zero_in_y:
        return RATIONAL_REALS
    # witnesses with y != 0: corner quotients plus a confirming grid
    xs = [xlo, xhi]
    ys = [v for v in (ylo, yhi) if v != 0]
    candidates = [a / b for a in xs for b in ys]
    if grid > 1:
        steps = [Fraction(i, grid) for i in range(grid + 1)]
        divisors = [b for b in (ylo + (yhi - ylo) * t for t in steps) if b != 0]
        for t in steps:
            a = xlo + (xhi - xlo) * t
            candidates.extend(a / b for b in divisors)
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


def relational_oracle(op: str, x: Interval, y: "Interval | None" = None, grid: int = 16) -> RationalInterval:
    """Recompute one operation from its defining relation, exactly.

    Operands must be bounded (the result may still be unbounded: division
    by a range through zero reports its absent bounds as ``-inf``/``inf``).
    The result is attained by witnesses, so it is always a subset of the
    true relational answer; for ``+ - * / neg abs`` it is
    the exact hull, for the roots it is exact on perfect squares and an
    inner approximation within 2**-200 otherwise.
    """
    _require_bounded(x, "the first operand")
    if y is not None:
        _require_bounded(y, "the second operand")
    if x.is_empty or (y is not None and y.is_empty):
        return RATIONAL_EMPTY
    if op in _CORNER_BINARY:
        # for "-", z + y = x, so z ranges over corner differences
        f = _CORNER_BINARY[op]
        xs, ys = (Fraction(x.lo), Fraction(x.hi)), (Fraction(y.lo), Fraction(y.hi))
        vals = [f(a, b) for a in xs for b in ys]
        return RationalInterval(min(vals), max(vals))
    if op == "/":
        return _div_oracle(x, y, grid)
    if op == "neg":
        return RationalInterval(-Fraction(x.hi), -Fraction(x.lo))
    if op == "abs":
        xlo, xhi = Fraction(x.lo), Fraction(x.hi)
        if xlo >= 0:
            return RationalInterval(xlo, xhi)
        if xhi <= 0:
            return RationalInterval(-xhi, -xlo)
        return RationalInterval(Fraction(0), max(xhi, -xlo))
    if op == "sqrtr":
        # y*y = x: symmetric pair of roots of the largest admissible radicand
        if x.hi < 0:
            return RATIONAL_EMPTY
        r, _ = _sqrt_bracket(Fraction(x.hi))
        return RationalInterval(-r, r)
    if op == "sqrt":
        # image of the nonnegative branch
        if x.hi < 0:
            return RATIONAL_EMPTY
        hi_inner, _ = _sqrt_bracket(Fraction(x.hi))
        if x.lo <= 0:
            return RationalInterval(Fraction(0), hi_inner)
        _, lo_outer = _sqrt_bracket(Fraction(x.lo))
        lo_outer = min(lo_outer, hi_inner)
        return RationalInterval(lo_outer, hi_inner)
    raise ValueError(f"no oracle for operation {op!r}")


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


def _build_tree(rng: random.Random, depth: int, pool, positive, continuous: bool) -> Expr:
    if depth <= 1 or rng.random() < 0.3:
        return Var(rng.choice(pool))
    r = rng.random()
    if continuous:
        if r < 0.18:
            return Unary("neg", _build_tree(rng, depth - 1, pool, positive, continuous))
        if r < 0.30:
            return Unary("abs", _build_tree(rng, depth - 1, pool, positive, continuous))
        if r < 0.40:
            name = rng.choice(pool)
            positive.add(name)
            return Unary("sqrt", Var(name))
        if r < 0.52:
            name = rng.choice(pool)
            positive.add(name)
            num = _build_tree(rng, depth - 1, pool, positive, continuous)
            return Binary("/", num, Var(name))
        op = rng.choice(("+", "-", "*"))
        return Binary(
            op,
            _build_tree(rng, depth - 1, pool, positive, continuous),
            _build_tree(rng, depth - 1, pool, positive, continuous),
        )
    if r < 0.10:
        return Unary("neg", _build_tree(rng, depth - 1, pool, positive, continuous))
    if r < 0.20:
        return Unary("abs", _build_tree(rng, depth - 1, pool, positive, continuous))
    if r < 0.28:
        return Unary("sqrt", _build_tree(rng, depth - 1, pool, positive, continuous))
    if r < 0.36:
        return Unary("sqrtr", _build_tree(rng, depth - 1, pool, positive, continuous))
    op = rng.choice(("+", "-", "*", "/", "+", "-", "*"))
    return Binary(
        op,
        _build_tree(rng, depth - 1, pool, positive, continuous),
        _build_tree(rng, depth - 1, pool, positive, continuous),
    )


def random_case(rng: random.Random, max_depth: int = 5, max_vars: int = 4, continuous: bool = False):
    """Random expression with a matching bounded box; returns (expr, box).

    With ``continuous=True`` the draw avoids discontinuity sources:
    division and sqrt apply only to variables whose boxes stay inside
    [1/4, 4], so evaluation is Lipschitz on the box and shrinking boxes
    give shrinking results.  Without it, anything goes (division through
    zero, roots of negative ranges), which is the right diet for
    totality and inclusion checks.
    """
    nvars = rng.randint(1, max_vars)
    pool = [f"x{i}" for i in range(nvars)]
    positive: set = set()
    e = _build_tree(rng, max_depth, pool, positive, continuous)
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


def random_single_occurrence_case(rng: random.Random, max_leaves: int = 6):
    """Random single-occurrence ``+ - * neg`` expression with a dyadic box.

    Box endpoints are multiples of 1/16 with magnitude at most 8, so any
    corner evaluation of such an expression (at most 6 leaves) stays
    exactly representable in binary64 and the engine's rounded corners
    are exact.  Returns (expr, box).
    """
    leaves = rng.randint(1, max_leaves)
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
