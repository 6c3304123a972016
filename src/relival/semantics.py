"""Evaluation of expressions over points and over boxes.

An ``Interpretation`` assigns each operation symbol a real partial
function and an interval operation that extends it setwise.  Both
layers run one tape (a straight-line operation list, or Wengert list)
that is built once per root node without recursion and cached there:
``parse`` builds it as it reduces, and a tree built some other way gets
it by one fold over its nodes, by the same rule (``expr._tape``).
Slots ``0..n-1`` hold the arguments, one per variable in the order of
``variable_sequence``; each later slot holds one ``(symbol, a, b)``
operation on earlier slots, in post-order, where ``b < 0`` marks a
unary one.  Operations are numbered by that key, so a repeated subterm
is evaluated once, which changes no result.  Every leaf of a variable
reads that variable's one slot, so each variable is one coordinate of
the argument however often it occurs, and ``x - x`` over [0,1] stays at
[-1,1] (one witness per variable, chosen independently per side of the
relation) rather than pretending the two sides are correlated.

A box tape's slots hold bare ``(lo, hi)`` float pairs (empty:
``(inf, -inf)``) and its public interval operations run as their
``interval`` kernels.  ``compile_interval`` runs the whole pair tape: it
unboxes the leaves once and boxes the result once, by the constructor,
which normalizes ``-0.0`` and emptiness.  Subdivision binds the same
tape (``_pair_tape``) and keeps every box as its slot list of pairs, so a
result may carry a ``-0.0`` bound.

A point value is defined exactly when it is a finite float: NaN and the
infinities are not reals.  An undefined argument or subterm makes the
whole result undefined, and so does an operation that gives None, NaN
or an infinity, whether from an overflow past the binary64 range or
from a user's own operation, or that gives a number past that range,
such as a user operation's int ``10**400``.  The real operations do
not test this themselves (the default ones are IEEE arithmetic, and
only division refuses its zero divisor); each point runner applies the
rule.
``compile_real`` runs the tape point by point and stops at the first
non-finite argument or value.  Sampling runs it over columns: each slot
holds one list of floats, one per sample, so the tape is walked once per
batch; ``sample_inclusion``, the sampler behind ``relival check``, draws
its points in such batches.  There a non-finite entry is an undefined
sample, which IEEE arithmetic carries as undefinedness propagates, and
the one operation that could turn an infinity finite, division by it,
refuses its divisor.  The default operations run as ``map`` and
comprehension kernels that give every defined value bit for bit; any
other operation runs sample by sample behind an adapter, only where its
arguments are finite.  ``compile_real`` keeps the scalar loop: for a
single point it is several times faster than a batch of one, and it is
the reference the column runner is tested against.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from math import inf, nan, sqrt
from typing import Callable, Mapping

from .expr import Expr, _tape, variable_sequence
from .interval import (
    _KERNELS,
    Box,
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
from .rounding import MAX_FLOAT

__all__ = [
    "RealResult",
    "UNDEFINED",
    "Interpretation",
    "default_interpretation",
    "mode_select",
    "compile_real",
    "compile_interval",
    "eval_real",
    "eval_interval",
]


# A value v is defined when _LOWEST <= v <= MAX_FLOAT: false on NaN and the infinities,
# and exact on an int past the float range, which float() cannot convert
_LOWEST = -MAX_FLOAT


@dataclass(frozen=True)
class RealResult:
    """Outcome of a point evaluation: a finite value, or undefined.

    ``RealResult()`` (value None) is undefined.  Any other value must be a
    finite real, or ValueError is raised; it is stored as a float, and
    ``-0.0`` as ``0.0``, since the two are the same real.
    """

    value: "float | None" = None

    def __post_init__(self):
        v = self.value
        if v is not None:
            if not _LOWEST <= v <= MAX_FLOAT:
                raise ValueError("defined results must be finite reals")
            object.__setattr__(self, "value", float(v) + 0.0)  # -0.0 + 0.0 is 0.0

    @classmethod
    def defined(cls, v: float) -> "RealResult":
        return cls(v)

    @property
    def is_defined(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:
        if self.value is None:
            return "Undefined"
        return f"Defined({self.value!r})"


UNDEFINED = RealResult()


def _real_sqrt(a: float) -> "float | None":
    if a < 0:
        return None
    return math.sqrt(a)


# IEEE operations: an overflow's infinity is left for the runner to read as undefined
_REAL_OPS: "Mapping[str, Callable]" = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda a, b: a / b if b != 0.0 else None,
    "neg": operator.neg,
    "abs": abs,
    # both root symbols name the same point function: the nonnegative root.
    # They differ only in which set extension the interval layer picks.
    "sqrt": _real_sqrt,
    "sqrtr": _real_sqrt,
}

_INTERVAL_OPS_DEFAULT: "Mapping[str, Callable]" = {
    "+": add,
    "-": sub,
    "*": mul,
    "/": div,
    "neg": neg,
    "abs": absolute,
    "sqrt": sqrt_canonical,
    "sqrtr": sqrt_rel,
}


@dataclass(frozen=True, eq=False)
class Interpretation:
    """Symbol tables for evaluation; ``name`` tags the selected mode.

    An interval operation that is not public in ``interval`` (a user's own)
    runs through an adapter: one box per argument and result on every call.
    Subdivision calls it for the first box and then only for the boxes
    whose split changed its operands.
    A real operation returning NaN, an infinity or a number past the float
    range (such as the int ``10**400``) counts as undefined, as ``None``
    does.  When sampling, an operation is called wherever its own
    arguments are defined (finite), even at points where another subterm is
    not.
    """

    real_ops: "Mapping[str, Callable]"
    interval_ops: "Mapping[str, Callable]"
    name: str = "default"

    def real_op(self, symbol: str) -> Callable:
        try:
            return self.real_ops[symbol]
        except KeyError:
            raise KeyError(f"no real operation bound to symbol {symbol!r}") from None

    def interval_op(self, symbol: str) -> Callable:
        try:
            return self.interval_ops[symbol]
        except KeyError:
            raise KeyError(f"no interval operation bound to symbol {symbol!r}") from None


def default_interpretation() -> Interpretation:
    """Relational division, image-style ``sqrt``, relational ``sqrtr``."""
    return Interpretation(_REAL_OPS, _INTERVAL_OPS_DEFAULT, "default")


def mode_select(base: Interpretation, mode: str) -> Interpretation:
    """Rebind ``/`` and ``sqrt`` as a family; ``sqrtr`` stays relational.

    ``"relational"`` gives the total solution-set reading for both;
    ``"canonical"`` gives the image reading for both (division by an
    interval containing only zero is then empty, not the whole line).
    """
    if mode == "canonical":
        overrides = {"/": div_canonical, "sqrt": sqrt_canonical}
    elif mode == "relational":
        overrides = {"/": div, "sqrt": sqrt_rel}
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'relational' or 'canonical'")
    return Interpretation(base.real_ops, {**base.interval_ops, **overrides}, mode)


def _bind(e: Expr, lookup: Callable) -> "tuple[int, tuple]":
    n, ops = _tape(e)
    return n, tuple((lookup(sym), a, b) for sym, a, b in ops)


def _run(ops: tuple, s: list):
    """Run bound tape operations over the argument slots ``s``; the last slot's value."""
    for f, a, b in ops:
        s.append(f(s[a]) if b < 0 else f(s[a], s[b]))
    return s[-1]


def compile_real(e: Expr, interp: Interpretation) -> Callable:
    """Compile ``e`` once into a point evaluator.

    The returned callable takes a tuple ordered like
    ``variable_sequence(e)`` and yields a finite float, or None where the
    partial function is undefined: at a non-finite argument, or where an
    operation gives None, NaN or an infinity.  Arity is not rechecked per
    call; use ``eval_real`` for the validated one-shot form.
    """
    n, ops = _bind(e, interp.real_op)

    def run(args):
        s = list(args[:n])
        for v in s:
            if not _LOWEST <= v <= MAX_FLOAT:
                return None
        for f, a, b in ops:
            v = f(s[a]) if b < 0 else f(s[a], s[b])
            if v is None or not _LOWEST <= v <= MAX_FLOAT:
                return None
            s.append(v)
        return s[-1]

    return run


# Column kernels of the default real operations.  A non-finite entry is an undefined
# sample, and no kernel turns one finite: an overflow stays an infinity, and division
# refuses a non-finite or zero divisor.  So an entry is finite exactly where
# compile_real's value is defined, and there it equals that value bit for bit.
_COLUMN_KERNELS: "Mapping[Callable, Callable]" = {
    _REAL_OPS["+"]: lambda A, B: list(map(operator.add, A, B)),
    _REAL_OPS["-"]: lambda A, B: list(map(operator.sub, A, B)),
    _REAL_OPS["*"]: lambda A, B: list(map(operator.mul, A, B)),
    _REAL_OPS["/"]: lambda A, B: [x / y if _LOWEST <= y <= MAX_FLOAT and y != 0.0 else nan for x, y in zip(A, B)],
    _REAL_OPS["neg"]: lambda A: list(map(operator.neg, A)),
    _REAL_OPS["abs"]: lambda A: list(map(abs, A)),
    _REAL_OPS["sqrt"]: lambda A: [sqrt(x) if x >= 0.0 else nan for x in A],  # also "sqrtr"
}


def _column(f: Callable) -> Callable:
    """``f``'s column kernel, or ``f`` called sample by sample."""
    try:
        return _COLUMN_KERNELS[f]
    except (KeyError, TypeError):  # not a default real operation, or not hashable
        def per_sample(*cols):
            out = []
            for args in zip(*cols):
                v = f(*args) if all(_LOWEST <= x <= MAX_FLOAT for x in args) else None
                # None, NaN, an infinity or a number past the float range: undefined
                out.append(v if v is not None and _LOWEST <= v <= MAX_FLOAT else nan)
            return out

        return per_sample


def _compile_columns(e: Expr, interp: Interpretation) -> Callable:
    """Compile ``e`` once into a column evaluator for sampling.

    The returned callable takes one list of floats per variable, ordered
    like ``variable_sequence(e)`` and all of one length, and yields one
    list of values, non-finite (NaN or an infinity) where the partial
    function is undefined.
    """
    n, ops = _bind(e, lambda sym: _column(interp.real_op(sym)))
    return lambda cols: _run(ops, list(cols[:n]))


_CHUNK = 1024  # samples drawn and evaluated together


def sample_inclusion(e: Expr, interp: Interpretation, box: Box, samples: int = 1000, seed: int = 0) -> int:
    """Count sampled points whose defined value escapes the box evaluation.

    Samples uniformly from a bounded box; points where the expression is
    undefined are skipped.  Zero is the expected answer for any sound
    interpretation.  Points are drawn and evaluated in chunks of 1024, one
    pass of the column runner per chunk, so memory stays bounded for any
    sample count; the points are the ones ``Random(seed).uniform`` draws
    coordinate by coordinate, point after point, except on a coordinate
    wider than ``MAX_FLOAT``, where ``uniform`` would overflow to an
    infinity: it gets a finite point inside it from the same ``random()``
    value.  At least one sample is
    needed: zero would check nothing and still report no violations.
    """
    return _sample(e, interp, box, samples, seed)[1]


def _sample(e: Expr, interp: Interpretation, box, samples: int, seed: int) -> "tuple[tuple, int, int]":
    """The box evaluation's ``(lo, hi)`` pair, ``sample_inclusion``'s count and
    the number of samples where ``e`` is defined, as ``(result, violations,
    defined)``.  The pair tape runs over every box that is not refused,
    so an empty box, bounded or not, gets its result too, with no samples."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    dims = _box_dims(e, box)
    empty = any(d.is_empty for d in dims)
    if not empty and not all(d.is_bounded for d in dims):
        raise ValueError("inclusion sampling needs a bounded box")
    _, ops = _pair_tape(e, interp)
    # every value lies outside an empty result, such as (inf, -inf)
    result = lo, hi = _run(ops, [(d.lo, d.hi) for d in dims])
    if empty:
        return result, 0, 0
    run = _compile_columns(e, interp)
    # uniform(lo, hi) is lo + (hi - lo) * random(); the width is computed once.  A width
    # past MAX_FLOAT overflows, and then lo < 0 < hi: lo * (1 - r) + hi * r adds a term in
    # [lo, 0] to one in [0, hi], so the point is finite and inside the coordinate
    spans = [(d.lo, d.hi - d.lo, d.hi) for d in dims]
    n = len(spans)
    rand = random.Random(seed).random
    violations = defined = 0
    for start in range(0, samples, _CHUNK):
        draws = [
            x0 + w * rand() if w < inf else x0 * (1.0 - (r := rand())) + x1 * r
            for _ in range(min(_CHUNK, samples - start))
            for x0, w, x1 in spans
        ]
        values = run([draws[k::n] for k in range(n)])
        # the finiteness test skips undefined values (NaN or an infinity)
        finite = [v for v in values if _LOWEST <= v <= MAX_FLOAT]
        defined += len(finite)
        violations += len([v for v in finite if v < lo or hi < v])
    return result, violations, defined


def _kernel(f: Callable) -> Callable:
    """``f``'s pair kernel, or ``f`` behind the boxing adapter."""
    try:
        return _KERNELS[f]
    except (KeyError, TypeError):  # not public in interval, or not hashable
        def boxed(*pairs):
            r = f(*[Interval(lo, hi) for lo, hi in pairs])
            return r.lo, r.hi

        return boxed


def _pair_tape(e: Expr, interp: Interpretation) -> "tuple[int, tuple]":
    """``e``'s tape bound to pair kernels, as ``(n, ops)``: ``_run`` takes the
    ``n`` argument pairs, ordered like ``variable_sequence(e)``, and appends
    one ``(lo, hi)`` pair per operation."""
    return _bind(e, lambda sym: _kernel(interp.interval_op(sym)))


def compile_interval(e: Expr, interp: Interpretation) -> Callable:
    """Compile ``e`` once into a box evaluator (tuple of intervals in)."""
    n, ops = _pair_tape(e, interp)
    return lambda args: Interval(*_run(ops, [(d.lo, d.hi) for d in args][:n]))


def _check_arity(e: Expr, got: int):
    names = variable_sequence(e)
    if got != len(names):
        raise ValueError(
            f"arity mismatch: expression takes {len(names)} "
            f"argument(s) ({', '.join(names)}), got {got}"
        )


def _point(values) -> "tuple[float, ...]":
    """``values`` as a tuple of floats; a number past the float range, such as
    the int ``10**400``, is refused with ValueError, not OverflowError."""
    try:
        return tuple(float(v) for v in values)
    except OverflowError:
        raise ValueError("point coordinates must be finite reals") from None


def eval_real(e: Expr, interp: Interpretation, point) -> RealResult:
    """Evaluate at a tuple of finite reals ordered like the variable sequence."""
    pt = _point(point)
    _check_arity(e, len(pt))
    for v in pt:
        if not math.isfinite(v):
            raise ValueError("point coordinates must be finite reals")
    v = compile_real(e, interp)(pt)
    return UNDEFINED if v is None else RealResult.defined(v)


def _box_dims(e: Expr, box) -> tuple:
    """Coordinates of ``box`` (a ``Box`` or any sequence of intervals),
    checked by ``Box`` and against the arity of ``e``."""
    if not isinstance(box, Box):
        box = Box(box)
    _check_arity(e, len(box.dims))
    return box.dims


def eval_interval(e: Expr, interp: Interpretation, box) -> Interval:
    """Evaluate over a box (a ``Box`` or any sequence of intervals)."""
    return compile_interval(e, interp)(_box_dims(e, box))
