"""Refinement and enclosure analysis.

Two complementary ways of tightening an interval evaluation:

* shrink the whole box toward a chosen point and watch the evaluated
  intervals nest down around the point's true value (``refine_toward`` +
  ``check_convergence``), and
* keep the box but split it into pieces, evaluate each piece, and join
  the results (``subdivide_enclosure``), which never widens the answer
  and usually sharpens it.

Both rest on inclusion monotonicity of the interval operations: a
smaller argument box always yields a result inside the larger box's
result, so deepening either process cannot lose the true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# variable_sequence and hull_union go unused here: the benchmark tracer patches
# each of these names in this module's namespace, so each must stay bound
from .expr import Expr, variable_sequence
from .interval import Box, Interval, hull_union, member, midpoint, subset, width
from .semantics import Interpretation, _check_arity, compile_interval, compile_real

__all__ = [
    "RefinementSequence",
    "EnclosureReport",
    "refine_toward",
    "check_convergence",
    "bisect",
    "subdivide_enclosure",
]


@dataclass(frozen=True)
class RefinementSequence:
    """Nested boxes all containing a common target point."""

    boxes: "tuple[Box, ...]"
    target: "tuple[float, ...]"

    def __post_init__(self):
        boxes = tuple(self.boxes)
        target = tuple(float(v) for v in self.target)
        if not boxes:
            raise ValueError("a refinement sequence needs at least one box")
        for b in boxes:
            if not b.contains(target):
                raise ValueError("target must belong to every box")
        for outer, inner in zip(boxes, boxes[1:]):
            if not inner.is_subset_of(outer):
                raise ValueError("boxes must be nested, each inside the last")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "target", target)

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class EnclosureReport:
    """Outcome of a convergence or subdivision run.

    ``widths`` traces the evaluated enclosure width per step;
    ``iterations`` counts interval evaluations; ``nested`` records
    whether each step's enclosure sat inside the previous one.
    """

    enclosure: Interval
    widths: "tuple[float, ...]"
    iterations: int
    converged: bool
    nested: bool = True


def _shrink_coordinate(iv: Interval, t: float) -> Interval:
    # halve the width around t, translated back inside iv if it overhangs
    lo, hi = iv.lo, iv.hi
    half = hi / 4 - lo / 4  # (hi - lo) / 4 overflows once the width passes MAX_FLOAT
    nl = t - half
    nh = t + half
    # t -/+ half overflows when t is within half of -/+MAX_FLOAT; the shift
    # past the edge then comes from the edge itself, which stays in range
    if nl < lo:
        nh = min(hi, nh + (lo - nl) if nl > -math.inf else lo + 2 * half)
        nl = lo
    elif nh > hi:
        nl = max(lo, nl - (nh - hi) if nh < math.inf else hi - 2 * half)
        nh = hi
    # rounding safety: never lose the target or escape the old coordinate
    if nl > t:
        nl = t
    if nh < t:
        nh = t
    return Interval(nl, nh)


def refine_toward(box: Box, target, steps: int) -> RefinementSequence:
    """Nested sequence of ``steps + 1`` boxes closing in on ``target``.

    The box must be bounded and contain the target; every step halves
    each coordinate's width around the target's coordinate, clamped to
    stay inside the previous box.
    """
    t = tuple(float(v) for v in target)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not box.is_bounded:
        raise ValueError("refinement needs a bounded box")
    if not box.contains(t):
        raise ValueError("target must lie inside the box")
    boxes = [box]
    current = box
    for _ in range(steps):
        current = Box(tuple(_shrink_coordinate(d, v) for d, v in zip(current, t)))
        boxes.append(current)
    return RefinementSequence(tuple(boxes), t)


def check_convergence(
    e: Expr, interp: Interpretation, seq: RefinementSequence, tol: float
) -> EnclosureReport:
    """Evaluate along a refinement sequence and test convergence.

    Requires the expression to be defined at the target point; raises
    ValueError otherwise.  Convergence means the final width is within
    ``tol`` and the target's true value stayed inside every step.
    """
    _check_arity(e, seq.boxes[0].arity)
    v = compile_real(e, interp)(seq.target)
    if v is None:
        raise ValueError("expression is undefined at the target point")
    fn = compile_interval(e, interp)
    results = [fn(b.dims) for b in seq.boxes]
    widths = tuple(width(iv) for iv in results)
    nested = all(subset(b, a) for a, b in zip(results, results[1:]))
    contained = all(member(v, iv) for iv in results)
    converged = contained and widths[-1] <= tol
    return EnclosureReport(
        enclosure=results[-1],
        widths=widths,
        iterations=len(results),
        converged=converged,
        nested=nested,
    )


def bisect(box: Box, coord: int) -> "tuple[Box, Box]":
    """Split a box at the midpoint of one coordinate.

    The coordinate must be bounded with positive width, and the split
    point must separate it at float resolution; the box must be
    nonempty.
    """
    if box.is_empty:
        raise ValueError("cannot bisect an empty box")
    if not 0 <= coord < box.arity:
        raise ValueError(f"coordinate {coord} out of range for arity {box.arity}")
    iv = box[coord]
    if not iv.is_bounded:
        raise ValueError("cannot bisect an unbounded coordinate")
    if iv.lo == iv.hi:
        raise ValueError("cannot bisect a degenerate coordinate")
    m = midpoint(iv)
    if m == iv.lo or m == iv.hi:
        raise ValueError("coordinate too narrow to split at float resolution")
    return _split(box, coord, m)


def _split(box: Box, coord: int, m: float) -> "tuple[Box, Box]":
    # the caller has checked that m lies strictly inside coordinate coord
    dims = box.dims
    iv = dims[coord]
    head, tail = dims[:coord], dims[coord + 1 :]
    return Box(head + (Interval(iv.lo, m),) + tail), Box(head + (Interval(m, iv.hi),) + tail)


def _widest(box: Box) -> "tuple[int, float]":
    best_i, best_w = 0, -1.0
    for i, d in enumerate(box.dims):
        w = width(d)
        if w > best_w:
            best_i, best_w = i, w
    return best_i, best_w


def subdivide_enclosure(
    e: Expr, interp: Interpretation, box: Box, tol: float, max_boxes: int
) -> EnclosureReport:
    """Branch-free breadth-first subdivision enclosure.

    Splits the widest coordinate (ties to the lowest index) of every box
    wider than ``tol``, level by level, joining the evaluations of the
    current partition after each level.  Deterministic; stops when all
    leaves meet the tolerance or the ``max_boxes`` budget is reached.
    The reported widths never increase, and the final enclosure is never
    wider than evaluating the original box directly.
    """
    _check_arity(e, box.arity)
    if box.is_empty:
        raise ValueError("subdivision needs a nonempty box")
    if not box.is_bounded:
        raise ValueError("subdivision needs a bounded box")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_boxes < 1:
        raise ValueError("max_boxes must be at least 1")
    fn = compile_interval(e, interp)
    frontier = [box]
    # hulls as running bounds; (inf, -inf) is the empty hull
    settled_lo, settled_hi = math.inf, -math.inf
    all_within_tol = True
    created = 1  # every created box is evaluated exactly once
    widths_trace: list[float] = []
    while frontier:
        level = [(b, fn(b.dims)) for b in frontier]
        lo, hi = settled_lo, settled_hi
        for _, iv in level:
            if not iv.is_empty:
                if iv.lo < lo:
                    lo = iv.lo
                if iv.hi > hi:
                    hi = iv.hi
        widths_trace.append(width(Interval(lo, hi)))
        frontier = []
        for b, iv in level:
            i, w = _widest(b)
            if w > tol:
                d = b.dims[i]
                m = midpoint(d)
                if m != d.lo and m != d.hi and created + 2 <= max_boxes:
                    frontier += _split(b, i, m)
                    created += 2
                    continue
                all_within_tol = False
            if not iv.is_empty:
                if iv.lo < settled_lo:
                    settled_lo = iv.lo
                if iv.hi > settled_hi:
                    settled_hi = iv.hi
    return EnclosureReport(
        enclosure=Interval(settled_lo, settled_hi),
        widths=tuple(widths_trace),
        iterations=created,
        converged=all_within_tol,
        nested=True,
    )
