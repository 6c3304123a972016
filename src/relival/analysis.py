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
Both run on bare ``(lo, hi)`` pairs and build ``Interval`` values only
for what they return.  Refinement shrinks each coordinate's pair and
boxes each step once; the sequence's constructor then proves the nesting
and the target on the bounds.  ``check_convergence`` runs the pair tape
on each box and boxes only the report's enclosure.
Subdivision keeps each piece as the slot list of the box tape and
evaluates each box it creates once: the root runs the whole tape, and a
child re-runs only the operations that read its split coordinate,
directly or through an earlier operation.  One pass over the tape gives
each slot the bitmask of the coordinates it reads; a coordinate's re-run
list is filtered from those masks on its first split and then kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# variable_sequence, hull_union, member, subset and width go unused here: the
# benchmark tracer patches each of these names in this module's namespace, so each
# must stay bound
from .expr import Expr, variable_sequence
from .interval import Box, Interval, _midpoint, _pair_width, hull_union, member, midpoint, subset, width
from .rounding import sub_up
from .semantics import (
    Interpretation,
    _check_arity,
    _pair_tape,
    _point,
    _run,
    compile_real,
)

__all__ = [
    "RefinementSequence",
    "EnclosureReport",
    "refine_toward",
    "check_convergence",
    "bisect",
    "subdivide_enclosure",
]


def _nested(boxes: tuple, arity: int) -> bool:
    """True when every box has ``arity`` coordinates, each inside the one before."""
    outer = boxes[0].dims
    if len(outer) != arity:
        return False
    for b in boxes[1:]:
        inner = b.dims
        if len(inner) != arity:
            return False
        for o, i in zip(outer, inner):
            if o.lo > i.lo or i.hi > o.hi:  # a bound is never NaN
                return False
        outer = inner
    return True


@dataclass(frozen=True)
class RefinementSequence:
    """Nested boxes all containing a common target point.

    The constructor proves this on the bounds: every box has the target's
    arity, each lies inside the one before, and the last holds the target.
    That suffices, since a point of a box belongs to every box around it.
    Only a refusal walks the boxes with ``Box.contains``, so that it names
    the first box without the target (or the first of the wrong arity)
    before it blames the nesting.
    """

    boxes: "tuple[Box, ...]"
    target: "tuple[float, ...]"

    def __post_init__(self):
        boxes = tuple(self.boxes)
        target = _point(self.target)
        if not boxes:
            raise ValueError("a refinement sequence needs at least one box")
        if not (_nested(boxes, len(target)) and boxes[-1].contains(target)):
            # name the first fault, box by box: a box without the target, then the nesting
            for b in boxes:
                if not b.contains(target):
                    raise ValueError("target must belong to every box")
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


def _shrink_coordinate(lo: float, hi: float, t: float) -> "tuple[float, float]":
    # halve the width around t, translated back inside [lo, hi] if it overhangs
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
    return nl, nh


def refine_toward(box: Box, target, steps: int) -> RefinementSequence:
    """Nested sequence of ``steps + 1`` boxes closing in on ``target``.

    The box must be bounded and contain the target; every step halves
    each coordinate's width around the target's coordinate, clamped to
    stay inside the previous box.  The steps run on ``(lo, hi)`` pairs,
    each step is boxed once, and ``RefinementSequence``'s constructor
    proves the nesting and the target, as for any caller.
    """
    t = _point(target)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not box.is_bounded:
        raise ValueError("refinement needs a bounded box")
    if not box.contains(t):
        raise ValueError("target must lie inside the box")
    boxes = [box]
    pairs = [(d.lo, d.hi) for d in box.dims]
    for _ in range(steps):
        pairs = [_shrink_coordinate(lo, hi, v) for (lo, hi), v in zip(pairs, t)]
        boxes.append(Box(tuple([Interval(nl, nh) for nl, nh in pairs])))
    return RefinementSequence(tuple(boxes), t)


def check_convergence(
    e: Expr, interp: Interpretation, seq: RefinementSequence, tol: float
) -> EnclosureReport:
    """Evaluate along a refinement sequence and test convergence.

    Requires the expression to be defined at the target point; raises
    ValueError otherwise.  Convergence means the final width is within
    ``tol`` and the target's true value stayed inside every step.  Each
    box runs the pair tape, and the widths, nesting and containment are
    read from the result pairs as ``width``, ``subset`` and ``member``
    read them from intervals; only the last result is boxed, for the
    report.
    """
    _check_arity(e, seq.boxes[0].arity)
    v = compile_real(e, interp)(seq.target)
    if v is None:
        raise ValueError("expression is undefined at the target point")
    _, ops = _pair_tape(e, interp)
    results = [_run(ops, [(d.lo, d.hi) for d in b.dims]) for b in seq.boxes]
    widths = tuple(_pair_width(lo, hi) for lo, hi in results)
    nested = all(alo <= blo and bhi <= ahi for (alo, ahi), (blo, bhi) in zip(results, results[1:]))
    contained = all(lo <= v <= hi for lo, hi in results)
    converged = contained and widths[-1] <= tol
    return EnclosureReport(
        enclosure=Interval(*results[-1]),
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
    head, tail = box.dims[:coord], box.dims[coord + 1 :]
    return Box(head + (Interval(iv.lo, m),) + tail), Box(head + (Interval(m, iv.hi),) + tail)


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

    Every created box is evaluated once.  A box is kept as its tape slot
    list (its coordinates, then one pair per operation); the first child
    copies its parent's list and the second takes it over.  Each child
    takes its half of the split coordinate and re-runs, in tape order,
    only the operations that read that coordinate.  Every other slot
    already holds what a full run would compute, so the report is the
    same as running the whole tape for every box.
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
    n, ops = _pair_tape(e, interp)
    # per slot, the coordinates it reads, directly or through an earlier slot, as a bitmask
    masks = [1 << k for k in range(n)]
    for f, a, b in ops:
        masks.append(masks[a] if b < 0 else masks[a] | masks[b])
    reads: "dict[int, list]" = {}  # a coordinate's re-run list, from its first split on
    # a box is its slot list: its n coordinate pairs, then one pair per operation
    root = [(d.lo, d.hi) for d in box.dims]
    _run(ops, root)
    frontier = [root]
    # hulls as running bounds; (inf, -inf) is the empty hull, and an empty leaf stores it too
    settled_lo, settled_hi = math.inf, -math.inf
    all_within_tol = True
    created = 1  # every created box is evaluated exactly once
    widths_trace: list[float] = []
    while frontier:
        lo, hi = settled_lo, settled_hi  # the level's hull: the settled leaves and every box of it
        level, frontier = frontier, []
        for b in level:
            rlo, rhi = b[-1]  # read before the split: the second child takes over b
            if rlo < lo:
                lo = rlo
            if rhi > hi:
                hi = rhi
            i, w = 0, -1.0
            for k in range(n):
                dlo, dhi = b[k]
                dw = sub_up(dhi, dlo)
                if dw > w:
                    i, w = k, dw
            if w > tol:
                dlo, dhi = b[i]
                m = _midpoint(dlo, dhi)
                if m != dlo and m != dhi and created + 2 <= max_boxes:
                    rerun = reads.get(i)
                    if rerun is None:
                        rerun = reads[i] = [
                            (j, *op) for j, op in enumerate(ops, n) if masks[j] >> i & 1
                        ]
                    for c, half in ((b.copy(), (dlo, m)), (b, (m, dhi))):
                        c[i] = half
                        for j, f, x, y in rerun:
                            c[j] = f(c[x]) if y < 0 else f(c[x], c[y])
                        frontier.append(c)
                    created += 2
                    continue
                all_within_tol = False
            if rlo < settled_lo:
                settled_lo = rlo
            if rhi > settled_hi:
                settled_hi = rhi
        widths_trace.append(_pair_width(lo, hi))
    return EnclosureReport(
        enclosure=Interval(settled_lo, settled_hi),
        widths=tuple(widths_trace),
        iterations=created,
        converged=all_within_tol,
        nested=True,
    )
