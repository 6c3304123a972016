"""Refinement sequences, convergence checks, subdivision enclosures."""

import math
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival import analysis
from relival.analysis import (
    EnclosureReport,
    RefinementSequence,
    bisect,
    check_convergence,
    refine_toward,
    subdivide_enclosure,
)
from relival.expr import parse, variable_sequence
from relival.interval import EMPTY, Box, Interval, hull_union, member, midpoint, subset, width
from relival.rounding import MAX_FLOAT
from relival.semantics import compile_interval, default_interpretation, eval_interval, mode_select
from relival.oracle import random_case

INF = math.inf
DEFAULT = default_interpretation()


def ast(source: str):
    e, _ = parse(source)
    return e


def box1(lo, hi):
    return Box((Interval(lo, hi),))


class TestRefinementSequence:
    def test_valid(self):
        seq = RefinementSequence((box1(0, 2), box1(0, 1)), (0.5,))
        assert len(seq) == 2

    def test_needs_a_box(self):
        with pytest.raises(ValueError):
            RefinementSequence((), (0.0,))

    def test_target_must_be_inside_every_box(self):
        with pytest.raises(ValueError):
            RefinementSequence((box1(0, 2), box1(0, 1)), (1.5,))

    def test_boxes_must_nest(self):
        with pytest.raises(ValueError):
            RefinementSequence((box1(0, 1), box1(0, 2)), (0.5,))


class TestRefineToward:
    def test_halves_around_interior_point(self):
        seq = refine_toward(box1(0, 2), (1.0,), 1)
        assert seq.boxes[1][0] == Interval(0.5, 1.5)

    def test_clamps_at_the_boundary(self):
        seq = refine_toward(box1(0, 2), (0.0,), 1)
        assert seq.boxes[1][0] == Interval(0.0, 1.0)
        seq = refine_toward(box1(0, 2), (2.0,), 1)
        assert seq.boxes[1][0] == Interval(1.0, 2.0)

    def test_zero_steps(self):
        seq = refine_toward(box1(0, 2), (1.0,), 0)
        assert seq.boxes == (box1(0, 2),)

    def test_each_step_roughly_halves(self):
        seq = refine_toward(box1(0, 8), (3.0,), 3)
        widths = [width(b[0]) for b in seq.boxes]
        assert widths == [8.0, 4.0, 2.0, 1.0]

    def test_forty_steps_shrink_geometrically(self):
        seq = refine_toward(box1(0, 1), (0.25,), 40)
        assert width(seq.boxes[-1][0]) <= 2.0 ** -39

    def test_degenerate_coordinate_stays_put(self):
        b = Box((Interval.point(2.0), Interval(0, 4)))
        seq = refine_toward(b, (2.0, 1.0), 2)
        assert seq.boxes[-1][0] == Interval.point(2.0)

    def test_multidimensional_shrink(self):
        b = Box((Interval(0, 2), Interval(-4, 4)))
        seq = refine_toward(b, (1.0, 0.0), 1)
        assert seq.boxes[1].dims == (Interval(0.5, 1.5), Interval(-2, 2))

    def test_target_outside_rejected(self):
        with pytest.raises(ValueError):
            refine_toward(box1(0, 1), (2.0,), 3)

    def test_unbounded_box_rejected(self):
        with pytest.raises(ValueError):
            refine_toward(box1(0, INF), (1.0,), 3)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            refine_toward(box1(0, 1), (0.5,), -1)

    def test_box_wider_than_max_float_still_shrinks(self):
        seq = refine_toward(box1(-1e308, 1e308), (0.0,), 3)
        widths = [width(b[0]) for b in seq.boxes]
        assert widths[0] == INF  # 2e308 is past MAX_FLOAT
        assert widths[1] <= 1.0000001e308
        assert widths[1] > widths[2] > widths[3]

    @pytest.mark.parametrize("target, last", [(5e-324, 2099), (-5e-324, 2099), (0.3, 1078)])
    def test_last_change_from_the_widest_box(self, target, last):
        # 2**1025 halves to 2**-1074 in 2099 steps: the CLI caps --steps at 2100
        seq = refine_toward(box1(-MAX_FLOAT, MAX_FLOAT), (target,), 2100)
        changes = [i for i in range(1, len(seq)) if seq.boxes[i] != seq.boxes[i - 1]]
        assert changes[-1] == last

    @pytest.mark.parametrize("target", [MAX_FLOAT, -MAX_FLOAT])
    def test_target_at_the_edge_of_the_float_range(self, target):
        # target +/- the quarter width overflows here; the box must still shrink
        seq = refine_toward(box1(-MAX_FLOAT, MAX_FLOAT), (target,), 3)
        widths = [width(b[0]) for b in seq.boxes]
        assert widths[0] == INF
        assert widths[1] <= MAX_FLOAT
        assert widths[1] > widths[2] > widths[3]
        assert all(b[0].lo <= target <= b[0].hi for b in seq.boxes)


class TestCheckConvergence:
    def test_polynomial_converges_to_point_value(self):
        e = ast("x*y + y*z")
        box = Box((Interval(0, 2), Interval(1, 3), Interval(2, 4)))
        seq = refine_toward(box, (1.0, 2.0, 3.0), 40)
        rep = check_convergence(e, DEFAULT, seq, 1e-9)
        assert rep.converged and rep.nested
        assert member(8.0, rep.enclosure)
        assert rep.iterations == 41
        assert rep.widths[0] == 16.0
        assert rep.widths[-1] <= 1e-9

    def test_zero_steps_trivial(self):
        seq = refine_toward(box1(0, 1), (0.5,), 0)
        rep = check_convergence(ast("x"), DEFAULT, seq, INF)
        assert rep.converged
        assert rep.widths == (1.0,)
        assert rep.iterations == 1

    def test_image_sqrt_converges_slowly_at_zero(self):
        # one-sided root: enclosure shrinks like the square root of the box
        seq = refine_toward(box1(-1, 1), (0.0,), 10)
        rep = check_convergence(ast("sqrt(x)"), DEFAULT, seq, 1e-9)
        assert not rep.converged
        assert rep.nested
        assert rep.enclosure == Interval(0, 0.03125)
        assert all(a >= b for a, b in zip(rep.widths, rep.widths[1:]))

    def test_undefined_target_rejected(self):
        e = ast("x / y")
        box = Box((Interval(1, 2), Interval(-1, 1)))
        seq = refine_toward(box, (1.5, 0.0), 5)
        with pytest.raises(ValueError, match="undefined"):
            check_convergence(e, DEFAULT, seq, 1e-9)

    def test_arity_mismatch_rejected(self):
        seq = refine_toward(box1(0, 1), (0.5,), 2)
        with pytest.raises(ValueError, match="arity"):
            check_convergence(ast("x + y"), DEFAULT, seq, 1e-9)

    def test_tolerance_judges_final_width(self):
        seq = refine_toward(box1(0, 1), (0.5,), 4)
        rep_loose = check_convergence(ast("x"), DEFAULT, seq, 0.1)
        rep_tight = check_convergence(ast("x"), DEFAULT, seq, 0.01)
        assert rep_loose.converged and not rep_tight.converged


class TestBisect:
    def test_splits_at_midpoint(self):
        left, right = bisect(Box((Interval(0, 4), Interval(0, 1))), 0)
        assert left.dims == (Interval(0, 2), Interval(0, 1))
        assert right.dims == (Interval(2, 4), Interval(0, 1))

    def test_halves_share_the_split_point(self):
        left, right = bisect(box1(1, 2), 0)
        assert left[0].hi == right[0].lo

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            bisect(Box((Interval(2, 1),)), 0)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            bisect(box1(0, 1), 1)

    def test_degenerate_coordinate_rejected(self):
        with pytest.raises(ValueError):
            bisect(Box((Interval.point(3.0),)), 0)

    def test_unbounded_coordinate_rejected(self):
        with pytest.raises(ValueError):
            bisect(box1(0, INF), 0)

    def test_resolution_floor(self):
        lo = 1.0
        hi = math.nextafter(lo, INF)
        with pytest.raises(ValueError, match="resolution"):
            bisect(box1(lo, hi), 0)

    @pytest.mark.parametrize(
        "box, coord, message",
        [
            (Box((Interval(2, 1),)), 0, "empty"),
            (Box((Interval(0, 1),)), 1, "out of range"),
            (Box((Interval(0, 1),)), -1, "out of range"),
            (Box((Interval(0, INF),)), 0, "unbounded"),
            (Box((Interval.point(3.0),)), 0, "degenerate"),
            (Box((Interval(1.0, math.nextafter(1.0, INF)),)), 0, "resolution"),
        ],
    )
    def test_errors_come_before_the_shared_split(self, monkeypatch, box, coord, message):
        def no_split(*args):
            raise AssertionError("_split reached")

        monkeypatch.setattr(analysis, "_split", no_split)
        with pytest.raises(ValueError, match=message):
            bisect(box, coord)

    def test_splits_through_the_shared_split(self, monkeypatch):
        calls = []
        split = analysis._split

        def recording(box, coord, m):
            calls.append((box, coord, m))
            return split(box, coord, m)

        monkeypatch.setattr(analysis, "_split", recording)
        box = Box((Interval(0, 1), Interval(-3, 5), Interval(2, 2)))
        left, right = bisect(box, 1)
        assert calls == [(box, 1, 1.0)]
        assert left.dims == (Interval(0, 1), Interval(-3, 1), Interval(2, 2))
        assert right.dims == (Interval(0, 1), Interval(1, 5), Interval(2, 2))


class TestSubdivide:
    def test_dependency_gap_tightens(self):
        rep = subdivide_enclosure(ast("x - x"), DEFAULT, box1(0, 1), 1e-3, 10**6)
        assert rep.enclosure == Interval(-0.0009765625, 0.0009765625)
        assert rep.widths[-1] == 0.001953125
        assert rep.iterations == 2047
        assert rep.converged and rep.nested
        assert member(0.0, rep.enclosure)

    def test_box_already_small_enough(self):
        rep = subdivide_enclosure(ast("x"), DEFAULT, box1(0, 0.5), 1.0, 16)
        assert rep.iterations == 1
        assert rep.converged
        assert rep.enclosure == Interval(0, 0.5)

    def test_budget_of_one_means_direct_evaluation(self):
        e = ast("x * y")
        box = Box((Interval(0, 1), Interval(0, 1)))
        rep = subdivide_enclosure(e, DEFAULT, box, 1e-6, 1)
        assert rep.iterations == 1
        assert not rep.converged
        assert rep.enclosure == eval_interval(e, DEFAULT, box)

    def test_never_wider_than_direct_evaluation(self):
        rng = random.Random(31)
        for _ in range(30):
            e, box = random_case(rng, max_depth=4)
            direct = eval_interval(e, DEFAULT, box)
            rep = subdivide_enclosure(e, DEFAULT, box, 0.25, 64)
            assert subset(rep.enclosure, direct)
            assert all(a >= b for a, b in zip(rep.widths, rep.widths[1:]))

    def test_deterministic(self):
        e = ast("x*y - y")
        box = Box((Interval(-1, 1), Interval(-2, 2)))
        a = subdivide_enclosure(e, DEFAULT, box, 0.125, 512)
        b = subdivide_enclosure(e, DEFAULT, box, 0.125, 512)
        assert a == b

    def test_splits_widest_coordinate_first(self):
        e = ast("x + y")
        box = Box((Interval(0, 8), Interval(0, 1)))
        rep = subdivide_enclosure(e, DEFAULT, box, 1.0, 1024)
        assert rep.converged
        # result must still be the exact sum hull
        assert rep.enclosure == Interval(0, 9)

    def test_ties_split_the_lowest_index(self):
        # splitting x halves the x - x dependency gap; splitting y would not
        box = Box((Interval(0, 1), Interval(0, 1)))
        rep = subdivide_enclosure(ast("x - x + y"), DEFAULT, box, 0.1, 3)
        assert rep.enclosure == Interval(-0.5, 1.5)
        assert rep.widths == (3.0, 2.0)

    @pytest.mark.parametrize("lo", [1.0, math.nextafter(1.0, INF)])
    def test_one_ulp_coordinate_is_not_split(self, lo):
        # the midpoint rounds to lo from an even significand and to hi from an odd one
        hi = math.nextafter(lo, INF)
        rep = subdivide_enclosure(ast("x"), DEFAULT, box1(lo, hi), 5e-324, 64)
        assert (rep.iterations, rep.converged) == (1, False)
        assert rep.enclosure == Interval(lo, hi)

    def test_monotone_expression_enclosure_is_tight(self):
        e = ast("x * y")
        box = Box((Interval(0, 1), Interval(0, 1)))
        rep = subdivide_enclosure(e, DEFAULT, box, 1e-2, 10**5)
        assert rep.enclosure == Interval(0, 1)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            subdivide_enclosure(ast("x"), DEFAULT, box1(0, 1), 0.0, 16)
        with pytest.raises(ValueError):
            subdivide_enclosure(ast("x"), DEFAULT, box1(0, 1), 1e-3, 0)
        with pytest.raises(ValueError):
            subdivide_enclosure(ast("x"), DEFAULT, box1(0, INF), 1e-3, 16)
        with pytest.raises(ValueError):
            subdivide_enclosure(ast("x"), DEFAULT, Box((Interval(2, 1),)), 1e-3, 16)
        with pytest.raises(ValueError, match="arity"):
            subdivide_enclosure(ast("x + y"), DEFAULT, box1(0, 1), 1e-3, 16)

    def test_report_shape(self):
        # the hull over identity pieces never shrinks, but every leaf does
        rep = subdivide_enclosure(ast("x"), DEFAULT, box1(0, 1), 0.6, 8)
        assert isinstance(rep, EnclosureReport)
        assert rep.iterations == 3
        assert rep.widths == (1.0, 1.0)
        assert rep.enclosure == Interval(0, 1)
        assert rep.converged


def _reference_subdivide(e, interp, box, tol, max_boxes):
    """The level loop as it was before running hull bounds and ``_split``."""

    def widest(b):
        best_i, best_w = 0, -1.0
        for i, d in enumerate(b.dims):
            w = width(d)
            if w > best_w:
                best_i, best_w = i, w
        return best_i, best_w

    def splittable(b, coord):
        iv = b[coord]
        if iv.lo == iv.hi:
            return False
        m = midpoint(iv)
        return m != iv.lo and m != iv.hi

    fn = compile_interval(e, interp)
    frontier = deque([box])
    settled_union = EMPTY
    all_within_tol = True
    created = 1
    widths_trace = []
    while frontier:
        level = [(b, fn(b.dims)) for b in frontier]
        current = settled_union
        for _, iv in level:
            current = hull_union(current, iv)
        widths_trace.append(width(current))
        frontier = deque()
        for b, iv in level:
            i, w = widest(b)
            if w <= tol or not splittable(b, i):
                if w > tol:
                    all_within_tol = False
                settled_union = hull_union(settled_union, iv)
                continue
            if created + 2 > max_boxes:
                all_within_tol = False
                settled_union = hull_union(settled_union, iv)
                continue
            lo_half, hi_half = bisect(b, i)
            frontier.append(lo_half)
            frontier.append(hi_half)
            created += 2
    return EnclosureReport(settled_union, tuple(widths_trace), created, all_within_tol)


# coordinate rewrites that reach the unsplittable and infinite-width branches,
# and ties for the widest coordinate; each takes the coordinate and the first one
_RESHAPE = {
    "keep": lambda d, first: d,
    "point": lambda d, first: Interval(d.lo, d.lo),
    "one_ulp": lambda d, first: Interval(d.lo, math.nextafter(d.lo, INF)),
    "huge": lambda d, first: Interval(-MAX_FLOAT, MAX_FLOAT),
    "first": lambda d, first: first,
}


class TestSubdivideDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        continuous=st.booleans(),
        reshape=st.lists(st.sampled_from(sorted(_RESHAPE)), max_size=4),
        tol=st.sampled_from([5e-324, 1e-300, 1e-3, 0.1, 0.5, 1.0, 4.0, 1e308])
        | st.floats(1e-6, 10.0),
        max_boxes=st.integers(1, 64),
        mode=st.sampled_from([None, "relational", "canonical"]),
    )
    def test_matches_the_previous_loop(self, seed, continuous, reshape, tol, max_boxes, mode):
        e, box = random_case(random.Random(seed), max_depth=4, continuous=continuous)
        dims = list(box.dims)
        for i, name in enumerate(reshape[: len(dims)]):
            dims[i] = _RESHAPE[name](dims[i], dims[0])
        box = Box(tuple(dims))
        interp = mode_select(DEFAULT, mode) if mode else DEFAULT
        assert box.arity == len(variable_sequence(e))
        got = subdivide_enclosure(e, interp, box, tol, max_boxes)
        want = _reference_subdivide(e, interp, box, tol, max_boxes)
        assert repr(got.enclosure) == repr(want.enclosure)
        assert got.enclosure == want.enclosure
        assert repr(got.widths) == repr(want.widths)
        assert (got.iterations, got.converged, got.nested) == (
            want.iterations,
            want.converged,
            want.nested,
        )
