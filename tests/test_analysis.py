"""Refinement sequences, convergence checks, subdivision enclosures."""

import math
import random
import sys
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings
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
from relival.semantics import (
    Interpretation,
    _pair_tape,
    _point,
    _run,
    compile_interval,
    compile_real,
    default_interpretation,
    eval_interval,
    mode_select,
)
from relival.oracle import random_case

from conftest import growth_ratio

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

    def test_a_lost_target_is_named_before_the_nesting(self):
        # [2,3] escapes [0,1] and loses 0.5; the last box nests in neither and holds 0.5
        with pytest.raises(ValueError, match="^target must belong to every box$"):
            RefinementSequence((box1(0, 1), box1(2, 3), box1(0.4, 0.6)), (0.5,))

    def test_target_past_the_float_range_is_refused(self):
        # float(10**400) raises OverflowError; the target is refused like eval_real's point
        with pytest.raises(ValueError, match="point coordinates must be finite reals"):
            RefinementSequence((box1(0, INF),), (10**400,))


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

    def test_target_past_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="point coordinates must be finite reals"):
            refine_toward(box1(0, 1), (10**400,), 1)

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

    @pytest.mark.parametrize(
        "shrunk, message",
        [
            ((0.0, 0.5), "target must belong to every box"),  # nested, but loses 0.75
            ((0.5, 1.5), "boxes must be nested, each inside the last"),  # keeps it, escapes [0, 1]
            ((1.0, 0.5), "target must belong to every box"),  # reversed: an empty coordinate
        ],
    )
    def test_each_step_is_checked_on_the_floats(self, monkeypatch, shrunk, message):
        # a faulty shrink step is refused with the sequence constructor's own error
        monkeypatch.setattr(analysis, "_shrink_coordinate", lambda lo, hi, t: shrunk)
        with pytest.raises(ValueError, match=f"^{message}$"):
            refine_toward(box1(0, 1), (0.75,), 1)

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

    def test_signed_zero_point_has_width_zero(self):
        # the root kernel maps the point -0.0 to the pair (0.0, -0.0): a point, width 0.0
        e = ast("sqrt(-x)")
        _, ops = _pair_tape(e, DEFAULT)
        pair = _run(ops, [(0.0, 0.0)])
        assert repr(pair) == "(0.0, -0.0)"
        rep = check_convergence(e, DEFAULT, refine_toward(box1(0, 0), (0.0,), 2), 1.0)
        assert repr(rep.widths) == "(0.0, 0.0, 0.0)"
        assert repr(rep.enclosure) == "[0,0]"
        assert rep.converged and rep.nested

    def test_an_infinite_point_value_is_refused(self):
        # an overflow's inf, or a user op's NaN or inf, is no real value at the target
        seq = refine_toward(Box((Interval.point(MAX_FLOAT),) * 2), (MAX_FLOAT, MAX_FLOAT), 1)
        with pytest.raises(ValueError, match="undefined at the target point"):
            check_convergence(ast("x + y"), DEFAULT, seq, INF)
        for value in (math.nan, INF, -INF):
            odd = Interpretation({**DEFAULT.real_ops, "abs": lambda a: value}, DEFAULT.interval_ops)
            with pytest.raises(ValueError, match="undefined at the target point"):
                check_convergence(ast("abs(x)"), odd, refine_toward(box1(0, 1), (0.5,), 1), INF)

    def test_only_the_report_is_boxed(self, monkeypatch):
        # every step runs on (lo, hi) pairs; one Interval is built, the report's
        post_init = Interval.__post_init__
        built = []

        def counting(self):
            built.append(1)
            post_init(self)

        e = ast("x*y + y*z")
        box = Box((Interval(0, 2), Interval(1, 3), Interval(2, 4)))
        seqs = [refine_toward(box, (1.0, 2.0, 3.0), steps) for steps in (0, 40)]
        monkeypatch.setattr(Interval, "__post_init__", counting)
        for seq in seqs:
            built.clear()
            check_convergence(e, DEFAULT, seq, 1e-9)
            assert len(built) == 1


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
    def test_errors_come_before_the_shared_split(self, box, coord, message):
        # each refusal names its reason, before any split point is chosen
        with pytest.raises(ValueError, match=message):
            bisect(box, coord)

    def test_splits_through_the_shared_split(self):
        # the halves share the split point, the midpoint, and keep every other coordinate
        box = Box((Interval(0, 1), Interval(-3, 5), Interval(2, 2)))
        left, right = bisect(box, 1)
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

    @pytest.mark.parametrize(
        "x, expected",
        [
            # leaves with x < 0 or y < 3 evaluate to empty and leave the hulls alone
            ((-4, 1), "EnclosureReport(enclosure=[-1,2], widths=(3.0, 3.0, 3.0, 3.0, 3.0, 3.0), "
                      "iterations=63, converged=False, nested=True)"),
            ((-4, -1), "EnclosureReport(enclosure=empty, widths=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "
                       "iterations=63, converged=False, nested=True)"),
        ],
    )
    def test_empty_leaves(self, x, expected):
        box = Box((Interval(*x), Interval(0, 4), Interval(3, 3)))
        rep = subdivide_enclosure(ast("sqrt(x) + sqrtr(y - z)"), DEFAULT, box, 0.1, 64)
        assert repr(rep) == expected

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

    def test_interval_constructions_do_not_grow_with_the_budget(self, monkeypatch):
        # leaves and level hulls are bare (lo, hi) pairs; only the report builds an Interval
        post_init = Interval.__post_init__
        built = []

        def counting(self):
            built.append(1)
            post_init(self)

        e, box, counts = ast("x - x"), box1(0, 1), {}
        monkeypatch.setattr(Interval, "__post_init__", counting)
        for max_boxes in (15, 2047):
            built.clear()
            rep = subdivide_enclosure(e, DEFAULT, box, 1e-3, max_boxes)
            assert rep.iterations == max_boxes
            counts[max_boxes] = len(built)
        assert counts[15] == counts[2047] <= 2

    def test_signed_zero_point_has_width_zero(self):
        # the root kernel maps the point -0.0 to the pair (0.0, -0.0): a point, width 0.0
        rep = subdivide_enclosure(ast("sqrt(-x)"), DEFAULT, box1(0, 0), 1.0, 4)
        assert repr(rep.widths) == "(0.0,)"
        assert repr(rep.enclosure) == "[0,0]"

    @pytest.mark.parametrize("max_boxes", [1, 3, 15, 255, 4095])
    def test_a_child_reruns_only_what_reads_its_split_coordinate(self, max_boxes):
        # z is a point, so only x and y split and sqrt(z) keeps the root's operand in every box
        calls = []

        def counting_sqrt(iv):
            calls.append(iv)
            return DEFAULT.interval_ops["sqrt"](iv)

        counting = Interpretation(DEFAULT.real_ops, {**DEFAULT.interval_ops, "sqrt": counting_sqrt}, "counting")
        e = ast("x*y + sqrt(z)")
        box = Box((Interval(0, 1), Interval(1, 3), Interval(4, 4)))
        rep = subdivide_enclosure(e, counting, box, 1e-3, max_boxes)
        assert rep.iterations == max_boxes
        assert calls == [Interval(4, 4)]
        assert repr(rep) == repr(subdivide_enclosure(e, DEFAULT, box, 1e-3, max_boxes))

    def test_budget_one_in_linear_time_of_the_tape(self):
        # without a split no coordinate's re-run list is built: a list per coordinate
        # built up front once made 2000 variables take 16 times as long as 500
        def prepare(n):
            e = ast(" + ".join(f"x{k}" for k in range(n)))
            box = Box((Interval(0, 1),) * n)
            assert subdivide_enclosure(e, DEFAULT, box, 1e-3, 1).enclosure == Interval(0, n)
            return lambda: subdivide_enclosure(e, DEFAULT, box, 1e-3, 1)

        assert growth_ratio(prepare, 1000) < 8

    def test_the_second_child_takes_over_its_parents_list(self):
        # the last coordinate is the widest, so the root splits it and each child re-runs
        # only the last operation; one split then costs one copied slot list, not two
        n = 1000
        e = ast(" + ".join(f"x{k}" for k in range(n)))
        box = Box((Interval(0, 1),) * (n - 1) + (Interval(0, 2),))
        subdivide_enclosure(e, DEFAULT, box, 1e-3, 3)  # first-call allocations out of the way
        peaks = {}
        for max_boxes in (1, 3):
            tracemalloc.start()
            try:
                subdivide_enclosure(e, DEFAULT, box, 1e-3, max_boxes)
                peaks[max_boxes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        slot_list = sys.getsizeof([None] * (2 * n - 1))
        assert slot_list <= peaks[3] - peaks[1] < 1.5 * slot_list

    def test_report_shape(self):
        # the hull over identity pieces never shrinks, but every leaf does
        rep = subdivide_enclosure(ast("x"), DEFAULT, box1(0, 1), 0.6, 8)
        assert isinstance(rep, EnclosureReport)
        assert rep.iterations == 3
        assert rep.widths == (1.0, 1.0)
        assert rep.enclosure == Interval(0, 1)
        assert rep.converged


def _reference_subdivide(e, interp, box, tol, max_boxes):
    """The level loop as it was before running hull bounds, splitting by ``bisect``."""

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
    "zero": lambda d, first: Interval(0.0, 0.0),  # kernels then pass -0.0 bounds along
}


def _boxed(interp):
    """``interp`` with each interval operation wrapped in a plain function, so box
    tapes run it through the boxing adapter rather than its pair kernel."""

    def plain(f):
        return lambda *args: f(*args)

    ops = {sym: plain(f) for sym, f in interp.interval_ops.items()}
    return Interpretation(interp.real_ops, ops, interp.name)


class TestSubdivideDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        continuous=st.booleans(),
        reshape=st.lists(st.sampled_from(sorted(_RESHAPE)), max_size=4),
        tol=st.sampled_from([5e-324, 1e-300, 1e-3, 0.1, 0.5, 1.0, 4.0, 1e308])
        | st.floats(1e-6, 10.0),
        max_boxes=st.integers(1, 64),
        mode=st.sampled_from([None, "relational", "canonical"]),
        # deep trees give long dependence chains and repeated subterms on the tape
        max_depth=st.integers(1, 6),
    )
    def test_matches_the_previous_loop(self, seed, continuous, reshape, tol, max_boxes, mode, max_depth):
        e, box = random_case(random.Random(seed), max_depth=max_depth, continuous=continuous)
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

    @given(
        seed=st.integers(0, 2**32 - 1),
        reshape=st.lists(st.sampled_from(sorted(_RESHAPE)), max_size=4),
        tol=st.sampled_from([1e-3, 0.1, 1.0]),
        max_boxes=st.integers(1, 64),
        mode=st.sampled_from([None, "relational", "canonical"]),
    )
    def test_user_defined_ops_match_the_kernels(self, seed, reshape, tol, max_boxes, mode):
        e, box = random_case(random.Random(seed), max_depth=4)
        dims = list(box.dims)
        for i, name in enumerate(reshape[: len(dims)]):
            dims[i] = _RESHAPE[name](dims[i], dims[0])
        box = Box(tuple(dims))
        interp = mode_select(DEFAULT, mode) if mode else DEFAULT
        got = subdivide_enclosure(e, _boxed(interp), box, tol, max_boxes)
        want = subdivide_enclosure(e, interp, box, tol, max_boxes)
        assert repr(got) == repr(want)


def _reference_shrink(iv, t):
    """``_shrink_coordinate`` as it was, on an ``Interval``."""
    lo, hi = iv.lo, iv.hi
    half = hi / 4 - lo / 4
    nl = t - half
    nh = t + half
    if nl < lo:
        nh = min(hi, nh + (lo - nl) if nl > -math.inf else lo + 2 * half)
        nl = lo
    elif nh > hi:
        nl = max(lo, nl - (nh - hi) if nh < math.inf else hi - 2 * half)
        nh = hi
    if nl > t:
        nl = t
    if nh < t:
        nh = t
    return Interval(nl, nh)


def _reference_refine(box, target, steps):
    """``refine_toward`` as it was: a box of intervals per step, each shrunk by
    ``_reference_shrink``."""
    t = tuple(float(v) for v in target)
    assert steps >= 0 and box.is_bounded and box.contains(t)
    boxes = [box]
    current = box
    for _ in range(steps):
        current = Box(tuple(_reference_shrink(d, v) for d, v in zip(current, t)))
        boxes.append(current)
    return RefinementSequence(tuple(boxes), t)


def _reference_check(e, interp, seq, tol):
    """``check_convergence`` as it was: boxed results, read by width, subset and member."""
    v = compile_real(e, interp)(seq.target)
    if v is None:
        raise ValueError("expression is undefined at the target point")
    fn = compile_interval(e, interp)
    results = [fn(b.dims) for b in seq.boxes]
    widths = tuple(width(iv) for iv in results)
    nested = all(subset(b, a) for a, b in zip(results, results[1:]))
    contained = all(member(v, iv) for iv in results)
    return EnclosureReport(results[-1], widths, len(results), contained and widths[-1] <= tol, nested)


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 0.3, -1.0,
          1.0, 1e308, -1e308, MAX_FLOAT, -MAX_FLOAT]
# the bounds and target of one coordinate: edges, subnormals and any finite float
_FLOATS = st.sampled_from(_EDGES) | st.floats(-1e-300, 1e-300) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _coordinate(draw):
    """``(lo, hi, t)`` with ``lo <= t <= hi``: free, a point, or the target on a bound."""
    lo, t, hi = sorted([draw(_FLOATS), draw(_FLOATS), draw(_FLOATS)])
    shape = draw(st.sampled_from(["free", "point", "on_lo", "on_hi"]))
    if shape == "point":
        lo = hi = t
    elif shape == "on_lo":
        t = lo
    elif shape == "on_hi":
        t = hi
    return lo, hi, t


def _assert_refines_as_before(box, target, steps):
    got = refine_toward(box, target, steps)
    want = _reference_refine(box, target, steps)
    assert repr(got.boxes) == repr(want.boxes)
    assert repr(got.target) == repr(want.target)
    assert RefinementSequence(got.boxes, got.target) == got


def _reference_sequence(boxes, target):
    """``RefinementSequence``'s check as it was: ``Box.contains`` on every box,
    then ``Box.is_subset_of`` on each neighbouring pair."""
    boxes = tuple(boxes)
    target = _point(target)
    if not boxes:
        raise ValueError("a refinement sequence needs at least one box")
    for b in boxes:
        if not b.contains(target):
            raise ValueError("target must belong to every box")
    for outer, inner in zip(boxes, boxes[1:]):
        if not inner.is_subset_of(outer):
            raise ValueError("boxes must be nested, each inside the last")
    return boxes, target


_SEQUENCE_BOUNDS = [-INF, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, INF]


@st.composite
def _sequence(draw):
    """0-4 boxes of arity 0-3 over a few bounds, and a target that may be NaN
    or infinite.  Half the coordinates are drawn inside the last box's and
    around the target's, and a quarter around the target's only, so that
    every verdict is reached.  One
    case in four is ragged: each box, and the target, takes an arity of its
    own."""
    arity = draw(st.integers(0, 3))
    ragged = draw(st.sampled_from([False, False, False, True]))
    arities = st.integers(0, 3) if ragged else st.just(arity)
    target = draw(st.lists(st.sampled_from(_SEQUENCE_BOUNDS + [math.nan]),
                           min_size=draw(arities), max_size=3 if ragged else arity))
    boxes = []
    for _ in range(draw(st.sampled_from([1, 2, 3, 4, 0]))):
        dims = []
        for k in range(draw(arities)):
            lows = highs = _SEQUENCE_BOUNDS
            how = draw(st.sampled_from(["fit", "fit", "around", "free"]))
            if how == "fit" and boxes and k < boxes[-1].arity:  # inside the last box's coordinate
                outer = boxes[-1][k]
                lows = [b for b in lows if b >= outer.lo]
                highs = [b for b in highs if b <= outer.hi]
            if how != "free" and k < len(target):  # and around the target's, where both can be had
                lows = [b for b in lows if b <= target[k]] or lows
                highs = [b for b in highs if b >= target[k]] or highs
            dims.append(Interval(draw(st.sampled_from(lows)), draw(st.sampled_from(highs))))
        boxes.append(Box(tuple(dims)))
    return boxes, target


def _outcome(make, boxes, target):
    try:
        result = make(boxes, target)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return repr(result)


class TestSequenceConstructorDifferential:
    """The bound-by-bound constructor against the ``Box``-based one it replaced:
    the same sequences accepted, and the same exception and message for the rest."""

    @given(_sequence())
    @example(([box1(0, 2), box1(0, 1)], [0.5]))
    @example(([box1(0, 1), box1(2, 3), box1(0.4, 0.6)], [0.5]))
    @example(([Box((Interval(0, 2), Interval(0, 2))), box1(0, 1), Box((Interval(0, 1), Interval(0, 1)))], [0.5, 0.5]))
    @example(([Box((Interval(0, 2), Interval(0, 2))), box1(0, 1)], [0.5, 0.5]))
    @example(([box1(0, 1), box1(0, 1)], [math.nan]))
    @settings(max_examples=500)
    def test_same_verdicts_as_the_box_walk(self, case):
        boxes, target = case

        def new(boxes, target):
            seq = RefinementSequence(boxes, target)
            return seq.boxes, seq.target

        assert _outcome(new, boxes, target) == _outcome(_reference_sequence, boxes, target)


class TestRefineDifferential:
    @given(coords=st.lists(_coordinate(), min_size=1, max_size=4), steps=st.integers(0, 80))
    def test_matches_the_previous_loop(self, coords, steps):
        box = Box(tuple(Interval(lo, hi) for lo, hi, _ in coords))
        _assert_refines_as_before(box, [t for _, _, t in coords], steps)

    @pytest.mark.parametrize(
        "coords",
        [
            [(-MAX_FLOAT, MAX_FLOAT, 5e-324), (-MAX_FLOAT, MAX_FLOAT, MAX_FLOAT), (-MAX_FLOAT, MAX_FLOAT, -MAX_FLOAT)],
            [(-MAX_FLOAT, MAX_FLOAT, 0.3), (0.0, 5e-324, 0.0), (-5e-324, 5e-324, 5e-324)],
            [(-1e-310, 1e-310, -0.0), (2.0, 2.0, 2.0), (-MAX_FLOAT, 0.0, -MAX_FLOAT / 3)],
        ],
    )
    def test_matches_the_previous_loop_for_2100_steps(self, coords):
        # 2100 is the CLI's cap on --steps: every coordinate has long stopped changing
        box = Box(tuple(Interval(lo, hi) for lo, hi, _ in coords))
        _assert_refines_as_before(box, [t for _, _, t in coords], 2100)


class TestCheckConvergenceDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        continuous=st.booleans(),
        reshape=st.lists(st.sampled_from(sorted(_RESHAPE)), max_size=4),
        place=st.lists(st.sampled_from(["lo", "hi", "inside"]), min_size=4, max_size=4),
        steps=st.integers(0, 12),
        tol=st.sampled_from([0.0, 1e-9, 0.1, 1.0, 1e308, INF]),
        mode=st.sampled_from([None, "relational", "canonical"]),
        boxed=st.booleans(),
    )
    def test_matches_the_previous_path(self, seed, continuous, reshape, place, steps, tol, mode, boxed):
        rng = random.Random(seed)
        e, box = random_case(rng, max_depth=4, continuous=continuous)
        dims = list(box.dims)
        for i, name in enumerate(reshape[: len(dims)]):
            dims[i] = _RESHAPE[name](dims[i], dims[0])
        box = Box(tuple(dims))
        # a point of each coordinate, finite even when its width overflows
        r = rng.random()
        target = [
            {"lo": d.lo, "hi": d.hi, "inside": min(max(d.lo * (1 - r) + d.hi * r, d.lo), d.hi)}[p]
            for d, p in zip(dims, place)
        ]
        seq = refine_toward(box, target, steps)
        interp = mode_select(DEFAULT, mode) if mode else DEFAULT
        if boxed:
            interp = _boxed(interp)
        try:
            want = repr(_reference_check(e, interp, seq, tol))
        except ValueError as exc:
            want = f"ValueError: {exc}"
        try:
            got = repr(check_convergence(e, interp, seq, tol))
        except ValueError as exc:
            got = f"ValueError: {exc}"
        assert got == want
