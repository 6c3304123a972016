"""Rational oracles, sampling checks, and case generation."""

import dataclasses
import hashlib
import math
import pathlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival.expr import Binary, Unary, Var, _postorder, parse, to_source, variable_sequence
from relival.interval import (
    EMPTY, REALS, Box, Interval, div, div_canonical, member, midpoint, mul, sqrt_canonical, sqrt_rel, subset
)
from relival.oracle import (
    RATIONAL_EMPTY,
    RATIONAL_REALS,
    RationalInterval,
    _sqrt_bracket,
    corner_range_oracle,
    expression_oracle,
    random_case,
    random_single_occurrence_case,
    relational_oracle,
    sample_inclusion,
)
from relival.rounding import MAX_FLOAT
from relival.semantics import (
    Interpretation, _compile_columns, _sample, compile_real, default_interpretation, eval_interval, mode_select
)

from conftest import ulp_steps
from manifest import case_for, read_manifest, write_manifest
from test_edge_grid import ENDPOINTS, GRID
from test_semantics import _real_through_adapter

INF = math.inf
DEFAULT = default_interpretation()
DATA = pathlib.Path(__file__).parent / "data"


def ast(source: str):
    e, _ = parse(source)
    return e


class TestRationalInterval:
    def test_bounded_constructor(self):
        r = RationalInterval.bounded("1/3", "2/3")
        assert r.lo == Fraction(1, 3) and r.hi == Fraction(2, 3)
        assert not r.is_empty
        assert not r.contains(1)
        with pytest.raises(ValueError):
            RationalInterval.bounded(1, 0)

    def test_half_line(self):
        r = RationalInterval(Fraction(0), INF)
        assert r.hi == INF
        assert r.contains(Fraction(10**30))
        assert not r.contains(Fraction(-1))

    def test_empty_contains_nothing(self):
        assert not RATIONAL_EMPTY.contains(Fraction(0))

    def test_reals_contains_everything(self):
        assert RATIONAL_REALS.contains(Fraction(-(10**20)))

    @pytest.mark.parametrize("q", [INF, -INF, math.nan])
    def test_non_reals_are_never_members(self, q):
        # as for member: the infinities themselves and NaN belong to no set
        assert not RATIONAL_REALS.contains(q)
        assert not RationalInterval(Fraction(0), INF).contains(q)
        assert not RATIONAL_EMPTY.contains(q)

    def test_from_interval_is_exact(self):
        r = RationalInterval.from_interval(Interval(0.1, 0.2))
        assert r.lo == Fraction(0.1) and r.hi == Fraction(0.2)
        assert RationalInterval.from_interval(EMPTY) == RATIONAL_EMPTY

    def test_from_interval_unbounded(self):
        r = RationalInterval.from_interval(Interval(0, INF))
        assert r.lo == Fraction(0) and r.hi == INF

    def test_is_inside(self):
        r = RationalInterval(Fraction(0), Fraction(1))
        assert r.is_inside(Interval(-0.5, 1.5))
        assert r.is_inside(Interval(0, 1))
        assert not r.is_inside(Interval(0.25, 1))
        assert not r.is_inside(Interval(0, 0.75))
        assert not r.is_inside(EMPTY)
        assert not RationalInterval(Fraction(0), INF).is_inside(Interval(-1, 5))
        assert RATIONAL_EMPTY.is_inside(Interval(5, 5))
        assert not RATIONAL_REALS.is_inside(Interval(0, 1))
        assert RATIONAL_REALS.is_inside(Interval(-INF, INF))


def _three_state(iv: Interval):
    """The previous RationalInterval.from_interval: (lo, hi, is_empty), absent bounds as ±inf."""
    if iv.is_empty:
        return -INF, INF, True
    lo = -INF if iv.lo == -INF else Fraction(iv.lo)
    hi = INF if iv.hi == INF else Fraction(iv.hi)
    return lo, hi, False


def _three_state_contains(r, q) -> bool:
    lo, hi, empty = r
    if empty:
        return False
    if lo != -INF and q < lo:
        return False
    if hi != INF and q > hi:
        return False
    return True


def _three_state_is_inside(r, iv: Interval) -> bool:
    lo, hi, empty = r
    if empty:
        return True
    if iv.is_empty:
        return False
    if lo == -INF:
        if iv.lo != -INF:
            return False
    elif iv.lo != -INF and Fraction(iv.lo) > lo:
        return False
    if hi == INF:
        if iv.hi != INF:
            return False
    elif iv.hi != INF and Fraction(iv.hi) < hi:
        return False
    return True


class TestTwoBoundRationalInterval:
    """The two-bound RationalInterval against the rules of the previous flag-and-None one."""

    SPECIAL = [
        EMPTY, REALS, Interval(-INF, 0), Interval(0, INF), Interval(-INF, -MAX_FLOAT),
        Interval(MAX_FLOAT, INF), Interval(-INF, 5e-324), Interval(-5e-324, INF),
    ]
    INTERVALS = [Interval(a, b) for a, b in GRID] + SPECIAL

    def _points(self):
        at = sorted({Fraction(e) for e in ENDPOINTS})
        between = [(a + b) / 2 for a, b in zip(at, at[1:])]
        return at + between + [-2 * at[-1], 2 * at[-1]]

    def test_fields_are_the_two_bounds(self):
        assert [f.name for f in dataclasses.fields(RationalInterval)] == ["lo", "hi"]
        assert RATIONAL_EMPTY == RationalInterval(INF, -INF) and RATIONAL_EMPTY.is_empty
        assert RATIONAL_REALS == RationalInterval(-INF, INF) and not RATIONAL_REALS.is_empty

    def test_from_interval_and_is_empty(self):
        for iv in self.INTERVALS:
            r = RationalInterval.from_interval(iv)
            lo, hi, empty = _three_state(iv)
            assert r.is_empty == empty == iv.is_empty
            assert (r.lo, r.hi) == ((INF, -INF) if empty else (lo, hi))
            assert all(type(b) is Fraction or b in (-INF, INF) for b in (r.lo, r.hi))

    def test_contains(self):
        points = self._points()
        for iv in self.INTERVALS:
            r, old = RationalInterval.from_interval(iv), _three_state(iv)
            for q in points:
                assert r.contains(q) == _three_state_contains(old, q), (iv, q)

    def test_is_inside(self):
        # every interval against a stride of the grid and the special ones
        outer = [Interval(a, b) for a, b in GRID[::5]] + self.SPECIAL
        verdicts = Counter()
        for inner in self.INTERVALS:
            r, old = RationalInterval.from_interval(inner), _three_state(inner)
            for iv in outer:
                verdicts[r.is_inside(iv)] += 1
                assert r.is_inside(iv) == _three_state_is_inside(old, iv), (inner, iv)
        assert min(verdicts[True], verdicts[False]) > 1000

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RationalInterval(Fraction(0), Fraction(1), is_empty=True),
            lambda: RationalInterval(Fraction(0), None),
            lambda: RationalInterval(None, Fraction(0)),
            lambda: RationalInterval(None, None),
            lambda: RationalInterval(INF, INF),
            lambda: RationalInterval(-INF, -INF),
            lambda: RationalInterval(Fraction(1), Fraction(0)),
            lambda: RationalInterval(INF, Fraction(0)),
            lambda: RationalInterval(Fraction(0), -INF),
            lambda: RationalInterval(math.nan, Fraction(0)),
        ],
    )
    def test_refused(self, make):
        with pytest.raises((TypeError, ValueError)):
            make()


class TestRelationalOracle:
    def test_outward_rounding_stays_within_an_ulp(self):
        rng = random.Random(7)
        for _ in range(200):
            x = sorted(rng.uniform(-50, 50) for _ in range(2))
            y = sorted(rng.uniform(-50, 50) for _ in range(2))
            ix, iy = Interval(*x), Interval(*y)
            for op, fn in (("+", ix + iy), ("-", ix - iy), ("*", mul(ix, iy))):
                want = relational_oracle(op, ix, iy)
                assert want.is_inside(fn)
                assert ulp_steps(fn.lo, float(want.lo)) <= 1
                assert ulp_steps(fn.hi, float(want.hi)) <= 1

    def test_division_zero_cases(self):
        cases = [
            (Interval(1, 2), Interval(0, 0), RATIONAL_EMPTY),
            (Interval(0, 1), Interval(0, 0), RATIONAL_REALS),
            (Interval(-1, 1), Interval(-1, 1), RATIONAL_REALS),
            (Interval(1, 2), Interval(-1, 1), RATIONAL_REALS),
        ]
        for x, y, want in cases:
            got = relational_oracle("/", x, y)
            assert (got.lo, got.hi, got.is_empty) == (want.lo, want.hi, want.is_empty)
            assert got.is_inside(div(x, y))

    def test_division_touching_zero_is_a_ray(self):
        got = relational_oracle("/", Interval(1, 2), Interval(0, 1))
        assert got.lo == Fraction(1) and got.hi == INF
        got = relational_oracle("/", Interval(1, 2), Interval(-1, 0))
        assert got.lo == -INF and got.hi == Fraction(-1)

    def test_division_sign_sweep_matches_library(self):
        rng = random.Random(11)
        shifts = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]
        for _ in range(60):
            x = Interval(*sorted(rng.uniform(-4, 4) for _ in range(2)))
            base = sorted(rng.uniform(0.0, 2.0) for _ in range(2))
            for s in shifts:
                y = Interval(base[0] + s, base[1] + s)
                assert relational_oracle("/", x, y).is_inside(div(x, y))

    def test_sqrt_image_exact_on_perfect_squares(self):
        got = relational_oracle("sqrt", Interval(0.25, 2.25))
        assert (got.lo, got.hi) == (Fraction(1, 2), Fraction(3, 2))
        # a range reaching down to zero or below starts at the root of zero
        got = relational_oracle("sqrt", Interval(-1, 4))
        assert (got.lo, got.hi) == (Fraction(0), Fraction(2))

    def test_sqrt_of_non_squares_is_an_inner_bracket(self):
        # sqrt(2) and sqrt(3) are irrational: each bound sits less than 2**-199 inside
        got = relational_oracle("sqrt", Interval(2, 3))
        gap = Fraction(1, 2**199)
        assert (got.lo - gap) ** 2 < 2 <= got.lo**2
        assert got.hi**2 <= 3 < (got.hi + gap) ** 2
        assert got.is_inside(sqrt_canonical(Interval(2, 3)))
        got = relational_oracle("sqrtr", Interval(0, 2))
        assert got.lo == -got.hi and got.hi**2 <= 2 < (got.hi + gap) ** 2

    def test_root_of_a_non_square_point_is_one_point(self):
        # sqrt(2)'s outer bracket lies above its inner one: the lower bound is clamped to the upper
        got = relational_oracle("sqrt", Interval(2, 2))
        assert got.lo == got.hi and got.lo**2 < 2
        assert got.is_inside(sqrt_canonical(Interval(2, 2)))

    def test_sqrt_relational_both_branches(self):
        got = relational_oracle("sqrtr", Interval(4, 9))
        assert (got.lo, got.hi) == (Fraction(-3), Fraction(3))
        assert got.is_inside(sqrt_rel(Interval(4, 9)))

    def test_sqrt_of_negative_is_empty(self):
        assert relational_oracle("sqrt", Interval(-2, -1)).is_empty
        assert relational_oracle("sqrtr", Interval(-2, -1)).is_empty

    def test_unary_ops(self):
        got = relational_oracle("neg", Interval(-1, 2))
        assert (got.lo, got.hi) == (Fraction(-2), Fraction(1))
        got = relational_oracle("abs", Interval(-3, 1))
        assert (got.lo, got.hi) == (Fraction(0), Fraction(3))
        got = relational_oracle("abs", Interval(1, 3))
        assert (got.lo, got.hi) == (Fraction(1), Fraction(3))
        got = relational_oracle("abs", Interval(-3, -1))
        assert (got.lo, got.hi) == (Fraction(1), Fraction(3))

    def test_unbounded_operand_rejected(self):
        with pytest.raises(ValueError):
            relational_oracle("+", Interval(0, INF), Interval(0, 1))

    @pytest.mark.parametrize(
        "op, x, y, message",
        [
            ("**", Interval(0, 1), Interval(0, 1), "no oracle for operation"),
            ("**", EMPTY, EMPTY, "no oracle for operation"),  # the symbol before the empty shortcut
            ("**", Interval(0, 1), None, "no oracle for operation"),
            ("+", Interval(0, 1), None, "takes two operands"),
            ("/", Interval(0, 1), None, "takes two operands"),
            ("*", EMPTY, None, "takes two operands"),
            ("neg", Interval(0, 1), Interval(2, 3), "takes one operand"),
            ("sqrt", Interval(0, 4), Interval(-1, 1), "takes one operand"),
            ("abs", EMPTY, EMPTY, "takes one operand"),
        ],
    )
    def test_symbol_and_operand_count_checked_first(self, op, x, y, message):
        with pytest.raises(ValueError, match=message):
            relational_oracle(op, x, y)

    @pytest.mark.parametrize(
        "op, x, y",
        [
            ("+", EMPTY, Interval(0, 1)),
            ("*", Interval(0, 1), EMPTY),
            ("/", EMPTY, EMPTY),
            ("/", Interval(0, 1), EMPTY),  # before the zero cases: 0 in X, and Y holds no 0
            ("neg", EMPTY, None),
            ("sqrtr", EMPTY, None),
        ],
    )
    def test_an_empty_operand_gives_the_empty_set(self, op, x, y):
        assert relational_oracle(op, x, y) is RATIONAL_EMPTY

    @pytest.mark.parametrize("q", [Fraction(-1), Fraction(-1, 3), Fraction(-5e-324)])
    def test_root_bracket_refuses_a_negative_radicand(self, q):
        with pytest.raises(ValueError, match="^negative radicand$"):
            _sqrt_bracket(q)

    def test_root_bracket_of_zero(self):
        assert _sqrt_bracket(Fraction(0)) == (0, 0)


class TestCornerRangeOracle:
    def test_product(self):
        got = corner_range_oracle(ast("x * y"), Box((Interval(-1, 2), Interval(3, 4))))
        assert (got.lo, got.hi) == (Fraction(-4), Fraction(8))

    def test_negation_chain(self):
        got = corner_range_oracle(ast("-(x - y)"), Box((Interval(0, 1), Interval(2, 5))))
        assert (got.lo, got.hi) == (Fraction(1), Fraction(5))

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            corner_range_oracle(ast("x - x"), Box((Interval(0, 1),)))

    def test_division_rejected(self):
        with pytest.raises(ValueError):
            corner_range_oracle(ast("x / y"), Box((Interval(1, 2), Interval(1, 2))))

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            corner_range_oracle(ast("x + y"), Box((Interval(0, INF), Interval(0, 1))))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            corner_range_oracle(ast("x + y"), Box((Interval(0, 1),)))

    def test_random_cases_match_library_exactly(self):
        # dyadic endpoints with small trees: every intermediate is a float
        rng = random.Random(23)
        for _ in range(100):
            e, box = random_single_occurrence_case(rng)
            want = corner_range_oracle(e, box)
            got = eval_interval(e, DEFAULT, box)
            assert float(want.lo) == got.lo and float(want.hi) == got.hi


def _reading(mode):
    """The interpretation that ``expression_oracle``'s ``mode`` reads."""
    return DEFAULT if mode is None else mode_select(DEFAULT, mode)


class TestExpressionOracle:
    """``expression_oracle`` folds the exact rules over a whole expression: by Moore's
    fundamental theorem a sound engine's result contains it, in every mode."""

    @pytest.mark.parametrize("mode", [None, "relational", "canonical"])
    def test_random_cases_lie_inside_the_engine(self, mode):
        # every draw is checked, none skipped: rays, the whole line and empty results too
        interp = _reading(mode)
        rng = random.Random(31)
        kinds = Counter()
        for _ in range(1000):
            e, box = random_case(rng, max_depth=6)
            want = expression_oracle(e, box, mode)
            assert want.is_inside(eval_interval(e, interp, box)), (to_source(e), str(box))
            kinds["empty" if want.is_empty else "unbounded" if INF in (-want.lo, want.hi) else "bounded"] += 1
        # the ray rules really run: about 150 empty and 120 unbounded results per mode
        assert min(kinds.values()) > 50 and len(kinds) == 3

    @pytest.mark.parametrize("mode", [None, "relational", "canonical"])
    def test_zero_times_the_whole_line_is_zero(self, mode):
        # y / z is the whole line with 0 in both operands, in either reading of "/"
        box = Box((Interval(0, 0), Interval(-1, 2), Interval(-3, 1)))
        want = expression_oracle(ast("x * (y / z)"), box, mode)
        assert (want.lo, want.hi) == (0, 0)
        assert want.is_inside(eval_interval(ast("x * (y / z)"), _reading(mode), box))

    @pytest.mark.parametrize(
        "source, dim, mode, lo, hi",
        [
            ("sqrt(x)", Interval(4, INF), None, 2, INF),
            ("sqrt(x)", Interval(-INF, 9), None, 0, 3),
            ("sqrt(x)", Interval(4, INF), "relational", -INF, INF),
            ("sqrtr(x)", Interval(-INF, 9), None, -3, 3),
            ("sqrt(x)", Interval(-INF, -1), "canonical", INF, -INF),
            ("sqrt(x)", REALS, "canonical", 0, INF),
        ],
    )
    def test_root_of_a_ray(self, source, dim, mode, lo, hi):
        want = expression_oracle(ast(source), (dim,), mode)
        assert (want.lo, want.hi) == (lo, hi)
        assert want.is_inside(eval_interval(ast(source), _reading(mode), (dim,)))

    @pytest.mark.parametrize(
        "x, y, lo, hi",
        [
            # inf / inf could be any positive quotient: the hull is bounded by the other corners
            (Interval(1, INF), Interval(1, INF), 0, INF),
            (Interval(1, INF), Interval(-INF, -2), -INF, 0),
            (Interval(-INF, -1), Interval(2, INF), -INF, 0),
            (Interval(2, 4), Interval(1, INF), 0, 4),
        ],
    )
    def test_quotient_with_infinite_corners(self, x, y, lo, hi):
        for mode in (None, "relational", "canonical"):
            want = expression_oracle(ast("x / y"), (x, y), mode)
            assert (want.lo, want.hi) == (lo, hi)
            assert want.is_inside(div_canonical(x, y)) and want.is_inside(div(x, y))

    def test_past_the_float_range_beside_a_ray(self):
        # MAX_FLOAT**2 meets an infinity, and is not converted to a float, which overflows
        box = (Interval(MAX_FLOAT, MAX_FLOAT), Interval(1, 1), Interval(0, 1))
        big = Fraction(MAX_FLOAT) ** 2
        for source, lo, hi in (("x * x + z / y", big + 1, INF), ("x * x - z / y", -INF, big - 1),
                               ("x * x * (z / y)", big, INF)):
            want = expression_oracle(ast(source), box)
            assert (want.lo, want.hi) == (lo, hi), source
            assert want.is_inside(eval_interval(ast(source), DEFAULT, box))

    def test_empty_coordinate_gives_the_empty_set(self):
        assert expression_oracle(ast("x + y"), (EMPTY, REALS)) == RATIONAL_EMPTY
        # 0 * y with y empty is empty, not {0}
        assert expression_oracle(ast("x * y"), (Interval(0, 0), EMPTY)).is_empty

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="^unknown mode 'default'"):
            expression_oracle(ast("x"), (Interval(0, 1),), "default")


class TestSampleInclusion:
    def test_no_violations_for_sound_semantics(self):
        rng = random.Random(5)
        for _ in range(50):
            e, box = random_case(rng, max_depth=4)
            assert sample_inclusion(e, DEFAULT, box, samples=200, seed=1) == 0

    def test_identity_minus_itself(self):
        assert sample_inclusion(ast("x - x"), DEFAULT, Box((Interval(0, 1),))) == 0

    def test_undefined_points_are_not_violations(self):
        box = Box((Interval(-1, 1),))
        assert sample_inclusion(ast("sqrt(-abs(x))"), DEFAULT, box, samples=500) == 0

    def test_empty_coordinate_short_circuits(self):
        box = Box((Interval(2, 1),))
        assert sample_inclusion(ast("x"), DEFAULT, box) == 0

    def test_unbounded_box_rejected(self):
        with pytest.raises(ValueError):
            sample_inclusion(ast("x"), DEFAULT, Box((Interval(0, INF),)))

    def test_an_unbounded_box_is_refused_before_it_is_evaluated(self):
        def boom(a):
            raise AssertionError("the box was evaluated")

        interp = Interpretation(DEFAULT.real_ops, {**DEFAULT.interval_ops, "abs": boom})
        with pytest.raises(ValueError, match="^inclusion sampling needs a bounded box$"):
            sample_inclusion(ast("abs(x)"), interp, Box((Interval(0, INF),)))

    @pytest.mark.parametrize("samples", [0, -1, -5000])
    def test_no_samples_rejected(self, samples):
        # a count that draws no point would pass vacuously
        with pytest.raises(ValueError, match="samples must be at least 1"):
            sample_inclusion(ast("x"), DEFAULT, Box((Interval(0, 1),)), samples=samples)

    def test_counts_actual_violations(self):
        # deliberately broken interpretation: addition forgets its upper half
        import dataclasses

        from relival.interval import Interval as I

        broken_ops = dict(DEFAULT.interval_ops)
        broken_ops["+"] = lambda x, y: I(x.lo + y.lo, x.lo + y.lo)
        broken = dataclasses.replace(DEFAULT, interval_ops=broken_ops, name="broken")
        box = Box((Interval(0, 1), Interval(0, 1)))
        n = sample_inclusion(ast("x + y"), broken, box, samples=300, seed=4)
        assert n > 250

    def test_infinite_values_are_not_violations(self):
        # a real op that returns an infinity: no real value, so never counted,
        # although it lies outside the bounded box result
        import dataclasses

        real_ops = dict(DEFAULT.real_ops)
        real_ops["+"] = lambda a, b: math.inf if a < b else -math.inf
        infinite = dataclasses.replace(DEFAULT, real_ops=real_ops, name="infinite")
        box = Box((Interval(0, 1), Interval(0, 1)))
        assert sample_inclusion(ast("x + y"), infinite, box, samples=300, seed=4) == 0

    def test_values_past_the_float_range_are_not_violations(self):
        # a user op's int 10**400 is no float, so no defined value, and outside the
        # bounded box result it would be counted as a violation
        interp = Interpretation({**DEFAULT.real_ops, "abs": lambda a: 10**400}, DEFAULT.interval_ops)
        box = Box((Interval(0, 1),))
        assert _sample(ast("abs(x)"), interp, box, 5, 0)[1:] == (0, 0)
        # nor defined again where it cancels
        assert _sample(ast("abs(x) - abs(x)"), interp, box, 5, 0)[1:] == (0, 0)

    @pytest.mark.parametrize(
        "dims",
        [
            ((-MAX_FLOAT, MAX_FLOAT), (0.0, 1.0)),
            ((0.25, 0.5), (-MAX_FLOAT, MAX_FLOAT)),
            ((-1e308, 1e308), (-MAX_FLOAT, 1e308)),
            ((-MAX_FLOAT, MAX_FLOAT), (-MAX_FLOAT, MAX_FLOAT)),
        ],
    )
    def test_wide_coordinates_draw_points_inside(self, dims):
        # hi - lo overflows past MAX_FLOAT; uniform(lo, hi) would then draw only infinities
        seen = []

        def recording(a, b):
            seen.append((a, b))
            return a

        real_ops = {**DEFAULT.real_ops, "+": recording}
        interp = dataclasses.replace(DEFAULT, real_ops=real_ops, name="recording")
        box = Box(tuple(Interval(lo, hi) for lo, hi in dims))
        assert sample_inclusion(ast("x + y"), interp, box, samples=1500, seed=9) == 0
        assert len(seen) == 1500
        u = random.Random(9).uniform
        drawn = [[u(lo, hi) for lo, hi in dims] for _ in range(1500)]  # one random() each
        for k, (lo, hi) in enumerate(dims):
            column = [p[k] for p in seen]
            if hi - lo < INF:  # an ordinary coordinate keeps the points uniform draws
                assert column == [p[k] for p in drawn]
            else:
                assert all(lo <= v <= hi and math.isfinite(v) for v in column)
                assert min(column) < lo / 2 and max(column) > hi / 2  # spread over the coordinate


def _per_point_counts(e, interp, box, samples, seed):
    """``_sample``'s last two items, ``(violations, defined)``, from one
    ``compile_real`` call per point, each drawn by ``uniform``: the loop the
    chunked column runner replaced."""
    iv = eval_interval(e, interp, box)
    rfn = compile_real(e, interp)
    u = random.Random(seed).uniform
    violations = defined = 0
    for _ in range(samples):
        v = rfn(tuple([u(d.lo, d.hi) for d in box]))
        if v is not None and math.isfinite(v):
            defined += 1
            violations += not member(v, iv)
    return violations, defined


def _lower_half(interp):
    """``interp`` with every interval result cut to its lower half where it is
    bounded: unsound on purpose, so that sampled points escape."""

    def cut(f):
        def op(*args):
            r = f(*args)
            return Interval(r.lo, midpoint(r)) if r.is_bounded and not r.is_empty else r

        return op

    return Interpretation(interp.real_ops, {s: cut(f) for s, f in interp.interval_ops.items()}, "lower-half")


class TestChunkedSampling:
    """``sample_inclusion`` against the per-point loop it replaced."""

    @pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 2049])
    def test_counts_match_the_per_point_loop(self, samples):
        rng = random.Random(31)
        total = 0
        for i in range(8):
            e, box = random_case(rng, max_depth=5)
            interp = _lower_half(mode_select(DEFAULT, ("relational", "canonical")[i % 2]))
            if i >= 6:  # real ops that the column runner calls sample by sample
                interp = _real_through_adapter(interp)
            for seed in (0, 7, 2**40 + 1):
                want, _ = _per_point_counts(e, interp, box, samples, seed)
                assert sample_inclusion(e, interp, box, samples=samples, seed=seed) == want, (e, box, seed)
                total += want
        assert total > samples  # the broken interpretation is caught

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 1100),
        st.sampled_from(["default", "canonical", "relational"]),
        st.booleans(),
    )
    def test_defined_count_matches_compile_real(self, seed, samples, mode, wrapped):
        rng = random.Random(seed)
        e, box = random_case(rng, max_depth=6)
        interp = DEFAULT if mode == "default" else mode_select(DEFAULT, mode)
        if wrapped:  # real ops that the column runner calls sample by sample
            interp = _real_through_adapter(interp)
        result, *counts = _sample(e, interp, box, samples, seed)
        assert tuple(counts) == _per_point_counts(e, interp, box, samples, seed)
        assert repr(Interval(*result)) == repr(eval_interval(e, interp, box))

    def test_memory_stays_within_one_chunk(self):
        # 50,000 samples of a 4-variable box, peaks traced by tracemalloc on CPython 3.11:
        # 0.44 MB chunked; 20.0 MB holding every sample at once (50,000 draws per
        # column, then one pass of the column runner)
        e = ast("x0 * x1 + x2 / x3 - sqrt(x0) * abs(x2 - x1)")
        box = Box(tuple(Interval(-1, 2) for _ in range(4)))
        bound = 2_000_000

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def all_at_once():
            rand = random.Random(0).random
            draws = [d.lo + (d.hi - d.lo) * rand() for _ in range(50_000) for d in box]
            _compile_columns(e, DEFAULT)([draws[k::4] for k in range(4)])

        assert peak(lambda: sample_inclusion(e, DEFAULT, box, samples=50_000)) < bound
        assert peak(all_at_once) > bound


class TestCaseGeneration:
    def test_positive_variables_for_continuous_cases(self):
        # every sqrt and every divisor takes a variable whose box lies in [1/4, 4]
        rng = random.Random(9)
        checked = 0
        for _ in range(40):
            e, box = random_case(rng, max_depth=4, continuous=True)
            assert "sqrtr" not in to_source(e)
            dims = dict(zip(variable_sequence(e), box))
            for iv in box:
                assert iv.is_bounded and iv.hi > iv.lo
            for node in _postorder(e):
                if isinstance(node, Unary) and node.op == "sqrt":
                    guarded = node.child
                elif isinstance(node, Binary) and node.op == "/":
                    guarded = node.right
                else:
                    continue
                assert isinstance(guarded, Var)
                assert 0.25 <= dims[guarded.name].lo and dims[guarded.name].hi <= 4
                checked += 1
        assert checked  # 17 on this seed

    def test_draws_are_pinned(self):
        # both diets at several depths, then single-occurrence draws: any change to a
        # threshold, a kind or the order of the random calls changes the digest
        h = hashlib.sha256()
        for continuous in (False, True):
            for depth in (1, 2, 4, 5, 7):
                for seed in range(200):
                    rng = random.Random(seed)
                    for _ in range(5):
                        e, box = random_case(rng, max_depth=depth, continuous=continuous)
                        h.update(f"{to_source(e)}\t{box}\n".encode())
        rng = random.Random(0)
        for _ in range(1000):
            e, box = random_single_occurrence_case(rng)
            h.update(f"{to_source(e)}\t{box}\n".encode())
        assert h.hexdigest() == "b1fcedfb00888c00188e7dcff3b12df84cb720d1fde8be87d1f917643a5372bb"

    def test_general_cases_are_bounded(self):
        rng = random.Random(13)
        for _ in range(40):
            e, box = random_case(rng, max_depth=5)
            assert box.arity == len(variable_sequence(e))
            assert box.is_bounded and not box.is_empty

    def test_single_occurrence_shape(self):
        rng = random.Random(17)
        for _ in range(40):
            e, box = random_single_occurrence_case(rng)
            names = variable_sequence(e)
            assert len(names) == len(set(names))
            for iv in box:
                assert (Fraction(iv.lo) * 16).denominator == 1
                assert (Fraction(iv.hi) * 16).denominator == 1

    def test_reproducible(self):
        a = random_case(random.Random(99), max_depth=4)
        b = random_case(random.Random(99), max_depth=4)
        assert to_source(a[0]) == to_source(b[0]) and a[1] == b[1]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        cases = [
            case_for(3, ast("x + y"), Box((Interval(0, 1), Interval(0.5, 2))), "inclusion"),
            case_for(4, ast("sqrtr(x)"), Box((Interval(4, 9),)), "[-3,3]"),
        ]
        path = tmp_path / "cases.manifest"
        write_manifest(path, cases)
        back = read_manifest(path)
        assert back == cases
        e, _ = back[0].parsed()
        assert to_source(e) == "x + y"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("1\tx + y\t[0,1];[0,1]\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.manifest"
        path.write_text("\n0\tx\t[0,1]\tinclusion\n\n")
        assert len(read_manifest(path)) == 1

    def test_fixed_cases_replay(self):
        from relival.interval import parse_interval

        for case in read_manifest(DATA / "fixed_cases.manifest"):
            e, box = case.parsed()
            got = eval_interval(e, DEFAULT, box)
            want = parse_interval(case.check)
            assert subset(want, got) and subset(got, want)
