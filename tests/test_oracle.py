"""Rational oracles, sampling checks, and case generation."""

import dataclasses
import math
import pathlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival.expr import parse, to_source, variable_sequence
from relival.interval import (
    EMPTY, REALS, Box, Interval, div, member, midpoint, mul, sqrt_canonical, sqrt_rel, subset
)
from relival.oracle import (
    RATIONAL_EMPTY,
    RATIONAL_REALS,
    ManifestCase,
    RationalInterval,
    _sqrt_bracket,
    case_for,
    corner_range_oracle,
    random_case,
    random_single_occurrence_case,
    read_manifest,
    relational_oracle,
    sample_inclusion,
    write_manifest,
)
from relival.rounding import MAX_FLOAT
from relival.semantics import (
    Interpretation, _compile_columns, _sample, compile_real, default_interpretation, eval_interval, mode_select
)

from conftest import ulp_steps
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

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            relational_oracle("**", Interval(0, 1), Interval(0, 1))

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
    """``_sample``'s ``(violations, defined)`` from one ``compile_real`` call per
    point, each drawn by ``uniform``: the loop the chunked column runner replaced."""
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
        assert _sample(e, interp, box, samples, seed) == _per_point_counts(e, interp, box, samples, seed)

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
        rng = random.Random(9)
        for _ in range(40):
            e, box = random_case(rng, max_depth=4, continuous=True)
            src = to_source(e)
            assert "sqrtr" not in src
            for name, iv in zip(variable_sequence(e), box):
                if name.startswith("p"):
                    assert iv.lo >= 0.25
                assert iv.is_bounded and not iv.is_empty
                assert iv.hi > iv.lo

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
