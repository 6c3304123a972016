"""Rational oracles, sampling checks, and case generation."""

import math
import pathlib
import random
from fractions import Fraction

import pytest

from relival.expr import parse, to_source, variable_sequence
from relival.interval import EMPTY, Box, Interval, div, mul, sqrt_canonical, sqrt_rel, subset
from relival.oracle import (
    RATIONAL_EMPTY,
    RATIONAL_REALS,
    ManifestCase,
    RationalInterval,
    case_for,
    corner_range_oracle,
    random_case,
    random_single_occurrence_case,
    read_manifest,
    relational_oracle,
    sample_inclusion,
    write_manifest,
)
from relival.semantics import default_interpretation, eval_interval

from conftest import ulp_steps

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
        r = RationalInterval(Fraction(0), None)
        assert r.hi is None
        assert r.contains(Fraction(10**30))
        assert not r.contains(Fraction(-1))

    def test_empty_contains_nothing(self):
        assert not RATIONAL_EMPTY.contains(Fraction(0))

    def test_reals_contains_everything(self):
        assert RATIONAL_REALS.contains(Fraction(-(10**20)))

    def test_from_interval_is_exact(self):
        r = RationalInterval.from_interval(Interval(0.1, 0.2))
        assert r.lo == Fraction(0.1) and r.hi == Fraction(0.2)
        assert RationalInterval.from_interval(EMPTY) is RATIONAL_EMPTY

    def test_from_interval_unbounded(self):
        r = RationalInterval.from_interval(Interval(0, INF))
        assert r.lo == Fraction(0) and r.hi is None

    def test_is_inside(self):
        r = RationalInterval(Fraction(0), Fraction(1))
        assert r.is_inside(Interval(-0.5, 1.5))
        assert r.is_inside(Interval(0, 1))
        assert not r.is_inside(Interval(0.25, 1))
        assert not r.is_inside(Interval(0, 0.75))
        assert not r.is_inside(EMPTY)
        assert not RationalInterval(Fraction(0), None).is_inside(Interval(-1, 5))
        assert RATIONAL_EMPTY.is_inside(Interval(5, 5))
        assert not RATIONAL_REALS.is_inside(Interval(0, 1))
        assert RATIONAL_REALS.is_inside(Interval(-INF, INF))


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
        assert got.lo == Fraction(1) and got.hi is None
        got = relational_oracle("/", Interval(1, 2), Interval(-1, 0))
        assert got.lo is None and got.hi == Fraction(-1)

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
