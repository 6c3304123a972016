"""Directed rounding: adjacency to the exact value, edge conventions."""

import decimal
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival.rounding import (
    MAX_FLOAT,
    add_down,
    add_up,
    div_down,
    div_up,
    mul_down,
    mul_up,
    next_down,
    next_up,
    round_down,
    round_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)


def assert_bracket(down: float, exact: Fraction, up: float):
    # tightest-or-adjacent on both sides, verified in exact arithmetic
    if math.isinf(down):
        assert down == -math.inf
    else:
        assert Fraction(down) <= exact
        nxt = next_up(down)
        assert math.isinf(nxt) or Fraction(nxt) > exact
    if math.isinf(up):
        assert up == math.inf
    else:
        assert Fraction(up) >= exact
        prev = next_down(up)
        assert math.isinf(prev) or Fraction(prev) < exact


class TestNeighbors:
    def test_next_down_basic(self):
        assert next_down(1.0) == math.nextafter(1.0, -math.inf)
        assert next_down(0.0) == -5e-324
        assert next_down(-math.inf) == -math.inf
        assert next_down(math.inf) == MAX_FLOAT

    def test_next_up_basic(self):
        assert next_up(0.0) == 5e-324
        assert next_up(MAX_FLOAT) == math.inf
        assert next_up(math.inf) == math.inf


class TestRoundValue:
    def test_floats_are_fixed_points(self):
        for v in (0.0, -0.0, 1.5, -2.75, 1e-308, MAX_FLOAT, math.inf, -math.inf):
            assert round_down(v) == v
            assert round_up(v) == v

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            round_down(math.nan)
        with pytest.raises(ValueError):
            round_up(float("nan"))
        for text in ("nan", "NaN"):
            with pytest.raises(ValueError):
                round_down(Decimal(text))
            with pytest.raises(ValueError):
                round_up(text)

    def test_decimal_and_string_literals(self):
        # 3/10 sits just above the nearest float, which prints as 0.3
        assert round_down("0.3") == 0.3
        assert round_up("0.3") == math.nextafter(0.3, math.inf)
        assert round_down(Decimal("0.3")) == 0.3
        # 1/3 sits just above float(1/3)
        third = Fraction(1, 3)
        assert round_down(third) == float(third)
        assert round_up(third) == math.nextafter(float(third), math.inf)
        assert round_up("1/3") == round_up(third)

    def test_exact_literals_round_to_themselves(self):
        assert round_down("0.5") == 0.5 == round_up("0.5")
        assert round_down("-2") == -2.0 == round_up("-2")
        assert round_down("1e22") == 1e22 == round_up("1e22")

    def test_infinite_strings(self):
        assert round_down("inf") == math.inf
        assert round_up("-inf") == -math.inf
        assert round_down(" +Infinity ") == math.inf
        assert round_down(Decimal("-Infinity")) == -math.inf
        assert round_up(Decimal("inf")) == math.inf

    def test_overflow_saturates_inward_on_the_down_side(self):
        big = Fraction(2) ** 1024
        assert round_down(big) == MAX_FLOAT
        assert round_up(big) == math.inf
        assert round_down(-big) == -math.inf
        assert round_up(-big) == -MAX_FLOAT

    def test_decimal_digit_limit(self):
        # exact numerators and denominators may have up to 4300 digits, as in "p/q" bounds
        assert (round_down("1e4299"), round_up("1e4299")) == (MAX_FLOAT, math.inf)
        assert (round_down("1e-4299"), round_up("1e-4299")) == (0.0, 5e-324)
        assert round_down("1" + "0" * 5000 + "e-5000") == 1.0  # reduces to 1
        for text in ("1e4300", "11e4299", "1e-4300", "1e999999999", "-1e-999999999"):
            with pytest.raises(ValueError, match="4300 digits"):
                round_up(text)
        with pytest.raises(ValueError):
            round_up("1/" + "1" * 4301)

    def test_long_decimal_coefficient(self):
        # 2**-14284 has a 4300-digit denominator and 1 + 2**-14284 a 4300-digit numerator
        # too, so both still read exactly; the second one's coefficient, 14,285 digits,
        # is the longest any decimal within the digit limit can have
        with decimal.localcontext() as ctx:
            ctx.prec = 20_000
            tiny = Decimal(2) ** -14284
            one_up = 1 + tiny
        assert len(tiny.as_tuple().digits) == 9985 and len(one_up.as_tuple().digits) == 14285
        assert (round_down(str(tiny)), round_up(str(tiny))) == (0.0, 5e-324)
        assert (round_down(str(one_up)), round_up(str(one_up))) == (1.0, next_up(1.0))
        assert round_down("1" + "0" * 20000 + "e-20000") == 1.0  # trailing zeros do not count
        # a longer coefficient is refused before its fraction is built, in linear time
        for text in ("0." + "1" * 14301, "1." + "0" * 10**6 + "1"):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="4300 digits"):
                round_up(text)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "text, length",
        [
            ("1." + "0" * 10**6 + "1", 10**6 + 3),  # refused by the coefficient count
            ("1" + "0" * 5000, 5001),  # refused by the magnitude
            ("1/" + "3" * 5000, 5002),  # Fraction's int conversion limit
            ("1." + "0" * 5000 + "z", 5003),  # junk
        ],
    )
    def test_long_literal_is_cut_in_the_message(self, text, length):
        with pytest.raises(ValueError, match="4300 digits") as exc:
            round_up(text)
        message = str(exc.value)
        assert len(message) < 120 and f"({length} characters)" in message
        assert repr(text[:12] + "..." + text[-12:]) in message

    def test_short_literal_is_shown_whole(self):
        with pytest.raises(ValueError, match=r"'1E\+4300' needs more than 4300 digits"):
            round_up("1e4300")
        with pytest.raises(ValueError, match="^'abc' is not a decimal or a p/q of at most 4300 digits each$"):
            round_up("abc")

    def test_underflow_to_zero(self):
        tiny = Fraction(1, 10**330)
        assert round_down(tiny) == 0.0
        assert round_up(tiny) == 5e-324
        assert round_down(-tiny) == -5e-324
        assert round_up(-tiny) == 0.0

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            round_down("spam")
        with pytest.raises(TypeError):
            round_down([1])
        with pytest.raises(TypeError):
            round_up(True)

    @given(st.fractions(min_value=-10**40, max_value=10**40))
    def test_bracket_property(self, q):
        assert_bracket(round_down(q), q, round_up(q))

    @given(finite)
    def test_float_identity_property(self, v):
        assert round_down(v) == v
        assert round_up(v) == v


class TestAddSub:
    @given(finite, finite)
    def test_add_brackets_exact_sum(self, a, b):
        exact = Fraction(a) + Fraction(b)
        assert_bracket(add_down(a, b), exact, add_up(a, b))

    @given(finite, finite)
    def test_sub_brackets_exact_difference(self, a, b):
        exact = Fraction(a) - Fraction(b)
        assert_bracket(sub_down(a, b), exact, sub_up(a, b))

    def test_exact_sums_stay_exact(self):
        assert add_down(0.25, 0.5) == 0.75 == add_up(0.25, 0.5)
        assert add_down(1.0, 2.0) == 3.0 == add_up(1.0, 2.0)

    def test_inexact_sum_splits_by_direction(self):
        # 0.1 + 0.2 rounds up in round-to-nearest
        s = 0.1 + 0.2
        assert add_up(0.1, 0.2) == s
        assert add_down(0.1, 0.2) == next_down(s)

    def test_overflow_from_finite_operands(self):
        assert add_up(MAX_FLOAT, MAX_FLOAT) == math.inf
        assert add_down(MAX_FLOAT, MAX_FLOAT) == MAX_FLOAT
        assert add_down(-MAX_FLOAT, -MAX_FLOAT) == -math.inf
        assert add_up(-MAX_FLOAT, -MAX_FLOAT) == -MAX_FLOAT

    def test_infinite_operands_pass_through(self):
        assert add_down(math.inf, -5.0) == math.inf
        assert add_up(-math.inf, 5.0) == -math.inf
        assert sub_down(-math.inf, 5.0) == -math.inf

    def test_opposing_infinities_rejected(self):
        with pytest.raises(ValueError):
            add_down(math.inf, -math.inf)
        with pytest.raises(ValueError):
            sub_up(math.inf, math.inf)


class TestMul:
    @given(moderate, moderate)
    def test_mul_brackets_exact_product(self, a, b):
        exact = Fraction(a) * Fraction(b)
        assert_bracket(mul_down(a, b), exact, mul_up(a, b))

    def test_zero_annihilates_infinity(self):
        assert mul_down(0.0, math.inf) == 0.0
        assert mul_up(-math.inf, 0.0) == 0.0
        assert mul_down(0.0, -math.inf) == 0.0

    def test_signed_infinite_products(self):
        assert mul_down(math.inf, 2.0) == math.inf
        assert mul_up(-math.inf, 3.0) == -math.inf
        assert mul_down(-2.0, math.inf) == -math.inf

    def test_overflow_from_finite_operands(self):
        assert mul_down(1e300, 1e300) == MAX_FLOAT
        assert mul_up(1e300, 1e300) == math.inf
        assert mul_up(1e300, -1e300) == -MAX_FLOAT
        assert mul_down(1e300, -1e300) == -math.inf

    def test_subnormal_underflow_directions(self):
        # exact product is positive but below the subnormal range
        assert mul_down(1e-200, 1e-200) == 0.0
        assert mul_up(1e-200, 1e-200) == 5e-324
        assert mul_down(1e-200, -1e-200) == -5e-324
        assert mul_up(1e-200, -1e-200) == 0.0


class TestDiv:
    @given(moderate, moderate.filter(lambda v: v != 0.0))
    def test_div_brackets_exact_quotient(self, a, b):
        exact = Fraction(a) / Fraction(b)
        assert_bracket(div_down(a, b), exact, div_up(a, b))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            div_down(1.0, 0.0)
        with pytest.raises(ValueError):
            div_up(0.0, 0.0)

    def test_infinite_divisor_gives_closure_bound(self):
        assert div_down(5.0, math.inf) == 0.0
        assert div_up(-5.0, math.inf) == 0.0
        assert div_down(5.0, -math.inf) == 0.0

    def test_infinite_dividend_keeps_sign(self):
        assert div_down(math.inf, 2.0) == math.inf
        assert div_down(math.inf, -2.0) == -math.inf
        assert div_up(-math.inf, 2.0) == -math.inf

    def test_both_infinite_rejected(self):
        with pytest.raises(ValueError):
            div_down(math.inf, math.inf)

    def test_overflow_quotient(self):
        assert div_down(1e300, 1e-300) == MAX_FLOAT
        assert div_up(1e300, 1e-300) == math.inf


class TestSqrt:
    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_sqrt_brackets_exact_root(self, a):
        down, up = sqrt_down(a), sqrt_up(a)
        qa = Fraction(a)
        assert Fraction(down) ** 2 <= qa
        assert Fraction(up) ** 2 >= qa
        assert Fraction(next_up(down)) ** 2 > qa
        if up > 0:
            assert Fraction(next_down(up)) ** 2 < qa or Fraction(up) ** 2 == qa

    def test_perfect_squares_exact(self):
        for v, r in ((0.0, 0.0), (1.0, 1.0), (4.0, 2.0), (2.25, 1.5), (1e4, 100.0)):
            assert sqrt_down(v) == r == sqrt_up(v)

    def test_two_brackets_around_sqrt2(self):
        d, u = sqrt_down(2.0), sqrt_up(2.0)
        assert u == next_up(d)
        assert Fraction(d) ** 2 < 2 < Fraction(u) ** 2

    def test_infinity_passes_through(self):
        assert sqrt_down(math.inf) == math.inf
        assert sqrt_up(math.inf) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_down(-1.0)
        with pytest.raises(ValueError):
            sqrt_up(-1e-300)


# Operands around the fast-path edges: subnormals, powers of two, the
# extremes, and both thresholds of the error-free range with their
# neighbours; products and quotients of these cross every threshold.
_EDGE_MAGNITUDES = [
    5e-324,
    1e-320,
    2.2250738585072009e-308,  # largest subnormal
    2.0**-1022,
    2.0**-970,
    2.0**-969,
    2.0**-485,
    0.1,
    1.0 / 3.0,
    0.5,
    1.0,
    3.0,
    2.0**497,
    2.0**995,
    2.0**1023,
    MAX_FLOAT,
]
EDGES = sorted(
    {
        s * v
        for m in _EDGE_MAGNITUDES
        for v in (m, next_down(m), next_up(m))
        for s in (1.0, -1.0)
        if 0.0 < v < math.inf
    }
)


def _check_add_sub(a, b):
    exact = Fraction(a) + Fraction(b)
    assert add_down(a, b) == round_down(exact), (a, b)
    assert add_up(a, b) == round_up(exact), (a, b)
    exact = Fraction(a) - Fraction(b)
    assert sub_down(a, b) == round_down(exact), (a, b)
    assert sub_up(a, b) == round_up(exact), (a, b)


class TestFastPathAgainstFractions:
    """The float fast path must give exactly the rational rounding."""

    @given(finite, finite)
    def test_mul_matches_rational_rounding(self, a, b):
        exact = Fraction(a) * Fraction(b)
        assert mul_down(a, b) == round_down(exact)
        assert mul_up(a, b) == round_up(exact)

    @given(finite, finite.filter(lambda v: v != 0.0))
    def test_div_matches_rational_rounding(self, a, b):
        exact = Fraction(a) / Fraction(b)
        assert div_down(a, b) == round_down(exact)
        assert div_up(a, b) == round_up(exact)

    @given(finite, finite)
    def test_add_and_sub_match_rational_rounding(self, a, b):
        _check_add_sub(a, b)

    def test_add_and_sub_on_edges(self):
        # sums of the largest edges overflow: down to MAX_FLOAT, up to inf, or mirrored
        for a in EDGES:
            for b in EDGES:
                _check_add_sub(a, b)

    def test_mul_and_div_on_edges(self):
        for a in EDGES:
            for b in EDGES:
                exact = Fraction(a) * Fraction(b)
                assert mul_down(a, b) == round_down(exact), (a, b)
                assert mul_up(a, b) == round_up(exact), (a, b)
                exact = Fraction(a) / Fraction(b)
                assert div_down(a, b) == round_down(exact), (a, b)
                assert div_up(a, b) == round_up(exact), (a, b)

    def test_sqrt_on_edges(self):
        for a in EDGES:
            if a > 0:
                qa = Fraction(a)
                down, up = sqrt_down(a), sqrt_up(a)
                assert Fraction(down) ** 2 <= qa < Fraction(next_up(down)) ** 2, a
                assert Fraction(next_down(up)) ** 2 < qa <= Fraction(up) ** 2, a

    def test_in_range_operands_build_no_fraction(self, monkeypatch):
        import relival.rounding as rounding

        def forbidden(*args):
            raise AssertionError("Fraction built on the fast path")

        monkeypatch.setattr(rounding, "Fraction", forbidden)
        for a, b in ((0.1, 3.0), (-1e-150, 1e100), (2.0**500, 2.0**-400), (1.0 / 3.0, -7.0)):
            mul_down(a, b), mul_up(a, b), div_down(a, b), div_up(a, b)
            sqrt_down(abs(a)), sqrt_up(abs(a))

