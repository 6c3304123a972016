"""Interval type and the relational operation tables."""

import copy
import dataclasses
import math
import pickle
import struct
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival.interval import (
    EMPTY,
    REALS,
    Box,
    Interval,
    absolute,
    add,
    div,
    div_canonical,
    format_interval,
    hull_bounds,
    hull_union,
    intersects,
    member,
    midpoint,
    mul,
    neg,
    parse_box,
    parse_interval,
    sqrt_canonical,
    sqrt_rel,
    sub,
    subset,
    width,
)
from relival.rounding import MAX_FLOAT, mul_down, mul_up, next_down, next_up, round_down, round_up

INF = math.inf

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@st.composite
def intervals(draw, allow_unbounded=True):
    lo = draw(finite)
    hi = draw(finite)
    lo, hi = min(lo, hi), max(lo, hi)
    if allow_unbounded:
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lo = -INF
        elif kind == 1:
            hi = INF
        elif kind == 2:
            lo, hi = -INF, INF
    return Interval(lo, hi)


def assert_valid(iv: Interval):
    assert isinstance(iv, Interval)
    assert not math.isnan(iv.lo) and not math.isnan(iv.hi)
    if iv.is_empty:
        assert iv.lo == INF and iv.hi == -INF
    else:
        assert iv.lo <= iv.hi
        assert iv.lo < INF and iv.hi > -INF


class TestConstruction:
    def test_plain(self):
        iv = Interval(1.0, 2.0)
        assert (iv.lo, iv.hi, iv.is_empty) == (1.0, 2.0, False)

    def test_reversed_bounds_are_empty(self):
        assert Interval(2.0, 1.0).is_empty
        assert Interval(2.0, 1.0) == EMPTY

    def test_impossible_infinite_bounds_are_empty(self):
        assert Interval(INF, INF).is_empty
        assert Interval(-INF, -INF).is_empty
        assert Interval(INF, -INF).is_empty

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.nan)

    def test_negative_zero_normalized(self):
        iv = Interval(-0.0, 0.0)
        assert math.copysign(1.0, iv.lo) == 1.0
        assert str(iv) == "[0,0]"

    def test_point(self):
        assert Interval.point(3.0) == Interval(3.0, 3.0)
        assert Interval.point(3.0).is_degenerate

    def test_int_bounds_coerced(self):
        iv = Interval(1, 2)
        assert iv.lo == 1.0 and isinstance(iv.lo, float)

    def test_descriptor_bounds_round_outward(self):
        tenth = Interval("0.1", "0.1")
        assert Fraction(tenth.lo) < Fraction(1, 10) < Fraction(tenth.hi)
        assert tenth.hi == next_up(tenth.lo)
        third = Interval(Fraction(1, 3), Fraction(1, 3))
        assert Fraction(third.lo) < Fraction(1, 3) < Fraction(third.hi)
        assert Interval(Decimal("0.1"), Decimal("0.1")) == tenth
        odd = 2**53 + 1
        assert Interval(odd, odd) == Interval(2.0**53, 2.0**53 + 2)
        assert Interval(-odd, 10**400) == Interval(-(2.0**53 + 2), INF)
        assert Interval("-inf", "inf") == REALS

    def test_representable_descriptors_stay_exact(self):
        assert Interval(3, 2**60) == Interval(3.0, 2.0**60)
        assert Interval("0.5", Fraction(3, 4)) == Interval(0.5, 0.75)
        assert Interval(Decimal("-2.25"), "1e22") == Interval(-2.25, 1e22)

    def test_bad_descriptors_rejected(self):
        with pytest.raises(ValueError):
            Interval("nan", 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, "spam")

    @pytest.mark.parametrize("lo, hi", [("1/0", 2), (0, "1/0"), ("0/0", 1), ("-1/000", 0)])
    def test_zero_denominator_rejected(self, lo, hi):
        # Fraction("1/0") raised ZeroDivisionError, which parse_interval did not catch
        with pytest.raises(ValueError, match="is not a decimal or a p/q"):
            Interval(lo, hi)
        with pytest.raises(ValueError, match="bad interval bound"):
            parse_interval(f"[{lo},{hi}]")

    @pytest.mark.parametrize(
        "lo, hi", [("\u0663", "4"), ("0", "\uff14"), ("\u0661.5", 2), ("1/\u0663", 1)]
    )
    def test_non_ascii_descriptors_rejected(self, lo, hi):
        # Decimal and Fraction read the digits of every script; bounds take ASCII only
        with pytest.raises(ValueError, match="not ASCII"):
            Interval(lo, hi)
        with pytest.raises(ValueError, match="not ASCII"):
            parse_interval(f"[{lo},{hi}]")

    def test_boundedness(self):
        assert Interval(1.0, 2.0).is_bounded
        assert not Interval(1.0, INF).is_bounded
        assert not REALS.is_bounded
        assert EMPTY.is_bounded


def reference_bounds(lo, hi):
    """The constructor's rules written out plainly, as an oracle:
    non-float bounds round outward, NaN is rejected, reversed or
    impossible bounds give the empty set, -0.0 becomes 0.0."""
    if type(lo) is not float:
        lo = float(round_down(lo))
    if type(hi) is not float:
        hi = float(round_up(hi))
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval bounds cannot be NaN")
    if lo > hi or lo == INF or hi == -INF:
        return INF, -INF, True
    if lo == 0.0:
        lo = 0.0
    if hi == 0.0:
        hi = 0.0
    return lo, hi, False


def outcome(make, *args):
    # repr tells -0.0 from 0.0; a rejected input compares by exception type
    try:
        return repr(make(*args))
    except (ValueError, TypeError) as exc:
        return type(exc)


def built_bounds(lo, hi):
    iv = Interval(lo, hi)
    assert type(iv.is_empty) is bool
    return iv.lo, iv.hi, iv.is_empty


special_floats = st.sampled_from(
    [0.0, -0.0, INF, -INF, math.nan, MAX_FLOAT, -MAX_FLOAT, 5e-324, -5e-324]
)
any_float = st.floats() | special_floats
descriptors = (
    st.integers(-(2**70), 2**70)
    | st.fractions()
    | any_float.map(str)
    | st.sampled_from(["0.1", "-0", "1e400", "-1e400", "inf", "-inf", "nan", "spam", ""])
)


class TestConstructorDifferential:
    @given(any_float, any_float, st.booleans())
    def test_float_bounds(self, lo, hi, swap):
        if swap:
            lo, hi = hi, lo
        assert outcome(built_bounds, lo, hi) == outcome(reference_bounds, lo, hi)

    @given(any_float | descriptors, any_float | descriptors)
    def test_descriptors(self, lo, hi):
        assert outcome(built_bounds, lo, hi) == outcome(reference_bounds, lo, hi)

    def test_edge_grid(self):
        edges = [0.0, -0.0, 1.0, -1.0, INF, -INF, math.nan, 5e-324, MAX_FLOAT,
                 0, "-0.0", Fraction(-1, 3)]
        for lo in edges:
            for hi in edges:
                assert outcome(built_bounds, lo, hi) == outcome(reference_bounds, lo, hi)

    def test_bounds_are_the_only_fields(self):
        assert tuple(f.name for f in dataclasses.fields(Interval)) == ("lo", "hi")
        # emptiness is read from the bounds; there is no flag to pass
        with pytest.raises(TypeError):
            Interval(0.0, 0.0, True)

    @pytest.mark.parametrize(
        "value",
        [
            Interval(-0.5, 2.0),
            Interval("0.1", Fraction(1, 3)),
            EMPTY,
            REALS,
            Interval(0.0, INF),
            Box((Interval(0, 1), EMPTY, Interval(-INF, 3))),
            Box(()),
        ],
        ids=repr,
    )
    def test_pickle_and_deepcopy_round_trip(self, value):
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(back) is type(value)
            assert back == value
            assert repr(back) == repr(value)
            assert hash(back) == hash(value)

    def test_values_are_slotted_and_frozen(self):
        iv, box = Interval(1.0, 2.0), Box((Interval(1.0, 2.0),))
        assert not hasattr(iv, "__dict__") and not hasattr(box, "__dict__")
        for attr in ("lo", "hi"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(iv, attr, 0.0)
        # is_empty is a property read from the bounds, not a field
        with pytest.raises((AttributeError, TypeError)):
            iv.is_empty = True
        # no slot to hold it; CPython's generated __setattr__ raises TypeError here
        with pytest.raises((AttributeError, TypeError)):
            iv.other = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del iv.lo
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.dims = ()
        assert (iv.lo, iv.hi, iv.is_empty) == (1.0, 2.0, False)


class TestPredicates:
    def test_member_basic(self):
        iv = Interval(1.0, 2.0)
        assert member(1.0, iv) and member(2.0, iv) and member(1.5, iv)
        assert not member(0.99, iv)
        assert not member(3.0, iv)

    def test_member_rejects_nonreals(self):
        assert not member(INF, Interval(0.0, INF))
        assert not member(-INF, REALS)
        assert not member(math.nan, REALS)

    def test_member_empty(self):
        assert not member(0.0, EMPTY)

    def test_member_number_past_the_float_range(self):
        # a real all the same: compared exactly, where math.isfinite overflowed
        assert member(10**400, REALS) and member(-(10**400), REALS)
        assert not member(10**400, Interval(0.0, MAX_FLOAT))

    def test_contains_dunder(self):
        assert 1.5 in Interval(1, 2)
        assert 5.0 not in Interval(1, 2)

    def test_subset(self):
        assert subset(EMPTY, Interval(1, 2))
        assert subset(EMPTY, EMPTY)
        assert not subset(Interval(1, 2), EMPTY)
        assert subset(Interval(1, 2), Interval(0, 3))
        assert subset(Interval(1, 2), Interval(1, 2))
        assert not subset(Interval(0, 3), Interval(1, 2))
        assert subset(Interval(1, 2), REALS)
        assert subset(Interval(0, INF), REALS)

    def test_intersects(self):
        assert intersects(Interval(0, 2), Interval(2, 3))
        assert intersects(Interval(0, 2), Interval(1, 1))
        assert not intersects(Interval(0, 1), Interval(2, 3))
        assert not intersects(EMPTY, REALS)

    @given(intervals(), intervals(), finite)
    def test_member_respects_subset(self, a, b, p):
        if subset(a, b) and member(p, a):
            assert member(p, b)


class TestWidthMidpoint:
    def test_width_cases(self):
        assert width(EMPTY) == 0.0
        assert width(REALS) == INF
        assert width(Interval(1, INF)) == INF
        assert width(Interval(1, 3)) == 2.0
        assert width(Interval.point(5.0)) == 0.0

    def test_width_rounds_up(self):
        # hi - lo is inexact here; the reported width must not undershoot
        iv = Interval(-0.1, 0.3)
        assert Fraction(width(iv)) >= Fraction(iv.hi) - Fraction(iv.lo)

    def test_midpoint_cases(self):
        assert midpoint(Interval(1, 3)) == 2.0
        assert midpoint(Interval.point(7.0)) == 7.0
        assert midpoint(Interval(-MAX_FLOAT, MAX_FLOAT)) == 0.0
        # halving the smallest subnormal gives 0, outside the interval
        assert midpoint(Interval(5e-324, 5e-324)) == 5e-324
        assert midpoint(Interval(-5e-324, -5e-324)) == -5e-324

    def test_midpoint_errors(self):
        with pytest.raises(ValueError):
            midpoint(EMPTY)
        with pytest.raises(ValueError):
            midpoint(Interval(0, INF))

    @given(intervals(allow_unbounded=False))
    def test_midpoint_stays_inside(self, iv):
        assert member(midpoint(iv), iv)


class TestHulls:
    def test_hull_bounds_exact(self):
        assert hull_bounds(1, 2) == Interval(1, 2)

    def test_hull_bounds_outward(self):
        iv = hull_bounds(Fraction(1, 10), Fraction(1, 10))
        assert Fraction(iv.lo) <= Fraction(1, 10) <= Fraction(iv.hi)
        assert iv.hi == next_up(iv.lo)

    def test_hull_bounds_empty_descriptor(self):
        assert hull_bounds() == EMPTY
        assert hull_bounds(None, None) == EMPTY

    def test_hull_bounds_half_descriptor_rejected(self):
        with pytest.raises(ValueError):
            hull_bounds(1, None)

    def test_hull_union(self):
        assert hull_union(Interval(0, 1), Interval(2, 3)) == Interval(0, 3)
        assert hull_union(EMPTY, Interval(1, 2)) == Interval(1, 2)
        assert hull_union(Interval(1, 2), EMPTY) == Interval(1, 2)
        assert hull_union(EMPTY, EMPTY) == EMPTY
        assert hull_union(Interval(-INF, 0), Interval(0, INF)) == REALS

    @given(intervals(), intervals())
    def test_hull_union_contains_both(self, a, b):
        u = hull_union(a, b)
        assert subset(a, u) and subset(b, u)


class TestAddSub:
    def test_add_cases(self):
        assert add(Interval(1, 2), Interval(3, 4)) == Interval(4, 6)
        assert add(Interval(0, INF), Interval(-1, 1)) == Interval(-1, INF)
        assert add(REALS, Interval(5, 5)) == REALS
        assert add(EMPTY, REALS) == EMPTY
        assert add(Interval(-INF, 0), Interval(0, INF)) == REALS

    def test_sub_cases(self):
        assert sub(Interval(1, 2), Interval(3, 4)) == Interval(-3, -1)
        assert sub(Interval(0, 1), Interval(0, 1)) == Interval(-1, 1)
        assert sub(Interval(-INF, 0), Interval(-INF, 0)) == REALS
        assert sub(EMPTY, Interval(0, 1)) == EMPTY

    def test_add_outward_rounding(self):
        r = add(Interval(0.1, 0.1), Interval(0.2, 0.2))
        exact = Fraction(0.1) + Fraction(0.2)
        assert Fraction(r.lo) <= exact <= Fraction(r.hi)
        assert r.hi == next_up(r.lo)

    @given(intervals(), intervals())
    def test_sub_is_add_of_negation(self, x, y):
        assert sub(x, y) == add(x, neg(y))

    @given(intervals(), intervals())
    def test_add_commutes(self, x, y):
        assert add(x, y) == add(y, x)


class TestMul:
    def test_mul_cases(self):
        assert mul(Interval(-1, 2), Interval(3, 4)) == Interval(-4, 8)
        assert mul(Interval(2, 3), Interval(-1, 1)) == Interval(-3, 3)
        assert mul(Interval(-2, -1), Interval(-3, -1)) == Interval(1, 6)
        assert mul(Interval(0, 0), REALS) == Interval(0, 0)
        assert mul(REALS, Interval(0, 0)) == Interval(0, 0)
        assert mul(Interval(0, 1), Interval(0, INF)) == Interval(0, INF)
        assert mul(EMPTY, Interval(0, 0)) == EMPTY

    def test_mul_overflow_saturates(self):
        big = Interval(1e300, 1e300)
        assert mul(big, big) == Interval(MAX_FLOAT, INF)
        assert mul(big, neg(big)) == Interval(-INF, -MAX_FLOAT)

    @given(intervals(), intervals())
    def test_mul_commutes(self, x, y):
        assert mul(x, y) == mul(y, x)

    def test_straddle_times_unbounded(self):
        assert mul(Interval(-1, 1), Interval(0, INF)) == REALS

    def test_case_table_matches_four_corners(self):
        ends = [-INF, -MAX_FLOAT, -3.5, -1e-300, -5e-324, 0.0, 5e-324, 0.1, 2.0, 1e300, MAX_FLOAT, INF]
        ivs = [Interval(lo, hi) for lo in ends for hi in ends if lo <= hi and lo < INF and hi > -INF]
        classes = set()
        for x in ivs:
            for y in ivs:
                classes.add((sign_class(x), sign_class(y)))
                assert bits(mul(x, y)) == bits(corner_mul(x, y)), (x, y)
        assert len(classes) == 9

    @given(intervals(), intervals())
    def test_case_table_matches_four_corners_property(self, x, y):
        assert bits(mul(x, y)) == bits(corner_mul(x, y))


def sign_class(x: Interval) -> str:
    return "+" if x.lo >= 0 else ("-" if x.hi <= 0 else "0")


def corner_mul(x: Interval, y: Interval) -> Interval:
    # reference: min and max over all four directed corner products
    a, b, c, d = x.lo, x.hi, y.lo, y.hi
    lo = min(mul_down(a, c), mul_down(a, d), mul_down(b, c), mul_down(b, d))
    hi = max(mul_up(a, c), mul_up(a, d), mul_up(b, c), mul_up(b, d))
    return Interval(lo, hi)


def bits(x: Interval) -> bytes:
    return struct.pack("<dd?", x.lo, x.hi, x.is_empty)


class TestDiv:
    def test_named_relational_cases(self):
        assert div(Interval(1, 2), Interval(0, 0)) == EMPTY
        assert div(Interval(0, 1), Interval(0, 0)) == REALS
        assert div(Interval(1, 2), Interval(-1, 1)) == REALS

    def test_sign_constant_divisors(self):
        assert div(Interval(4, 6), Interval(1, 2)) == Interval(2, 6)
        assert div(Interval(-1, 2), Interval(2, 4)) == Interval(-0.5, 1)
        assert div(Interval(1, 2), Interval(-2, -1)) == Interval(-2, -0.5)
        assert div(Interval(0, 0), Interval(2, 3)) == Interval(0, 0)

    def test_divisor_touching_zero(self):
        assert div(Interval(1, 2), Interval(0, 1)) == Interval(1, INF)
        assert div(Interval(1, 2), Interval(-1, 0)) == Interval(-INF, -1)
        assert div(Interval(-2, -1), Interval(0, 1)) == Interval(-INF, -1)

    def test_unbounded_divisor(self):
        assert div(Interval(1, 2), Interval(2, INF)) == Interval(0, 1)
        assert div(Interval(1, 2), Interval(-INF, -2)) == Interval(-1, 0)
        assert div(Interval(1, 2), REALS) == REALS

    def test_canonical_differs_only_at_double_zero(self):
        assert div_canonical(Interval(1, 2), Interval(0, 0)) == EMPTY
        assert div_canonical(Interval(0, 1), Interval(0, 0)) == EMPTY
        assert div_canonical(Interval(0, 1), Interval(0, 2)) == Interval(0, INF)
        assert div_canonical(Interval(1, 2), Interval(-1, 1)) == REALS

    def test_empty_propagates(self):
        assert div(EMPTY, REALS) == EMPTY
        assert div(Interval(1, 2), EMPTY) == EMPTY

    @given(intervals(), intervals())
    def test_relational_contains_canonical(self, x, y):
        assert subset(div_canonical(x, y), div(x, y))


class TestRoots:
    def test_sqrt_rel_cases(self):
        assert sqrt_rel(Interval(4, 9)) == Interval(-3, 3)
        assert sqrt_rel(Interval(-1, 4)) == Interval(-2, 2)
        assert sqrt_rel(Interval(-5, -1)) == EMPTY
        assert sqrt_rel(Interval(0, 0)) == Interval(0, 0)
        assert sqrt_rel(Interval(0, INF)) == REALS
        assert sqrt_rel(EMPTY) == EMPTY

    def test_sqrt_canonical_cases(self):
        assert sqrt_canonical(Interval(4, 9)) == Interval(2, 3)
        assert sqrt_canonical(Interval(-1, 4)) == Interval(0, 2)
        assert sqrt_canonical(Interval(-5, -1)) == EMPTY
        assert sqrt_canonical(Interval(0, INF)) == Interval(0, INF)

    def test_sqrt_rel_rounding_brackets_the_root(self):
        iv = sqrt_rel(Interval(2, 2))
        assert iv.lo == -iv.hi
        assert Fraction(iv.hi) ** 2 >= 2
        assert Fraction(next_down(iv.hi)) ** 2 < 2

    @given(intervals(allow_unbounded=False))
    def test_sqrt_canonical_inside_sqrt_rel(self, x):
        assert subset(sqrt_canonical(x), sqrt_rel(x))


class TestNegAbs:
    def test_neg_cases(self):
        assert neg(Interval(1, 2)) == Interval(-2, -1)
        assert neg(REALS) == REALS
        assert neg(Interval(0, INF)) == Interval(-INF, 0)
        assert neg(EMPTY) == EMPTY

    def test_abs_cases(self):
        assert absolute(Interval(1, 2)) == Interval(1, 2)
        assert absolute(Interval(-2, -1)) == Interval(1, 2)
        assert absolute(Interval(-3, 2)) == Interval(0, 3)
        assert absolute(REALS) == Interval(0, INF)
        assert absolute(EMPTY) == EMPTY

    @given(intervals())
    def test_neg_involution(self, x):
        assert neg(neg(x)) == x


class TestOperatorSugar:
    def test_dunders_match_functions(self):
        x, y = Interval(1, 2), Interval(3, 4)
        assert x + y == add(x, y)
        assert x - y == sub(x, y)
        assert x * y == mul(x, y)
        assert x / y == div(x, y)
        assert -x == neg(x)
        assert abs(Interval(-2, 1)) == absolute(Interval(-2, 1))


OPS2 = (add, sub, mul, div, div_canonical)
OPS1 = (neg, absolute, sqrt_rel, sqrt_canonical)


class TestAlgebraicProperties:
    @given(intervals(), intervals())
    def test_all_results_valid(self, x, y):
        for op in OPS2:
            assert_valid(op(x, y))
        for op in OPS1:
            assert_valid(op(x))

    @given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_inclusion_monotonicity(self, x, y, f1, f2, f3, f4):
        xs = _shrink(x, f1, f2)
        ys = _shrink(y, f3, f4)
        for op in OPS2:
            assert subset(op(xs, ys), op(x, y))
        for op in OPS1:
            assert subset(op(xs), op(x))


def _shrink(iv: Interval, f1: float, f2: float) -> Interval:
    if iv.is_empty:
        return iv
    lo = iv.lo if iv.lo == -INF else iv.lo + f1 * min(1.0, (iv.hi - iv.lo) / 4 if iv.hi != INF else 1.0)
    hi = iv.hi if iv.hi == INF else iv.hi - f2 * min(1.0, (iv.hi - iv.lo) / 4 if iv.lo != -INF else 1.0)
    if lo > hi or math.isnan(lo) or math.isnan(hi):
        return iv
    return Interval(lo, hi)


class TestTextSyntax:
    def test_parse_cases(self):
        assert parse_interval("[1,2]") == Interval(1, 2)
        assert parse_interval(" [ -1 , 2.5 ] ".replace(" ", "")) == Interval(-1, 2.5)
        assert parse_interval("empty") == EMPTY
        assert parse_interval("[-inf,inf]") == REALS
        assert parse_interval("[-inf,3]") == Interval(-INF, 3)
        assert parse_interval("[2,1]") == EMPTY

    def test_parse_rounds_outward(self):
        iv = parse_interval("[0.1,0.1]")
        assert Fraction(iv.lo) < Fraction(1, 10) < Fraction(iv.hi)
        assert iv.hi == next_up(iv.lo)

    def test_parse_whitespace_tolerated(self):
        assert parse_interval("  [1, 2]  ") == Interval(1, 2)
        assert parse_interval("\t\n\r\x0b\x0c[1,2]\x0c\x0b\r\n\t") == Interval(1, 2)
        assert parse_interval(" empty\n") == EMPTY

    def test_parse_errors(self):
        # whitespace around the brackets is ASCII, as inside a bound
        for bad in ("1,2", "[1 2]", "[a,b]", "[1,2,3]", "[]", "[1,nan]", "",
                    "[0,1]\u3000", "\x1c[0,1]", "\xa0empty", "[\u30000,1]"):
            with pytest.raises(ValueError):
                parse_interval(bad)

    def test_format_cases(self):
        assert format_interval(Interval(1, 2)) == "[1,2]"
        assert format_interval(EMPTY) == "empty"
        assert format_interval(REALS) == "[-inf,inf]"
        assert format_interval(Interval(-0.5, 0.25)) == "[-0.5,0.25]"

    @given(intervals())
    def test_roundtrip_contains_original(self, iv):
        # printing rounds to 17 digits; reparsing rounds outward, so the
        # round trip may widen by 1 ULP per side but never loses points
        back = parse_interval(format_interval(iv))
        assert subset(iv, back)
        if not iv.is_empty:
            assert back.lo == iv.lo or next_up(back.lo) == iv.lo
            assert back.hi == iv.hi or next_down(back.hi) == iv.hi

    @given(intervals())
    def test_printed_bounds_reparse_to_nearest(self, iv):
        # 17 significant digits identify the float under nearest rounding
        if not iv.is_empty:
            assert float(f"{iv.lo:.17g}") == iv.lo
            assert float(f"{iv.hi:.17g}") == iv.hi

    def test_seventeen_digits(self):
        assert format_interval(Interval(0.1, 0.1)) == "[0.10000000000000001,0.10000000000000001]"


class TestBox:
    def test_basics(self):
        b = Box((Interval(0, 1), Interval(2, 3)))
        assert b.arity == 2 and len(b) == 2
        assert b[0] == Interval(0, 1)
        assert list(b) == [Interval(0, 1), Interval(2, 3)]
        assert not b.is_empty and b.is_bounded

    def test_list_input_coerced(self):
        assert Box([Interval(0, 1)]).dims == (Interval(0, 1),)

    def test_non_interval_rejected(self):
        with pytest.raises(TypeError):
            Box((1.0, 2.0))

    def test_empty_and_unbounded(self):
        assert Box((Interval(0, 1), EMPTY)).is_empty
        assert not Box((Interval(0, 1), Interval(0, INF))).is_bounded

    def test_contains(self):
        b = Box((Interval(0, 1), Interval(2, 3)))
        assert b.contains((0.5, 2.0))
        assert not b.contains((0.5, 4.0))
        with pytest.raises(ValueError):
            b.contains((0.5,))

    def test_subset(self):
        outer = Box((Interval(0, 2), Interval(0, 2)))
        inner = Box((Interval(1, 2), Interval(0, 1)))
        assert inner.is_subset_of(outer)
        assert not outer.is_subset_of(inner)
        assert Box((Interval(5, 6), EMPTY)).is_subset_of(outer)
        with pytest.raises(ValueError):
            inner.is_subset_of(Box((Interval(0, 1),)))

    def test_text_roundtrip(self):
        b = Box((Interval(0, 1), EMPTY, Interval(-INF, 3)))
        assert parse_box(str(b)) == b
        assert str(b) == "[0,1];empty;[-inf,3]"
