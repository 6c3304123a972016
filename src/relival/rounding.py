"""Directed rounding for binary64 bounds.

Bounds are computed in the default round-to-nearest mode and stepped one
representable value outward whenever the result is not provably exact, so
no FPU mode switching is needed anywhere.  Exactness is decided by the
sign of the residual, the exact value minus its rounded result, which
error-free transformations recover in float arithmetic:

* sums and differences: two-sum gives the exact error of ``a + b``;
* products: a Veltkamp split and Dekker's two-product give the exact
  error of ``p = a * b``;
* quotients: ``q = a / b`` has the sign of ``a - q*b`` times that of
  ``b``; two-product splits ``q*b`` into ``ph + err`` exactly, ``a - ph``
  is exact (Sterbenz), so ``(a - ph) - err`` carries that sign;
* square roots: ``r = sqrt(a)`` is compared through ``a - r*r``, formed
  the same way from two-product on ``r*r``.

Two-product is exact only away from overflow and underflow, so products,
quotients and roots take it when every operand and rounded result has
magnitude in ``[2**-969, 2**995]``.  Outside that range (zeros,
subnormals, infinities, values near overflow) the exact product or
quotient is formed with ``fractions.Fraction`` and read through
``_nearest``, as ``round_down``/``round_up`` read theirs: one rule gives
the float to nearest, the sign of its residual, and ``±inf`` past the
float range.  A root's residual is ``a - r*r`` in the same rationals.
Every helper therefore returns either the tightest representable bound
or its immediate outward neighbour.

Infinities are legal bound values here (an infinite bound encodes an
absent constraint); NaN never is.  Number text has one grammar,
``_NUMBER``: a signed decimal, ``p/q`` (``q`` nonzero) or ``inf``, in ASCII.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import inf, nextafter

__all__ = [
    "MAX_FLOAT",
    "round_down",
    "round_up",
    "next_down",
    "next_up",
    "add_down",
    "add_up",
    "sub_down",
    "sub_up",
    "mul_down",
    "mul_up",
    "div_down",
    "div_up",
    "sqrt_down",
    "sqrt_up",
]

MAX_FLOAT = sys.float_info.max

# -inf as a constant: the hot paths below would otherwise negate inf on every call
_NINF = -inf

# CPython's default limit on int string conversion: a "p/q" bound with a longer
# numerator or denominator fails in int(), and a decimal one is held to it too
_MAX_DIGITS = 4300
_DIGIT_LIMIT = 10**_MAX_DIGITS
# a decimal c * 10**-k (c without trailing zeros) within those limits has
# 2**k <= its denominator < 10**4300, so k <= 14284, and c is its numerator times
# at most 5**k: under 14,286 digits.  A longer coefficient is refused before
# Fraction(x) is built, which takes time quadratic in the length
_MAX_COEFFICIENT = 14_300
# expr's NUMBER too; no run of digits splits two ways, so a long miss fails in linear time
_DECIMAL = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# what \s matches under re.ASCII; interval text, --var names and --at strip these alone
_WHITESPACE = " \t\n\r\f\v"
_NUMBER = re.compile(rf"\s*[-+]?(?:{_DECIMAL}|(?i:inf(?:inity)?)|[0-9]+/0*[1-9][0-9]*)\s*", re.ASCII)
# an error message cuts a literal of over 3 * _SHOWN characters to its first and last _SHOWN
_SHOWN = 12


def _abridged(text: str) -> str:
    """``text`` quoted for an error message; a long one cut to both ends, with its length."""
    if len(text) <= 3 * _SHOWN:
        return repr(text)
    return f"{text[:_SHOWN] + '...' + text[-_SHOWN:]!r} ({len(text)} characters)"


def next_down(x: float) -> float:
    """Largest float strictly below ``x`` (identity on -inf)."""
    return math.nextafter(x, -math.inf)


def next_up(x: float) -> float:
    """Smallest float strictly above ``x`` (identity on +inf)."""
    return math.nextafter(x, math.inf)


def _exact_value(x) -> "Fraction | float":
    """Exact value of a bound descriptor; infinities pass through as floats."""
    if isinstance(x, float):
        if math.isnan(x):
            raise ValueError("NaN is not a real value")
        if math.isinf(x):
            return x
        return Fraction(x)
    if isinstance(x, bool):
        raise TypeError("bool is not a bound descriptor")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if not x.isascii():  # a plainer refusal than the grammar's
            raise ValueError(f"{_abridged(x)} is not ASCII text")
        try:
            if not _NUMBER.fullmatch(x):
                raise ValueError
            if "/" in x:  # int takes the sign and whitespace, and refuses over 4300 digits
                p, q = x.split("/")
                return Fraction(int(p), int(q))
            x = Decimal(x)  # an exponent beyond Decimal's range is an ArithmeticError
        except (ValueError, ArithmeticError):
            raise ValueError(
                f"{_abridged(x)} is not a decimal or a p/q of at most {_MAX_DIGITS} digits each"
            ) from None
    if isinstance(x, Decimal):
        if x.is_nan():
            raise ValueError("NaN is not a real value")
        if x.is_infinite():
            return math.inf if x > 0 else -math.inf
        # Fraction(x) builds 10**abs(exponent) in full; refuse first a magnitude that alone
        # puts the numerator (|x| >= 10**4300) or the denominator (|x| < 10**-4300) past it
        if x and not -_MAX_DIGITS <= x.adjusted() < _MAX_DIGITS:
            raise ValueError(f"{_abridged(str(x))} needs more than {_MAX_DIGITS} digits as a fraction")
        # str(x) shows every digit of the coefficient, so short text needs no count;
        # trailing zeros do not count
        if len(str(x)) > _MAX_COEFFICIENT:
            if len(bytes(x.as_tuple().digits).rstrip(b"\0")) > _MAX_COEFFICIENT:
                raise ValueError(f"{_abridged(str(x))} needs more than {_MAX_DIGITS} digits as a fraction")
        q = Fraction(x)
        if abs(q.numerator) >= _DIGIT_LIMIT or q.denominator >= _DIGIT_LIMIT:
            raise ValueError(f"{_abridged(str(x))} needs more than {_MAX_DIGITS} digits as a fraction")
        return q
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact real")


def _nearest(q: Fraction) -> "tuple[float, float]":
    """``f = float(q)`` to nearest, and a number with the sign of ``q - f``.
    Past the float range ``f`` is ``±inf`` and the residual ``∓inf``."""
    try:
        f = float(q)
    except OverflowError:
        return (math.inf, -math.inf) if q > 0 else (-math.inf, math.inf)
    n, d = f.as_integer_ratio()
    return f, q.numerator * d - n * q.denominator  # both denominators are positive


def round_down(x) -> float:
    """Greatest binary64 value not greater than the exact real ``x``.

    ``x`` may be a float (returned unchanged), an int, a Fraction, a
    Decimal, or a numeric literal string, all interpreted exactly.
    """
    q = _exact_value(x)
    if isinstance(q, float):
        return q
    f, r = _nearest(q)
    return next_down(f) if r < 0 else f


def round_up(x) -> float:
    """Least binary64 value not less than the exact real ``x``."""
    q = _exact_value(x)
    if isinstance(q, float):
        return q
    f, r = _nearest(q)
    return next_up(f) if r > 0 else f


def add_down(a: float, b: float) -> float:
    """Lower bound on the exact ``a + b``.

    Opposing infinities are a caller error (no set needs that sum).
    """
    s = a + b
    if _NINF < s < inf:
        # two-sum: err is the exact residue of the rounded sum
        t = s - a
        err = (a - (s - t)) + (b - t)
        return nextafter(s, _NINF) if err < 0 else s
    if s != s:
        raise ValueError("sum of opposing infinities has no value")
    if math.isinf(a) or math.isinf(b):
        return s
    return nextafter(s, _NINF)  # finite operands overflowed: the step above takes inf to MAX_FLOAT


def add_up(a: float, b: float) -> float:
    """Upper bound on the exact ``a + b``."""
    s = a + b
    if _NINF < s < inf:
        t = s - a
        err = (a - (s - t)) + (b - t)
        return nextafter(s, inf) if err > 0 else s
    if s != s:
        raise ValueError("sum of opposing infinities has no value")
    if math.isinf(a) or math.isinf(b):
        return s
    return nextafter(s, inf)  # finite operands overflowed: the step above takes -inf to -MAX_FLOAT


def sub_down(a: float, b: float) -> float:
    """Lower bound on the exact ``a - b``."""
    return add_down(a, -b)


def sub_up(a: float, b: float) -> float:
    """Upper bound on the exact ``a - b``."""
    return add_up(a, -b)


# Two-product is error-free when every factor and product has magnitude in
# [_TINY, _HUGE]: splitting (2**27 + 1 times a factor) cannot overflow, and
# |a*b| >= 2**-969 keeps ulp(a)*ulp(b), the last bit of every partial
# product, at or above the subnormal step 2**-1074.
_TINY = 2.0**-969
_HUGE = 2.0**995
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _two_product_err(a: float, b: float, p: float) -> float:
    """Exact ``a*b - p`` for ``p = a*b`` rounded to nearest (Dekker).

    Valid only when ``a``, ``b`` and ``p`` lie in ``[_TINY, _HUGE]`` in
    magnitude.
    """
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _product(a: float, b: float) -> "tuple[float, float]":
    """``p = a * b`` to nearest, and a number with the sign of the exact
    product minus ``p``.  A zero factor annihilates even an infinite one
    ({0 * y} = {0} under the set reading)."""
    p = a * b
    if _TINY <= abs(a) <= _HUGE and _TINY <= abs(b) <= _HUGE and _TINY <= abs(p) <= _HUGE:
        return p, _two_product_err(a, b, p)
    if a != a or b != b:  # NaN; the range test above is false on it
        raise ValueError("product of NaN operands")
    if a == 0.0 or b == 0.0:
        return 0.0, 0
    if math.isinf(a) or math.isinf(b):
        return p, 0
    return _nearest(Fraction(a) * Fraction(b))


def _quotient(a: float, b: float) -> "tuple[float, float]":
    """``q = a / b`` to nearest, and a number with the sign of the exact
    quotient minus ``q``.  An infinite divisor yields the closure bound 0
    (callers use it only where the divisor range stretches to infinity,
    so 0 is the exact limit of the quotients)."""
    if _TINY <= abs(a) <= _HUGE and _TINY <= abs(b) <= _HUGE:
        q = a / b
        if _TINY <= abs(q) <= _HUGE:
            # q*b = a*(1 + d) with |d| <= 2**-53, which keeps ulp(q)*ulp(b)
            # at or above 2**-1074: two-product on it is error-free
            ph = q * b
            r = (a - ph) - _two_product_err(q, b, ph)  # sign of a - q*b
            return q, (r if b > 0 else -r)
    if a != a or b != b:  # NaN; the range test above is false on it
        raise ValueError("quotient of NaN operands")
    if b == 0.0 or (math.isinf(a) and math.isinf(b)):
        raise ValueError("quotient is not defined for these bounds")
    if math.isinf(b):
        return 0.0, 0
    if math.isinf(a):  # b is finite and nonzero here, so IEEE gives the sign
        return a / b, 0
    if a == 0.0:
        return 0.0, 0
    return _nearest(Fraction(a) / Fraction(b))


def _root(a: float) -> "tuple[float, float]":
    """``r = sqrt(a)`` to nearest, and a number with the sign of the exact
    root minus ``r`` (that of ``a - r*r``); requires ``a >= 0``."""
    if _TINY <= a <= _HUGE:
        r = math.sqrt(a)
        ph = r * r
        return r, (a - ph) - _two_product_err(r, r, ph)
    if math.isnan(a) or a < 0:
        raise ValueError("square root bound needs a nonnegative argument")
    r = math.sqrt(a)
    if a == math.inf:
        return r, 0
    return r, Fraction(a) - Fraction(r) ** 2


def mul_down(a: float, b: float) -> float:
    """Lower bound on ``a * b``; a zero factor annihilates an infinite one."""
    p, r = _product(a, b)
    return next_down(p) if r < 0 else p


def mul_up(a: float, b: float) -> float:
    """Upper bound on ``a * b`` with the same zero-annihilation rule."""
    p, r = _product(a, b)
    return next_up(p) if r > 0 else p


def div_down(a: float, b: float) -> float:
    """Lower bound on ``a / b`` with ``b != 0``; an infinite divisor gives 0."""
    q, r = _quotient(a, b)
    return next_down(q) if r < 0 else q


def div_up(a: float, b: float) -> float:
    """Upper bound on ``a / b`` with ``b != 0``; infinite divisors as above."""
    q, r = _quotient(a, b)
    return next_up(q) if r > 0 else q


def sqrt_down(a: float) -> float:
    """Lower bound on the exact square root; requires ``a >= 0``."""
    r, e = _root(a)
    return next_down(r) if e < 0 else r


def sqrt_up(a: float) -> float:
    """Upper bound on the exact square root; requires ``a >= 0``."""
    r, e = _root(a)
    return next_up(r) if e > 0 else r
