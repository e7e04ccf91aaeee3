"""Independent exact-value arithmetic used to cross-check conversions.

Everything here is exact arithmetic on integer ratios, with Fraction only
at the public value maps, and deliberately shares none of the converter's
code, its grid packer and successor function included; the only common
ground is the format descriptions and the value types. That keeps
disagreement meaningful: when a differential test trips, exactly one side
is wrong. decimal_reference and rational_reference, the entries --check
calls per line, answer in the fields (kind, sign, m, e) of the two bounds
and build no value.
"""

from __future__ import annotations

import re

from .floatkit import (
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    KIND_ZERO,
    ZERO,
    FloatFormat,
    FloatInterval,
    FloatValue,
    infinity,
)
from .parse import DecimalScientific, Rational


def _decimal_ratio(sign: int, digits: str, exponent: int) -> tuple[int, int]:
    """sign * 0.digits * 10^exponent, the digits ASCII and empty for zero, as
    a signed numerator over a positive denominator, not reduced."""
    # int() refuses texts past 4300 digits by default; read in chunks
    N = int(digits[:4000] or "0")
    for i in range(4000, len(digits), 4000):
        chunk = digits[i : i + 4000]
        N = N * 10 ** len(chunk) + int(chunk)
    N *= sign
    scale = exponent - len(digits)
    if scale >= 0:
        return N * 10**scale, 1
    return N, 10**-scale


def exact_value(d: DecimalScientific) -> Fraction:
    """Value of a normalized decimal as an exact rational."""
    from fractions import Fraction
    return Fraction(*_decimal_ratio(d.sign, d.mantissa.as_text(), d.exponent))


def rational_value(r: Rational) -> Fraction:
    from fractions import Fraction
    return Fraction(r.sign * r.p, r.q)


def _float_ratio(sign: int, m: int, e: int) -> tuple[int, int]:
    """The value sign * m * 2^e as a signed numerator over a power of two."""
    return (sign * m << e, 1) if e >= 0 else (sign * m, 1 << -e)


def float_exact_value(f: FloatValue) -> Fraction:
    """A finite float is the rational sign * m * 2^e, exactly."""
    from fractions import Fraction
    if f.kind == KIND_INFINITE:
        raise ValueError("an infinity has no rational value")
    return Fraction(*_float_ratio(f.sign, f.significand, f.exponent))


_POSITIONAL = re.compile(r"(-?)(?:([0-9]+)(?:\.([0-9]+))?|inf)")


def positional_order(text: str, sign: int, pair: tuple | None) -> int | None:
    """-1, 0 or 1 as positional text (-?digits[.digits], inf or -inf; else
    None) lies below, at or above the float sign * m * 2^e of the pair
    (m, e), or None for an infinity: one cross-multiplication of ratios,
    and an infinity ranks by its sign against 0 for any finite value."""
    match = _POSITIONAL.fullmatch(text)
    if match is None:
        return None
    minus, whole, fraction = match.groups("")
    if not whole or pair is None:
        x, y = 0 if whole else -1 if minus else 1, sign if pair is None else 0
    else:
        num, den = _decimal_ratio(-1 if minus else 1, whole + fraction, len(whole))
        fnum, fden = _float_ratio(sign, *pair)
        x, y = num * fden, fnum * den
    return (x > y) - (x < y)


def _shifted_ge(x: int, k: int, y: int) -> bool:
    # x * 2^k >= y with k of either sign; a copy of the converter's helper,
    # kept on purpose so the oracle shares no code with what it checks
    if k >= 0:
        return (x << k) >= y
    return x >= (y << -k)


_ZERO_FIELDS = (KIND_ZERO, 1, 0, 0)


def _reference(num: int, den: int, fmt: FloatFormat) -> tuple[tuple, tuple]:
    """Tightest interval enclosing num/den, for den > 0 and the ratio not
    necessarily reduced, computed the slow, direct way, as the fields
    (kind, sign, m, e) of its lower and upper bound.

    Reads floor(log2 |num/den|) off the bit lengths, floors the magnitude
    onto the format grid with one division (clamped for subnormals), and
    when that floor was inexact steps one unit up on its own: the unit
    past the top of a binade carries into the next one, and past the top
    finite value into infinity. Magnitudes beyond the finite range give
    [max finite, +infinity) and its mirror image.
    """
    if num == 0:
        return _ZERO_FIELDS, _ZERO_FIELDS
    sign = 1 if num > 0 else -1
    a = num * sign
    E = a.bit_length() - den.bit_length()
    if not _shifted_ge(a, -E, den):
        E -= 1
    # now 2^E <= a/den < 2^(E+1)
    p = fmt.significand_bits
    if E > fmt.emax:
        # past the top binade the floor is the top finite value, inexact
        m, e, rem = (1 << p) - 1, fmt.emax - p + 1, 1
    else:
        e = max(E - (p - 1), fmt.least_exponent)
        m, rem = divmod(a, den << e) if e >= 0 else divmod(a << -e, den)
    low = (KIND_NORMAL if m >> (p - 1) else KIND_SUBNORMAL, sign, m, e) if m else _ZERO_FIELDS
    if rem == 0:
        return low, low
    m += 1
    if m >> p:
        m, e = m >> 1, e + 1
    if e > fmt.emax - p + 1:
        high = KIND_INFINITE, sign, 0, 0
    else:
        high = KIND_NORMAL if m >> (p - 1) else KIND_SUBNORMAL, sign, m, e
    return (low, high) if sign > 0 else (high, low)


def narrowest_interval_reference(x: Fraction, fmt: FloatFormat) -> FloatInterval:
    """Tightest enclosing interval of the rational x."""
    from fractions import Fraction
    x = Fraction(x)
    bounds = _reference(x.numerator, x.denominator, fmt)
    lb, ub = (ZERO if f[0] == KIND_ZERO else FloatValue(*f) for f in bounds)
    return FloatInterval(lb, ub)


def rational_reference(sign: int, p: int, q: int, fmt: FloatFormat) -> tuple[tuple, tuple]:
    """The bound fields of the tightest enclosing interval of sign * p/q,
    for the fields of a Rational, reduced or not."""
    return _reference(sign * p, q, fmt)


def decimal_reference(
    sign: int, digits: str, exponent: int, fmt: FloatFormat
) -> tuple[tuple, tuple]:
    """The bound fields of the tightest enclosing interval of
    sign * 0.digits * 10^exponent, for the fields of a DecimalScientific
    (its mantissa as text), with exponents far outside the format settled
    before any power of ten is built.

    A nonzero 10^e * 0.m lies in [10^(e-1), 10^e), and 10^10 > 2^33 gives
    10^k >= 2^(3.3k) for every k >= 0. So 3.3(e-1) >= emax + 1 puts the
    magnitude past the top binade, and 3.3e <= least_exponent puts it under
    the smallest subnormal.
    """
    if digits:
        # a power of two from the same region stands in for the value
        if 33 * (exponent - 1) >= 10 * (fmt.emax + 1):
            return _reference(sign << (fmt.emax + 1), 1, fmt)
        if 33 * exponent <= 10 * fmt.least_exponent:
            return _reference(sign, 2 << -fmt.least_exponent, fmt)
    return _reference(*_decimal_ratio(sign, digits, exponent), fmt)


def nearest_float(x: Fraction, fmt: FloatFormat) -> FloatValue:
    """Round to nearest with ties to the even significand."""
    from fractions import Fraction
    x = Fraction(x)
    if x < 0:
        return -nearest_float(-x, fmt)
    interval = narrowest_interval_reference(x, fmt)
    if interval.degenerate:
        return interval.lb
    lo, hi = interval.lb, interval.ub
    if hi.kind == KIND_INFINITE:
        # beyond the top value the next binade's half step decides
        threshold = float_exact_value(fmt.max_finite) + (
            1 << (fmt.emax - fmt.significand_bits)
        )
        return infinity(1) if x >= threshold else fmt.max_finite
    below = x - float_exact_value(lo)
    above = float_exact_value(hi) - x
    if below < above:
        return lo
    if above < below:
        return hi
    return lo if lo.significand % 2 == 0 else hi
