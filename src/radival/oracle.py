"""Independent exact-value arithmetic used to cross-check conversions.

Everything here goes through Fraction and deliberately shares none of the
digit-string or bit-streaming machinery; the only common ground is the
format descriptions and the successor function. That keeps disagreement
meaningful: when a differential test trips, exactly one side is wrong.
"""

from __future__ import annotations

from fractions import Fraction

from .floatkit import (
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    ZERO,
    FloatFormat,
    FloatInterval,
    FloatValue,
    infinity,
    next_up,
)
from .parse import DecimalScientific, Rational


def exact_value(d: DecimalScientific) -> Fraction:
    """Value of a normalized decimal as an exact rational."""
    text = d.mantissa.as_text()
    if not text:
        return Fraction(0)
    scale = d.exponent - len(text)
    # int() refuses texts past 4300 digits by default; read in chunks
    N = 0
    for i in range(0, len(text), 4000):
        chunk = text[i : i + 4000]
        N = N * 10 ** len(chunk) + int(chunk)
    N *= d.sign
    if scale >= 0:
        return Fraction(N * 10**scale)
    return Fraction(N, 10**-scale)


def rational_value(r: Rational) -> Fraction:
    return Fraction(r.sign * r.p, r.q)


def float_exact_value(f: FloatValue) -> Fraction:
    """A finite float is the rational sign * m * 2^e, exactly."""
    if f.kind == KIND_INFINITE:
        raise ValueError("an infinity has no rational value")
    m = f.sign * f.significand
    if f.exponent >= 0:
        return Fraction(m << f.exponent)
    return Fraction(m, 1 << -f.exponent)


def _shifted_ge(x: int, k: int, y: int) -> bool:
    # x * 2^k >= y with k of either sign; a copy of the converter's helper,
    # kept on purpose so the oracle shares no code with what it checks
    if k >= 0:
        return (x << k) >= y
    return x >= (y << -k)


def narrowest_interval_reference(x: Fraction, fmt: FloatFormat) -> FloatInterval:
    """Tightest enclosing interval computed the slow, direct way.

    Reads floor(log2 |x|) off the numerator and denominator bit lengths,
    floors |x| onto the format grid with one big division (clamped for
    subnormals), and widens upward only when the floor was inexact.
    Magnitudes beyond the finite range give [max finite, +infinity) and
    its mirror image.
    """
    x = Fraction(x)
    if x == 0:
        return FloatInterval(ZERO, ZERO)
    sign = 1 if x > 0 else -1
    a = abs(x.numerator)
    b = x.denominator
    E = a.bit_length() - b.bit_length()
    if not _shifted_ge(a, -E, b):
        E -= 1
    # now 2^E <= a/b < 2^(E+1)
    p = fmt.significand_bits
    if E > fmt.emax:
        top = FloatInterval(fmt.max_finite, infinity(1))
        return -top if sign < 0 else top
    e = max(E - (p - 1), fmt.least_exponent)
    if e >= 0:
        m, rem = divmod(a, b << e)
    else:
        m, rem = divmod(a << -e, b)
    if m == 0:
        lb = ZERO
    else:
        kind = KIND_NORMAL if m >= 1 << (p - 1) else KIND_SUBNORMAL
        lb = FloatValue(kind, 1, m, e)
    ub = lb if rem == 0 else next_up(lb, fmt)
    interval = FloatInterval(lb, ub)
    return -interval if sign < 0 else interval


def decimal_reference(d: DecimalScientific, fmt: FloatFormat) -> FloatInterval:
    """narrowest_interval_reference of the decimal's exact value, with
    exponents far outside the format settled before any power of ten is
    built.

    A nonzero 10^e * 0.m lies in [10^(e-1), 10^e), and 10^10 > 2^33 gives
    10^k >= 2^(3.3k) for every k >= 0. So 3.3(e-1) >= emax + 1 puts the
    magnitude past the top binade, and 3.3e <= least_exponent puts it under
    the smallest subnormal.
    """
    if d.mantissa.text:
        if 33 * (d.exponent - 1) >= 10 * (fmt.emax + 1):
            top = FloatInterval(fmt.max_finite, infinity(1))
            return -top if d.sign < 0 else top
        if 33 * d.exponent <= 10 * fmt.least_exponent:
            bottom = FloatInterval(ZERO, fmt.smallest_subnormal)
            return -bottom if d.sign < 0 else bottom
    return narrowest_interval_reference(exact_value(d), fmt)


def nearest_float(x: Fraction, fmt: FloatFormat) -> FloatValue:
    """Round to nearest with ties to the even significand."""
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
