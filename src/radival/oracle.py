"""Independent exact-value arithmetic used to cross-check conversions.

Everything here is exact arithmetic on integer ratios, with Fraction only
at the public value maps, and deliberately shares none of the converter's
code, its unit step and successor function included; the only common
ground is the format descriptions and the value types. That keeps
disagreement meaningful: when a differential test trips, exactly one side
is wrong. decimal_reference and rational_reference, the entries --check
calls per line, answer in the fields (kind, sign, m, e) of the two bounds
and build no value. The DecimalScientific and Rational that exact_value and
rational_value take are read by their fields alone, so parse, whose
classes they are, is never imported here. narrowest_interval_reference and
nearest_float take an int or a Fraction as given, build no Fraction and
import the value classes they build inside them: a checked line loads no
module but this one. positional_order,
which reads a printed bound back, reads its significant digits and a
scale, the zeros after the point of a text under 1 counting in the scale
alone. Every power of ten a checked line needs, but those that join the
pieces of a long text, is 5^k << k, 5^k from the oracle's own memo of
powers of five (_five_power), kept apart from the converter's.
"""

import re
import sys

from .floatkit import KIND_INFINITE, KIND_NORMAL, KIND_SUBNORMAL, KIND_ZERO, FloatFormat


def _digits_value(digits: str) -> int:
    """The integer a text of ASCII digits spells, 0 for no digits. Past 4000
    digits, or past a lower int() digit limit, pieces of the lesser width
    from the right end join in pairs, widths doubling: balanced products."""
    if len(digits) <= 4000:
        try:
            return int(digits or "0")
        except ValueError:
            pass
    # CPython before 3.10.7 has neither limit nor query: int() gives 0, no limit
    width = min(getattr(sys, "get_int_max_str_digits", int)() or 4000, 4000)
    pieces = [int(digits[max(i - width, 0) : i]) for i in range(len(digits), 0, -width)]
    while len(pieces) > 1:
        scale = 10**width
        joined = [low + high * scale for low, high in zip(pieces[::2], pieces[1::2])]
        # an odd count leaves the top piece, the only short one, to the next round
        pieces = joined + pieces[2 * len(joined) :]
        width *= 2
    return pieces[0]


# binary64's least exponent: the exact decimal of a binary32 or binary64
# bound has at most this many digits after the point, so reading one back
# raises no power the memo does not keep; the full memo holds about 240 KB
_FIVES_CAP = 1074
_FIVES: dict[int, int] = {}


def _five_power(k: int) -> int:
    """5^k for k >= 0, memoized up to _FIVES_CAP and raised afresh past it.

    The oracle's own memo, apart from the converter's: it is filled only by
    storing 5^k under k, which gives the same entry whichever thread stores
    it first."""
    try:
        return _FIVES[k]
    except KeyError:
        if k > _FIVES_CAP:
            return 5**k
        power = _FIVES[k] = 5**k
        return power


def _decimal_ratio(sign: int, digits: str, exponent: int) -> tuple[int, int]:
    """sign * 0.digits * 10^exponent, the digits ASCII and empty for zero, as
    a signed numerator over a positive denominator, not reduced; 10^k is
    _five_power(k) << k."""
    N = sign * _digits_value(digits)
    scale = exponent - len(digits)
    if scale >= 0:
        return N * _five_power(scale) << scale, 1
    return N, _five_power(-scale) << -scale


def exact_value(d: "DecimalScientific") -> "Fraction":
    """Value of a normalized decimal as an exact rational."""
    from fractions import Fraction
    return Fraction(*_decimal_ratio(d.sign, d.mantissa.text, d.exponent))


def rational_value(r: "Rational") -> "Fraction":
    from fractions import Fraction
    return Fraction(r.sign * r.p, r.q)


def float_exact_value(f: "FloatValue") -> "Fraction":
    """A finite float is the rational sign * m * 2^e, exactly."""
    from fractions import Fraction
    kind, sign, m, e = f
    if kind == KIND_INFINITE:
        raise ValueError("an infinity has no rational value")
    return Fraction(sign * m << e) if e >= 0 else Fraction(sign * m, 1 << -e)


# -?digits[.digits], with the zeros just after the point apart, or inf
_POSITIONAL = re.compile(r"(-?)(?:([0-9]+)(?:\.(0*)([0-9]+))?|inf)")


def positional_order(text: str, bound: tuple) -> int | None:
    """-1, 0 or 1 as positional text (-?digits[.digits], inf or -inf; else
    None) lies below, at or above the float with the fields bound = (kind,
    sign, m, e); an infinity ranks by its sign against 0 for any finite
    value.

    A finite text is read as N / 10^f, f its digits after the point. Under
    an integer part of "0", N is the digits after the point's zero run
    alone, so a subnormal's few hundred zeros of padding count only in f.
    N * 2^-(e+f) is then set against sign * m * 5^f, 5^f from the memo:
    one product and one shift of whichever side needs it."""
    match = _POSITIONAL.fullmatch(text)
    if match is None:
        return None
    minus, whole, zeros, tail = match.groups("")
    kind, sign, m, e = bound
    infinite = kind == KIND_INFINITE
    if not whole or infinite:
        x, y = 0 if whole else -1 if minus else 1, sign if infinite else 0
    else:
        f = len(zeros) + len(tail)
        x = _digits_value(tail if whole == "0" else whole + zeros + tail)
        if minus:
            x = -x
        y = sign * m * _five_power(f)
        k = -e - f
        if k >= 0:
            x <<= k
        else:
            y <<= -k
    return (x > y) - (x < y)


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
    if (a < den << E) if E >= 0 else (a << -E < den):
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


def narrowest_interval_reference(x: "int | Fraction", fmt: FloatFormat) -> "FloatInterval":
    """Tightest enclosing interval of x, an int or a Fraction, as given."""
    from .value import FloatInterval, FloatValue

    lower, upper = _reference(x.numerator, x.denominator, fmt)
    return FloatInterval(FloatValue(*lower), FloatValue(*upper))


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


def nearest_float(x: "int | Fraction", fmt: FloatFormat) -> "FloatValue":
    """Round x, an int or a Fraction, to nearest, ties to the even significand."""
    from .value import infinity

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
