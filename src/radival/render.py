"""Floats back to decimal: exact numerals, outward truncation, brackets.

Every finite binary float has a terminating decimal expansion, and
float_to_exact_decimal writes all of it. Rounding to n digits never needs
it: one division of the binary pair by a power of ten gives the first n
digits and a remainder, and a bound that must move away from zero steps
up one unit when that remainder is nonzero, so containment is never lost.
Interval text factors the digits both bounds share:
0.3333333[13465118408203125,432674407958984375] is an interval whose
bounds agree to seven digits, and [0.9,1] is one whose bounds share no
usable prefix.
"""

from __future__ import annotations

import math

from .digitstring import _text_from_int
from .floatkit import KIND_INFINITE, FloatFormat, FloatInterval, FloatValue, decompose
from .parse import DECIMAL_ZERO, DecimalScientific, _decimal_scientific
from .value import Value

# b * log10(2) stays more than 1e-6 away from every integer for
# 0 < |b| < 10^5, far beyond any format's binades, so the float product
# lands on the same side of each integer as the exact one
_LOG10_2 = math.log10(2)


class DecimalInfinity(Value):
    """Marker for an interval endpoint beyond the finite range."""

    __slots__ = _fields = ("sign",)

    def __new__(cls, sign: int) -> DecimalInfinity:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        return cls._of(sign)


class BracketRendering(Value):
    """Interval text split into a shared prefix and per-bound tails.

    The prefix form always has a nonempty prefix, so an empty one marks the
    plain [lo,hi] form, whose tails are the whole bounds. Either way text()
    gives the final string, and prefix + tail reproduces each bound's
    numeral exactly.
    """

    __slots__ = _fields = ("prefix", "low_tail", "high_tail")

    def __new__(cls, prefix: str, low_tail: str, high_tail: str) -> BracketRendering:
        return cls._of(prefix, low_tail, high_tail)

    def text(self) -> str:
        return _BRACKET % (self.prefix, self.low_tail, self.high_tail)


_BRACKET = "%s[%s,%s]"


def _infinity_text(sign: int) -> str:
    return "inf" if sign > 0 else "-inf"


def float_to_exact_decimal(f: FloatValue, fmt: FloatFormat) -> DecimalScientific | DecimalInfinity:
    """The terminating decimal expansion of a finite float, normalized, or
    the infinity marker of an infinite one.

    No digit budget applies: the smallest binary64 subnormals take around
    750 significant digits and all of them are produced. One big-integer
    product gives them all: m * 2^e is m * 5^-e / 10^-e when e < 0, and
    one conversion of it to text writes every digit, however many.
    """
    if f.kind == KIND_INFINITE:
        return DecimalInfinity(f.sign)
    m, e = decompose(f, fmt)
    if m == 0:
        return DECIMAL_ZERO
    return _decimal_scientific(f.sign, *_exact_digits(m, e))


def _exact_digits(m: int, e: int) -> tuple[str, int]:
    """Canonical mantissa digits and decimal exponent of m * 2^e, m > 0."""
    text = _text_from_int(m << e) if e >= 0 else _text_from_int(m * 5**-e)
    # m > 0, so the text opens with a nonzero digit
    return text.rstrip("0"), len(text) + min(e, 0)


def truncate_directed(
    d: DecimalScientific | DecimalInfinity, n: int, direction: str
) -> DecimalScientific | DecimalInfinity:
    """Round to at most n mantissa digits toward the named direction.

    "down" moves toward -infinity and "up" toward +infinity, so a negative
    numeral drops digits on "up" and rounds them on "down". Rounding a run
    of nines carries into a fresh leading 1 and lifts the exponent: 0.999
    rounded up at one digit is 0.1 * 10^1. Numerals already short enough
    pass through untouched, and so does an infinity marker.
    """
    if direction not in ("down", "up"):
        raise ValueError(f"unknown direction {direction!r}")
    if n < 1:
        raise ValueError("need at least one digit")
    if isinstance(d, DecimalInfinity):
        return d
    text = d.mantissa.text
    if len(text) <= n:
        return d
    # a canonical mantissa never ends in 0, so the dropped tail is nonzero
    return _step_outward(d.sign, text[:n], True, d.exponent, direction)


def _step_outward(
    sign: int, digits: str, inexact: int, exponent: int, direction: str
) -> DecimalScientific:
    """sign * 0.digits * 10^exponent, digits the first n digits of a value
    (the first of them nonzero), rounded toward the named direction. When
    digits were dropped (inexact is nonzero) and the direction points away
    from zero, the kept digits rise one unit: trailing nines go and the
    digit before them rises, and n nines carry to 0.1 * 10^(exponent + 1)."""
    if inexact and (direction == "up") == (sign > 0):
        digits = digits.rstrip("9")
        if not digits:
            return _decimal_scientific(sign, "1", exponent + 1)
        digits = digits[:-1] + chr(ord(digits[-1]) + 1)
    return _decimal_scientific(sign, digits.rstrip("0"), exponent)


def _round_outward(
    f: FloatValue, n: int, direction: str, fmt: FloatFormat
) -> DecimalScientific | DecimalInfinity:
    """The n-digit rounding of a float toward the named direction, from its
    pair (m, e) alone: the digits past the n-th are never formed. An
    infinity needs no digits and gives its marker.

    With x = m * 2^e in [2^(b-1), 2^b), b = bitlen(m) + e, the decimal
    exponent E of x = 0.d1d2... * 10^E is ceil(b * log10 2) or one less,
    so one divmod of x * 10^(n-E) by the estimate yields n digits or, when
    the estimate was one too high, n - 1 of them and a remainder from
    which one more digit follows. A nonzero final remainder means digits
    were dropped, and only then does rounding away from zero add one.
    The exact expansion has at most E - min(e, 0) digits, so a larger
    budget gives that expansion itself.
    """
    if n < 1:
        raise ValueError("need at least one digit")
    if f.kind == KIND_INFINITE:
        return DecimalInfinity(f.sign)
    m, e = decompose(f, fmt)
    if m == 0:
        return DECIMAL_ZERO
    exponent = math.ceil((m.bit_length() + e) * _LOG10_2)
    # n > max(E, E - e), tested without calls on the per-bound path
    if n > exponent and n > exponent - e:
        return float_to_exact_decimal(f, fmt)
    num, den = (m << e, 1) if e >= 0 else (m, 1 << -e)
    shift = n - exponent
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    q, r = divmod(num, den)
    if q < 10 ** (n - 1):
        exponent -= 1
        digit, r = divmod(10 * r, den)
        q = 10 * q + digit
    # 10^(n-1) <= q < 10^n, so the text opens with a nonzero digit
    return _step_outward(f.sign, _text_from_int(q), r, exponent, direction)


def interval_to_decimal(
    interval: FloatInterval, n: int, fmt: FloatFormat
) -> tuple[DecimalScientific | DecimalInfinity, DecimalScientific | DecimalInfinity]:
    """Decimal interval enclosing the float interval, at most n digits per
    bound: the lower bound rounds downward, the upper upward, each straight
    from its binary pair. Infinite endpoints pass through as infinity
    markers."""
    return _round_outward(interval.lb, n, "down", fmt), _round_outward(interval.ub, n, "up", fmt)


def plain_decimal(d: DecimalScientific | DecimalInfinity) -> str:
    """Positional text with no exponent marker: 0.05, 12.5, 12500, 0."""
    return _text_and_lead(d)[0]


def _text_and_lead(d: DecimalScientific | DecimalInfinity) -> tuple[str, tuple | None]:
    """Positional text and lead of a decimal bound; an infinity has no lead."""
    if isinstance(d, DecimalInfinity):
        return _infinity_text(d.sign), None
    digits, exponent = d.mantissa.text, d.exponent
    return _positional(d.sign, digits, exponent), _lead(d.sign, digits, exponent)


def _positional(sign: int, digits: str, e: int) -> str:
    """Positional text of sign * 10^e * 0.digits, canonical digits."""
    if not digits:
        return "0"
    sign = "" if sign > 0 else "-"
    if e <= 0:
        return f"{sign}0.{'0' * -e}{digits}"
    if e >= len(digits):
        return f"{sign}{digits}{'0' * (e - len(digits))}"
    return f"{sign}{digits[:e]}.{digits[e:]}"


def _above(a: DecimalScientific | DecimalInfinity, b: DecimalScientific | DecimalInfinity) -> bool:
    """Whether a lies above b in exact value. Each ranks -2 as -inf, -1
    below zero, 0 as zero, 1 above zero and 2 as +inf, and decimals of one
    sign then order by exponent and digits."""
    ra = 2 * a.sign if isinstance(a, DecimalInfinity) else 0 if a.is_zero else a.sign
    rb = 2 * b.sign if isinstance(b, DecimalInfinity) else 0 if b.is_zero else b.sign
    if ra != rb or ra not in (1, -1):
        return ra > rb
    # a canonical mantissa never ends in 0, so text order is magnitude order
    x, y = (a.exponent, a.mantissa.text), (b.exponent, b.mantissa.text)
    return x > y if ra > 0 else x < y


def bracket_notation(
    lo: DecimalScientific | DecimalInfinity, hi: DecimalScientific | DecimalInfinity
) -> BracketRendering:
    """Shared-prefix rendering of a decimal interval.

    When the bounds agree in sign, exponent, and opening digit, the common
    positional prefix is factored out and only the differing tails sit in
    the brackets; equal bounds leave the brackets empty. Any disagreement,
    and any infinite bound, falls back to the plain [lo,hi] pair.
    """
    if _above(lo, hi):
        raise ValueError("bounds out of order")
    (lo_text, lo_lead), (hi_text, hi_lead) = _text_and_lead(lo), _text_and_lead(hi)
    return BracketRendering(*_cut(lo_text, hi_text, lo_lead, hi_lead))


def _lead(sign: int, digits: str, exponent: int) -> tuple[int, int, str]:
    """What two finite bounds must have in common to share a bracket
    prefix: sign, decimal exponent and opening digit. Zero, at exponent 0
    with no digits, has the lead (sign, 0, "")."""
    return sign, exponent, digits[:1]


def _cut(lo_text: str, hi_text: str, lo_lead: object, hi_lead: object) -> tuple[str, str, str]:
    """Prefix and tails of the bracket of two bounds' texts, the one choice
    between the prefix form and the plain pair. An infinite bound has the
    lead None and shares no prefix, even with the same infinity. Bounds
    with the same lead split at their common prefix, so equal texts go
    whole into the prefix, and any other pair keeps its texts whole as
    the tails."""
    if lo_lead is None or lo_lead != hi_lead:
        return "", lo_text, hi_text
    k = len(lo_text) if lo_text == hi_text else _shared_prefix_length(lo_text, hi_text)
    return lo_text[:k], lo_text[k:], hi_text[k:]


def _shared_prefix_length(a: str, b: str) -> int:
    """Length of the longest common prefix of two ASCII texts.

    Read as big-endian integers, the first n bytes of each differ first in
    the highest byte their XOR sets, so the bytes below it count what
    follows the prefix: one XOR at C speed, with no Python step per
    character.
    """
    n = min(len(a), len(b))
    x = int.from_bytes(a[:n].encode(), "big") ^ int.from_bytes(b[:n].encode(), "big")
    return n - (x.bit_length() + 7) // 8


def hex_significand_rendering(f: FloatValue, fmt: FloatFormat) -> str:
    """Power-of-two exponent with the trailing significand bits in base 16.

    A normal value prints as 2^(e) * 1.<digits> and a subnormal as
    2^(emin) * 0.<digits>, the t = p - 1 trailing bits filling (t + 3) // 4
    hex digits: a binary32 opens with a digit 0-7 and five more, as in
    2^(-2) * 1.2aaaab, and a binary64 has exactly thirteen. Zero prints
    as 0 and the infinities as inf and -inf.
    """
    if f.kind == KIND_INFINITE:
        return _infinity_text(f.sign)
    m, e = decompose(f, fmt)
    return _hex(f.sign, m, e, fmt)


def _hex(sign: int, m: int, e: int, fmt: FloatFormat) -> str:
    """Hex significand text of the canonical pair sign * m * 2^e."""
    if m == 0:
        return "0"
    t = fmt.significand_bits - 1
    sign = "" if sign > 0 else "-"
    # the leading bit m >> t is 1 for a normal and 0 for a subnormal, whose
    # exponent e + t is emin
    return "%s2^(%d) * %d.%0*x" % (sign, e + t, m >> t, (t + 3) // 4, m & ((1 << t) - 1))


def hex_significand_bracket(interval: FloatInterval, fmt: FloatFormat) -> str:
    """Bracket form of an interval's hex significands.

    The shared prefix factors out only when both bounds carry the same
    power of two: 2^(-2) * 1.2aaaa[a,b]. A degenerate interval shows empty
    brackets; bounds in different binades, and any infinite bound, fall
    back to the plain pair, as in bracket_notation.
    """
    lo, hi = (hex_significand_rendering(f, fmt) for f in (interval.lb, interval.ub))
    # a finite bound's lead is its text before the point
    lo_lead, hi_lead = (
        None if f.kind == KIND_INFINITE else text.rsplit(".", 1)[0]
        for f, text in ((interval.lb, lo), (interval.ub, hi))
    )
    return _BRACKET % _cut(lo, hi, lo_lead, hi_lead)


def enclosure_fields(interval: FloatInterval, fmt: FloatFormat) -> tuple[str, str, str, str, str]:
    """The text of an enclosure: each bound's hex significand and exact
    decimal, then the bracket of the pair.

    The fields are those that hex_significand_rendering, and bracket_notation
    over float_to_exact_decimal, give for the same interval. Each finite
    bound is checked against fmt once and written straight from its pair,
    with no decimal value in between.
    """
    lb_hex, lo, lo_lead = _bound_texts(interval.lb, fmt)
    ub_hex, hi, hi_lead = _bound_texts(interval.ub, fmt)
    return lb_hex, lo, ub_hex, hi, _BRACKET % _cut(lo, hi, lo_lead, hi_lead)


def _bound_texts(f: FloatValue, fmt: FloatFormat) -> tuple[str, str, tuple | None]:
    """Hex and positional text of one bound, and its lead (None for an
    infinity)."""
    if f.kind == KIND_INFINITE:
        text = _infinity_text(f.sign)
        return text, text, None
    m, e = decompose(f, fmt)
    digits, exponent = _exact_digits(m, e) if m else ("", 0)
    lead = _lead(f.sign, digits, exponent)
    return _hex(f.sign, m, e, fmt), _positional(f.sign, digits, exponent), lead
