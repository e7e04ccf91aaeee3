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

from .digitstring import DigitString, _text_from_int
from .floatkit import KIND_INFINITE, FloatFormat, FloatInterval, FloatValue, decompose
from .parse import DECIMAL_ZERO, DecimalScientific
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
    """Interval text split into a shared prefix and per-bound tails. The
    prefix form always has a nonempty prefix, so an empty one marks the
    plain [lo,hi] form, whose tails are the whole bounds. Either way text()
    gives the final string, and prefix + tail reproduces each bound's
    numeral exactly."""

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
    the infinity marker of an infinite one. No digit budget applies: the
    smallest binary64 subnormals take around 750 significant digits."""
    return _to_decimal(f, None, "", fmt)


def _exact_digits(m: int, e: int) -> tuple[str, int]:
    """Canonical mantissa digits and decimal exponent of m * 2^e, m > 0: one
    conversion to text of m * 5^-e (m * 2^e is that over 10^-e when e < 0)."""
    text = _text_from_int(m << e) if e >= 0 else _text_from_int(m * 5**-e)
    # m > 0, so the text opens with a nonzero digit
    return text.rstrip("0"), len(text) + min(e, 0)


def truncate_directed(
    d: DecimalScientific | DecimalInfinity, n: int, direction: str
) -> DecimalScientific | DecimalInfinity:
    """Round to at most n mantissa digits toward the named direction:
    "down" moves toward -infinity and "up" toward +infinity, so a negative
    numeral drops digits on "up" and rounds them on "down". A run of nines
    carries into a fresh leading 1 and lifts the exponent: 0.999 rounded up
    at one digit is 0.1 * 10^1. Numerals already short enough pass through
    untouched, and so does an infinity marker."""
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
    digits, exponent = _step_outward(d.sign, text[:n], True, d.exponent, direction)
    return DecimalScientific(d.sign, DigitString(digits), exponent)


def _step_outward(
    sign: int, digits: str, inexact: int, exponent: int, direction: str
) -> tuple[str, int]:
    """Canonical digits and exponent of sign * 0.digits * 10^exponent, the
    digits the first n of a value (opening nonzero), rounded toward the named
    direction: when digits were dropped (inexact nonzero) and the direction
    points away from zero, trailing nines go and the digit before them rises,
    and n nines carry to 0.1 * 10^(exponent + 1)."""
    if inexact and (direction == "up") == (sign > 0):
        digits = digits.rstrip("9")
        if not digits:
            return "1", exponent + 1
        digits = digits[:-1] + chr(ord(digits[-1]) + 1)
    return digits.rstrip("0"), exponent


def _to_decimal(
    f: FloatValue, n: int | None, direction: str, fmt: FloatFormat
) -> DecimalScientific | DecimalInfinity:
    """The float as _decimal_text writes it, as a value or infinity marker."""
    if f.kind == KIND_INFINITE:
        return DecimalInfinity(f.sign)
    m, e = decompose(f, fmt)
    if m == 0:
        return DECIMAL_ZERO
    digits, exponent = _outward_digits(f.sign, m, e, n, direction)
    return DecimalScientific(f.sign, DigitString(digits), exponent)


def _outward_digits(sign: int, m: int, e: int, n: int, direction: str) -> tuple[str, int]:
    """Canonical digits and decimal exponent of sign * m * 2^e, m > 0, whole
    when n is None, else rounded to n digits toward the named direction.

    With x = m * 2^e in [2^(b-1), 2^b), b = bitlen(m) + e, the decimal
    exponent E of x = 0.d1d2... * 10^E is ceil(b * log10 2) or one less,
    so one divmod of x * 10^(n-E) by the estimate yields n digits or, when
    the estimate was one too high, n - 1 of them and a remainder from
    which one more digit follows. A nonzero final remainder means digits
    were dropped, and only then does rounding away from zero add one.
    The exact expansion has at most E - min(e, 0) digits, so a larger
    budget gives that expansion itself."""
    if n is None:
        return _exact_digits(m, e)
    exponent = math.ceil((m.bit_length() + e) * _LOG10_2)
    # n > max(E, E - e), tested without calls on the per-bound path
    if n > exponent and n > exponent - e:
        return _exact_digits(m, e)
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
    return _step_outward(sign, _text_from_int(q), r, exponent, direction)


def interval_to_decimal(
    interval: FloatInterval, n: int, fmt: FloatFormat
) -> tuple[DecimalScientific | DecimalInfinity, DecimalScientific | DecimalInfinity]:
    """Decimal interval enclosing the float interval, at most n digits per
    bound: the lower bound rounds down, the upper up, each straight from its
    binary pair; an infinite endpoint passes through as its marker."""
    if n < 1:
        raise ValueError("need at least one digit")
    return _to_decimal(interval.lb, n, "down", fmt), _to_decimal(interval.ub, n, "up", fmt)


def outward_fields(low: tuple, high: tuple, n: int) -> tuple[str, str, str]:
    """What interval_to_decimal and bracket_notation give for the float
    interval from low to high, each bound the fields (kind, sign, m, e) of
    a format value: lo, hi and bracket, with no value built."""
    if n < 1:
        raise ValueError("need at least one digit")
    lo, lo_lead = _decimal_text(low, n, "down")
    hi, hi_lead = _decimal_text(high, n, "up")
    return lo, hi, _BRACKET % _cut(lo, hi, lo_lead, hi_lead)


def exact_field(bound: tuple) -> str:
    """plain_decimal of float_to_exact_decimal for a bound as outward_fields takes it."""
    return _decimal_text(bound, None, "")[0]


def _decimal_text(bound: tuple, n: int | None, direction: str) -> tuple:
    """Positional text and lead of a bound, rounded toward the named
    direction to n digits, or whole when n is None."""
    kind, sign, m, e = bound
    if kind == KIND_INFINITE:
        return _infinity_text(sign), None
    if not m:
        return _positional(sign, "", 0)
    return _positional(sign, *_outward_digits(sign, m, e, n, direction))


def plain_decimal(d: DecimalScientific | DecimalInfinity) -> str:
    """Positional text with no exponent marker: 0.05, 12.5, 12500, 0."""
    return _text_and_lead(d)[0]


def _text_and_lead(d: DecimalScientific | DecimalInfinity) -> tuple[str, tuple | None]:
    """Positional text and lead of a decimal bound; an infinity has no lead."""
    if isinstance(d, DecimalInfinity):
        return _infinity_text(d.sign), None
    return _positional(d.sign, d.mantissa.text, d.exponent)


def _positional(sign: int, digits: str, e: int) -> tuple[str, tuple[int, int, str]]:
    """Positional text of sign * 10^e * 0.digits, canonical digits, and its
    lead, what two finite bounds must share for a bracket prefix: sign,
    decimal exponent and opening digit. Zero's lead is (sign, 0, "")."""
    lead = sign, e, digits[:1]
    if not digits:
        return "0", lead
    sign = "" if sign > 0 else "-"
    if e <= 0:
        return f"{sign}0.{'0' * -e}{digits}", lead
    if e >= len(digits):
        return f"{sign}{digits}{'0' * (e - len(digits))}", lead
    return f"{sign}{digits[:e]}.{digits[e:]}", lead


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
    """Shared-prefix rendering of a decimal interval: when the bounds agree
    in sign, exponent, and opening digit, the common positional prefix is
    factored out and only the differing tails sit in the brackets; equal
    bounds leave the brackets empty. Any disagreement, and any infinite
    bound, falls back to the plain [lo,hi] pair."""
    if _above(lo, hi):
        raise ValueError("bounds out of order")
    (lo_text, lo_lead), (hi_text, hi_lead) = _text_and_lead(lo), _text_and_lead(hi)
    return BracketRendering(*_cut(lo_text, hi_text, lo_lead, hi_lead))


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
    """Power-of-two exponent with the trailing significand bits in base 16:
    2^(e) * 1.<digits> for a normal and 2^(emin) * 0.<digits> for a
    subnormal, the t = p - 1 trailing bits in (t + 3) // 4 hex digits (a
    binary32 has a digit 0-7 and five more, as in 2^(-2) * 1.2aaaab, a
    binary64 thirteen). Zero prints as 0 and the infinities as inf and -inf."""
    if f.kind == KIND_INFINITE:
        return _infinity_text(f.sign)
    return _hex(f.sign, *decompose(f, fmt), fmt)


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
    """Bracket form of an interval's hex significands: the shared prefix
    factors out only when both bounds carry the same power of two, as in
    2^(-2) * 1.2aaaa[a,b], and a degenerate interval shows empty brackets;
    bounds in different binades, and any infinite bound, fall back to the
    plain pair, as in bracket_notation."""
    lo, hi = (hex_significand_rendering(f, fmt) for f in (interval.lb, interval.ub))
    # a finite bound's lead is its text before the point; an infinity has none
    lo_lead, hi_lead = (None if t.endswith("inf") else t.rsplit(".", 1)[0] for t in (lo, hi))
    return _BRACKET % _cut(lo, hi, lo_lead, hi_lead)


def enclosure_fields(lower: tuple, upper: tuple, fmt: FloatFormat) -> tuple[str, ...]:
    """The text of the enclosure from lower to upper, each bound the fields
    (kind, sign, m, e) of a format value as parse._bounds gives them: each
    bound's hex significand and exact decimal, as hex_significand_rendering
    and float_to_exact_decimal give them, then their bracket_notation, with
    no value built. Equal bounds are written once."""
    low = _bound_texts(lower, fmt)
    return _fields(low, low if upper == lower else _bound_texts(upper, fmt))


def numeral_fields(numeral: tuple, lower: tuple, upper: tuple, fmt: FloatFormat) -> tuple[str, ...]:
    """enclosure_fields of the bounds of a numeral's fields (sign, digits,
    exponent). Equal bounds are the numeral's value, so the numeral's
    canonical digits are its one bound's exact decimal and none are made."""
    if lower != upper:
        return enclosure_fields(lower, upper, fmt)
    _, sign, m, e = lower
    bound = _hex(sign, m, e, fmt), *_positional(*numeral)
    return _fields(bound, bound)


def _fields(lb: tuple, ub: tuple) -> tuple[str, str, str, str, str]:
    """The five fields from the texts and leads of both bounds."""
    (lb_hex, lo, lo_lead), (ub_hex, hi, hi_lead) = lb, ub
    return lb_hex, lo, ub_hex, hi, _BRACKET % _cut(lo, hi, lo_lead, hi_lead)


def _bound_texts(bound: tuple, fmt: FloatFormat) -> tuple[str, str, tuple | None]:
    """Hex and positional text of a bound and its lead, from its fields
    (kind, sign, m, e); an infinity has no lead."""
    kind, sign, m, e = bound
    if kind == KIND_INFINITE:
        text = _infinity_text(sign)
        return text, text, None
    digits, exponent = _exact_digits(m, e) if m else ("", 0)
    return (_hex(sign, m, e, fmt), *_positional(sign, digits, exponent))
