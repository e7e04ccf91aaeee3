"""Floats back to decimal: exact numerals, outward truncation, brackets.

Every finite binary float has a terminating decimal expansion, and
float_to_exact_decimal writes all of it. Rounding to n digits never needs
it: one division of the binary pair by a power of ten gives the first n
digits and a remainder, and a bound that must move away from zero steps
up one unit when that remainder is nonzero, so containment is never lost.
Interval text factors the digits both bounds share:
0.3333333[13465118408203125,432674407958984375] is an interval whose
bounds agree to seven digits, and [0.9,1] is one whose bounds share no
usable prefix. Each of those text rules lives in floatkit, beside the
record writers that apply them to a bound's fields; the renderers here
apply them to values.
"""

from .digitstring import DigitString
from .floatkit import (
    _BRACKET,
    KIND_INFINITE,
    FloatFormat,
    _cut,
    _hex,
    _infinity_text,
    _outward_digits,
    _positional,
    _step_outward,
)
from .parse import DECIMAL_ZERO, DecimalScientific
from .value import FloatInterval, FloatValue, Value, decompose


class DecimalInfinity(Value):
    """Marker for an interval endpoint beyond the finite range."""

    __slots__ = ()
    _fields = ("sign",)

    def __new__(cls, sign: int) -> "DecimalInfinity":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        return cls._of((sign,))


class BracketRendering(Value):
    """Interval text split into a shared prefix and per-bound tails. The
    prefix form always has a nonempty prefix, so an empty one marks the
    plain [lo,hi] form, whose tails are the whole bounds. Either way text()
    gives the final string, and prefix + tail reproduces each bound's
    numeral exactly."""

    __slots__ = ()
    _fields = ("prefix", "low_tail", "high_tail")

    def __new__(cls, prefix: str, low_tail: str, high_tail: str) -> "BracketRendering":
        return cls._of((prefix, low_tail, high_tail))

    def text(self) -> str:
        return _BRACKET % (self.prefix, self.low_tail, self.high_tail)


def float_to_exact_decimal(f: FloatValue, fmt: FloatFormat) -> DecimalScientific | DecimalInfinity:
    """The terminating decimal expansion of a finite float, normalized, or
    the infinity marker of an infinite one. No digit budget applies: the
    smallest binary64 subnormals take around 750 significant digits."""
    return _to_decimal(f, None, "", fmt)


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


def _to_decimal(
    f: FloatValue, n: int | None, direction: str, fmt: FloatFormat
) -> DecimalScientific | DecimalInfinity:
    """The float as floatkit._decimal_text writes it, as a value or infinity marker."""
    kind, sign, _, _ = f
    if kind == KIND_INFINITE:
        return DecimalInfinity(sign)
    m, e = decompose(f, fmt)
    if m == 0:
        return DECIMAL_ZERO
    digits, exponent = _outward_digits(sign, m, e, n, direction)
    return DecimalScientific(sign, DigitString(digits), exponent)


def interval_to_decimal(
    interval: FloatInterval, n: int, fmt: FloatFormat
) -> tuple[DecimalScientific | DecimalInfinity, DecimalScientific | DecimalInfinity]:
    """Decimal interval enclosing the float interval, at most n digits per
    bound: the lower bound rounds down, the upper up, each straight from its
    binary pair; an infinite endpoint passes through as its marker."""
    if n < 1:
        raise ValueError("need at least one digit")
    return _to_decimal(interval.lb, n, "down", fmt), _to_decimal(interval.ub, n, "up", fmt)


def plain_decimal(d: DecimalScientific | DecimalInfinity) -> str:
    """Positional text with no exponent marker: 0.05, 12.5, 12500, 0."""
    return _text_and_lead(d)[0]


def _text_and_lead(d: DecimalScientific | DecimalInfinity) -> tuple[str, tuple | None]:
    """Positional text and lead of a decimal bound; an infinity has no lead."""
    if isinstance(d, DecimalInfinity):
        return _infinity_text(d.sign), None
    return _positional(d.sign, d.mantissa.text, d.exponent)


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


def hex_significand_rendering(f: FloatValue, fmt: FloatFormat) -> str:
    """Power-of-two exponent with the trailing significand bits in base 16:
    2^(e) * 1.<digits> for a normal and 2^(emin) * 0.<digits> for a
    subnormal, the t = p - 1 trailing bits in (t + 3) // 4 hex digits (a
    binary32 has a digit 0-7 and five more, as in 2^(-2) * 1.2aaaab, a
    binary64 thirteen). Zero prints as 0 and the infinities as inf and -inf."""
    if f.kind == KIND_INFINITE:
        return _infinity_text(f.sign)
    return _hex(f.sign, *decompose(f, fmt), fmt)


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
