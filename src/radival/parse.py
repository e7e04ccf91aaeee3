"""Decimal numerals and rationals to narrowest enclosing float intervals.

Every enclosure is one floor division. A numeral N * 10^k or a ratio p/q
becomes num/den, its binary exponent comes off the bit lengths, and num/den
divided onto the format's grid gives the lower bound; a nonzero remainder
means the value lies strictly inside the next ulp, so the upper bound is
one step up. Exponents that force overflow or underflow are settled before
any power of ten is built. Those steps, from the text to the two bounds'
fields, live in kernels; this module builds the values and intervals
on them; the paper's staged route lives apart, in staged.
"""

from .digitstring import FRACTION, DigitString
from .floatkit import DomainError, FloatFormat
from .kernels import _bounds, _decimal_floor, _floor, _numeral, _ratio
from .value import FloatInterval, FloatValue, Value


class DecimalScientific(Value):
    """Sign, fraction mantissa, and decimal exponent: sign * 10^e * 0.m.

    The mantissa opens with a nonzero digit, so every nonzero value has
    exactly one representation. Zero is the empty mantissa with exponent 0
    and positive sign.
    """

    __slots__ = ()
    _fields = ("sign", "mantissa", "exponent")

    def __new__(cls, sign: int, mantissa: DigitString, exponent: int) -> "DecimalScientific":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        text = mantissa.text
        if mantissa.role != FRACTION:
            raise ValueError("mantissa must be a fraction digit string")
        if text:
            if text[0] == "0":
                raise ValueError("mantissa must open with a nonzero digit")
        elif (sign, exponent) != (1, 0):
            raise ValueError("zero is stored as sign +1, empty mantissa, exponent 0")
        return cls._of((sign, mantissa, exponent))

    @property
    def is_zero(self) -> bool:
        return not self.mantissa.text


DECIMAL_ZERO = DecimalScientific(1, DigitString("", FRACTION), 0)


class Rational(Value):
    """Signed ratio of nonnegative integers.

    Reduction is not required; conversion tolerates common factors."""

    __slots__ = ()
    _fields = ("sign", "p", "q")

    def __new__(cls, sign: int, p: int, q: int) -> "Rational":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if q == 0:
            raise DomainError("zero denominator")
        if p < 0 or q < 0:
            raise ValueError("p and q must be nonnegative; use the sign")
        return cls._of((sign, p, q))

    @classmethod
    def from_text(cls, text: str) -> "Rational":
        """Parse p/q or a bare integer, with an optional leading sign, from
        the text as given: a blank is refused, as parse_numeral refuses it.
        An error gives the index in text where the rejected digit run starts."""
        return cls(*_ratio(text))


def parse_numeral(text: str) -> DecimalScientific:
    """Parse [sign] digits [. digits] [e [sign] digits] into normalized form,
    by that grammar's one pattern, kernels._NUMERAL.

    "12.5e3" becomes (+, 125, 5): the exponent counts digits that sit left
    of the point once the marker is applied. Leading zeros shift the
    exponent down as they drop; an all-zero mantissa collapses to zero.
    """
    sign, digits, exponent = _numeral(text)
    return DecimalScientific(sign, DigitString(digits), exponent) if digits else DECIMAL_ZERO


def _enclose(sign: int, m: int, e: int, rem: int, fmt: FloatFormat) -> FloatInterval:
    """The narrowest enclosing interval of the value with this grid floor."""
    lower, upper = _bounds(sign, m, e, rem, fmt)
    lb = FloatValue(*lower)
    return FloatInterval(lb, FloatValue(*upper) if rem else lb)


def decimal_to_interval(d: DecimalScientific, fmt: FloatFormat) -> FloatInterval:
    """Narrowest interval of format values enclosing the numeral's value:
    degenerate when the value is exact, with an infinite outer bound past
    the finite range and a zero inner bound under the subnormal grid.

    A nonzero mantissa puts the magnitude in [10^(e-1), 10^e). Since
    8^k <= 10^k, a large enough e forces an overflow whatever the digits
    say and a small enough e a value under the subnormal grid; a power of
    two from the same region then stands in for the digits. Each format
    value is a multiple of 2^L = 5^-L * 10^L (L the least exponent), so a
    tail past the 10^L place, nonzero in a canonical mantissa, counts as one
    sticky 5, and the digit work is bounded by the format's exponent range.
    """
    sign, m, e, rem = _decimal_floor(d.sign, d.mantissa.text, d.exponent, fmt)
    return _enclose(sign, m, e, rem, fmt)


def rational_to_interval(r: Rational, fmt: FloatFormat) -> FloatInterval:
    """Narrowest enclosing interval for p/q, never forming a decimal."""
    sign, m, e, rem = _floor(r.sign, r.p, r.q, fmt)
    return _enclose(sign, m, e, rem, fmt)
