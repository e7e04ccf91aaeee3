"""Decimal numerals and rationals to narrowest enclosing float intervals.

Every enclosure is one floor division. A numeral N * 10^k or a ratio p/q
becomes num/den, its binary exponent comes off the bit lengths, and num/den
divided onto the format's grid gives the lower bound; a nonzero remainder
means the value lies strictly inside the next ulp, so the upper bound is
one step up. Exponents that force overflow or underflow are settled before
any power of ten is built.

The paper's staged route for a numeral 10^e * 0.m stays as the staged
API, off that path: binarize_exponent trades the power of ten for a power
of two, normalize_mantissa doubles the fraction into [1/2, 1), and
mantissa_bits streams out its significand bits. Each stage runs in bulk
on the integer view of the digit string: k doublings are one shift, k
halvings one multiply by 5^k, and the loop counts come straight from bit
lengths. The tests replay the digit-at-a-time loops against these bulk
forms on random inputs.
"""

from __future__ import annotations

import re

from .digitstring import (
    FRACTION,
    DigitString,
    _digit_string,
    _fraction_digits,
    _fraction_int,
    _int_from_digits,
    _require,
)
from .floatkit import (
    ZERO,
    DomainError,
    FloatFormat,
    FloatInterval,
    _float_interval,
    _on_grid,
    _shifted_ge,
)
from .value import Value, _new, slot_setters


class NumeralSyntaxError(ValueError):
    """Numeral text rejected, with the offending position."""

    def __init__(self, text: str, position: int, why: str):
        super().__init__(f"{why} at position {position} in {text!r}")
        self.text = text
        self.position = position


class DecimalScientific(Value):
    """Sign, fraction mantissa, and decimal exponent: sign * 10^e * 0.m.

    The mantissa opens with a nonzero digit, so every nonzero value has
    exactly one representation. Zero is the empty mantissa with exponent 0
    and positive sign.
    """

    __slots__ = _fields = ("sign", "mantissa", "exponent")

    def __new__(cls, sign: int, mantissa: DigitString, exponent: int) -> DecimalScientific:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if mantissa.role != FRACTION:
            raise ValueError("mantissa must be a fraction digit string")
        if mantissa.text:
            if mantissa.text[0] == "0":
                raise ValueError("mantissa must open with a nonzero digit")
        elif (sign, exponent) != (1, 0):
            raise ValueError("zero is stored as sign +1, empty mantissa, exponent 0")
        return cls._of(sign, mantissa, exponent)

    @property
    def is_zero(self) -> bool:
        return not self.mantissa.text


_set_sign, _set_mantissa, _set_exponent = slot_setters(DecimalScientific)


def _decimal_scientific(sign: int, text: str, exponent: int) -> DecimalScientific:
    """DecimalScientific's trusted constructor, from mantissa digits that
    are already canonical: ASCII, opening with a nonzero, no trailing 0."""
    self = _new(DecimalScientific)
    _set_sign(self, sign)
    _set_mantissa(self, _digit_string(text, FRACTION))
    _set_exponent(self, exponent)
    return self


DECIMAL_ZERO = DecimalScientific(1, DigitString("", FRACTION), 0)


class Rational(Value):
    """Signed ratio of nonnegative integers.

    Reduction is not required; conversion tolerates common factors."""

    __slots__ = _fields = ("sign", "p", "q")

    def __new__(cls, sign: int, p: int, q: int) -> Rational:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if q == 0:
            raise DomainError("zero denominator")
        if p < 0 or q < 0:
            raise ValueError("p and q must be nonnegative; use the sign")
        return cls._of(sign, p, q)

    @classmethod
    def from_text(cls, text: str) -> "Rational":
        """Parse p/q or a bare integer, with an optional leading sign.

        An error gives the index in text where the rejected digit run starts."""
        body = text.strip()
        start = len(text) - len(text.lstrip())
        sign = 1
        if body[:1] in ("+", "-"):
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
            start += 1
        num, slash, den = body.partition("/")
        if not num.isascii() or not num.isdigit():
            raise NumeralSyntaxError(text, start, "expected digits")
        if slash:
            if not den.isascii() or not den.isdigit():
                raise NumeralSyntaxError(text, start + len(num) + 1, "expected digits")
            return cls(sign, _int_from_digits(num), _int_from_digits(den))
        return cls(sign, _int_from_digits(num), 1)


_DIGIT_RUN = re.compile("[0-9]*")


def parse_numeral(text: str) -> DecimalScientific:
    """Parse [sign] digits [. digits] [e [sign] digits] into normalized form.

    "12.5e3" becomes (+, 125, 5): the exponent counts digits that sit left
    of the point once the marker is applied. Leading zeros shift the
    exponent down as they drop; an all-zero mantissa collapses to zero.
    """
    i = 0
    n = len(text)
    sign = 1
    if i < n and text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i += 1
    start = i
    i = _DIGIT_RUN.match(text, i).end()
    int_digits = text[start:i]
    frac_digits = ""
    if i < n and text[i] == ".":
        start = i + 1
        i = _DIGIT_RUN.match(text, start).end()
        frac_digits = text[start:i]
    if not int_digits and not frac_digits:
        raise NumeralSyntaxError(text, i, "expected a digit")
    marker_exp = 0
    if i < n and text[i] in "eE":
        i += 1
        esign = 1
        if i < n and text[i] in "+-":
            esign = -1 if text[i] == "-" else 1
            i += 1
        start = i
        i = _DIGIT_RUN.match(text, i).end()
        if start == i:
            raise NumeralSyntaxError(text, i, "expected an exponent digit")
        marker_exp = esign * _int_from_digits(text[start:i])
    if i != n:
        raise NumeralSyntaxError(text, i, "unexpected character")
    # the value is digits * 10^(marker_exp - len(frac_digits)), and the
    # leading zeros that drop carry none of it
    digits = (int_digits + frac_digits).lstrip("0")
    if not digits:
        return DECIMAL_ZERO
    exponent = marker_exp + len(digits) - len(frac_digits)
    # digits opens with a nonzero, so it is canonical once its trailing zeros go
    return _decimal_scientific(sign, digits.rstrip("0"), exponent)


def _log2_floor(p: int, q: int) -> int:
    """floor(log2(p/q)) for positive p and q.

    The bit lengths put p/q in (2^(d-1), 2^(d+1)) for their difference d,
    so one comparison settles which binade it is."""
    E = p.bit_length() - q.bit_length()
    if not _shifted_ge(p, -E, q):
        E -= 1
    return E


def binarize_exponent(m: DigitString, dec_exp: int) -> tuple[DigitString, int]:
    """Trade 10^dec_exp for a binary exponent: returns (m', bin_exp) with
    10^dec_exp * 0.m == 2^bin_exp * 0.m' exactly.

    A negative decimal exponent is paid off by doublings; each carry folds
    back in front of the digits and cancels one power of ten, so the job
    is done after K doublings where K first pushes N * 2^K to n + |e|
    digits. A positive exponent dualizes with halvings: each appends a
    factor 5 and drops one power of ten, finishing when the fraction falls
    under 1, which the halving count reads off directly.

    A positive decimal exponent requires a mantissa with no leading zeros
    (or an empty one); negative exponents take any fraction string.
    """
    _require(m, FRACTION)
    if dec_exp > 0 and m.text[:1] == "0":
        raise ValueError("positive exponents need a mantissa without leading zeros")
    N, n = _fraction_int(m)
    if N == 0 or dec_exp == 0:
        return m, 0
    if dec_exp < 0:
        # the smallest K with N * 2^K >= 10^(n + |e| - 1); N < 10^n makes it positive
        K = -_log2_floor(N, 10 ** (n - dec_exp - 1))
        return _fraction_digits(N << K, n - dec_exp), -K
    # the smallest K with N * 10^dec_exp < 10^n * 2^K
    K = _log2_floor(N * 10**dec_exp, 10**n) + 1
    return _fraction_digits(N * 5**K, n + K - dec_exp), K


def normalize_mantissa(m: DigitString, bin_exp: int) -> tuple[DigitString, int]:
    """Double the nonempty fraction 0.m into [1/2, 1), charging each
    doubling to the binary exponent.

    No carries can appear: the last doubling starts below 1/2."""
    _require(m, FRACTION)
    if not m.text:
        raise ValueError("cannot normalize an empty mantissa")
    N, n = _fraction_int(m)
    K = -1 - _log2_floor(N, 10**n)
    return _fraction_digits(N << K, n), bin_exp - K


def _leading_bits(num: int, den: int, count: int) -> list[int]:
    # the quotient of num * 2^count by den holds the first count bits
    acc = (num << count) // den
    return [(acc >> i) & 1 for i in range(count - 1, -1, -1)]


def fraction_bits(p: int, q: int, count: int) -> list[int]:
    """First `count` binary fraction digits of p/q, which must lie in (0, 1)."""
    if not 0 < p < q:
        raise DomainError(f"{p}/{q} is not inside (0, 1)")
    return _leading_bits(p, q, count)


def mantissa_bits(m: DigitString, count: int) -> list[int]:
    """First `count` binary fraction digits of the fraction 0.m."""
    _require(m, FRACTION)
    N, n = _fraction_int(m)
    return _leading_bits(N, 10**n, count)


def _enclose(sign: int, num: int, den: int, fmt: FloatFormat) -> FloatInterval:
    """Narrowest interval of format values enclosing sign * num/den.

    One division floors num/den onto the format's grid at its binade (the
    subnormal grid below the normal range), and a nonzero remainder puts
    the value strictly inside the next ulp, so the upper bound is one step
    up. Magnitudes beyond the finite range clamp to the top value and
    those under the subnormal grid to zero, both with a remainder.
    """
    if num == 0:
        return _float_interval(ZERO, ZERO)
    p = fmt.significand_bits
    E = _log2_floor(num, den)
    if E > fmt.emax:
        m, e, rem = (1 << p) - 1, fmt.emax - p + 1, 1
    else:
        e = max(E - (p - 1), fmt.least_exponent)
        m, rem = divmod(num, den << e) if e >= 0 else divmod(num << -e, den)
    # m == 0 (all of num > 0 left as the remainder) gives zero
    lb = _on_grid(1, m, e, fmt)
    interval = _float_interval(lb, _on_grid(1, m + 1, e, fmt) if rem else lb)
    return -interval if sign < 0 else interval


def decimal_to_interval(d: DecimalScientific, fmt: FloatFormat) -> FloatInterval:
    """Narrowest interval of format values enclosing the numeral's value:
    degenerate when the value is exact, with an infinite outer bound past
    the finite range and a zero inner bound under the subnormal grid.

    A nonzero mantissa puts the magnitude in [10^(e-1), 10^e). Since
    8^k <= 10^k, a large enough e forces an overflow whatever the digits
    say and a small enough e a value under the subnormal grid; a power of
    two from the same region then stands in for the digits, keeping the
    digit work bounded by the format's own exponent range (zero has e = 0).
    """
    e = d.exponent
    if e > 0 and 3 * (e - 1) >= fmt.emax + 1:
        return _enclose(d.sign, 2 << fmt.emax, 1, fmt)
    if e < 0 and 3 * e <= fmt.least_exponent:
        return _enclose(d.sign, 1, 2 << -fmt.least_exponent, fmt)
    # past those tests |k| is at most the digit count plus the format's
    # decimal exponent range, so no power of ten outgrows the input
    N, n = _fraction_int(d.mantissa)
    k = e - n
    return _enclose(d.sign, N * 10 ** max(k, 0), 10 ** max(-k, 0), fmt)


def rational_to_interval(r: Rational, fmt: FloatFormat) -> FloatInterval:
    """Narrowest enclosing interval for p/q, never forming a decimal."""
    return _enclose(r.sign, r.p, r.q, fmt)
