"""Exact arithmetic on strings of decimal digits.

Radix conversion needs decimal arithmetic that never rounds: doubling and
halving numerals digit by digit, carries and borrows done by hand. A
DigitString holds the digits of either a pure fraction 0.d1d2...dn or an
unsigned integer d1d2...dn. Zero is the empty string in both roles.

Canonical form keeps the value/representation map one to one: a fraction
never ends in 0, an integer never starts with 0. A fraction may still
begin with zeros (0.05 is the two digits 0 and 5); those carry value.
"""

from __future__ import annotations

from collections.abc import Iterable

from .value import Value, _new, slot_setters

FRACTION = "fraction"
INTEGER = "integer"

_ROLES = (FRACTION, INTEGER)


class DigitString(Value):
    """Digits of a pure decimal fraction or an unsigned decimal integer.

    The digits are kept as ASCII text; a tuple or list of ints is accepted
    too and turned into text on construction."""

    __slots__ = _fields = ("text", "role")

    def __new__(cls, text: str | Iterable[int], role: str = FRACTION) -> DigitString:
        if not isinstance(text, str):
            text = _digit_text(text)
        if role not in _ROLES:
            raise ValueError(f"unknown role {role!r}")
        if text:
            if not (text.isascii() and text.isdigit()):
                raise ValueError(f"not a digit string: {text!r}")
            if role == FRACTION and text[-1] == "0":
                raise ValueError("fraction digit string may not end in 0")
            if role == INTEGER and text[0] == "0":
                raise ValueError("integer digit string may not start with 0")
        return _digit_string(text, role)

    @property
    def digits(self) -> tuple[int, ...]:
        """The digits as a tuple of ints."""
        return tuple(map(int, self.text))

    @classmethod
    def fraction(cls, digits: str | Iterable[int]) -> "DigitString":
        """Build a fraction string, dropping trailing zeros."""
        text = digits if isinstance(digits, str) else _digit_text(digits)
        return cls(text.rstrip("0"), FRACTION)

    @classmethod
    def integer(cls, digits: str | Iterable[int]) -> "DigitString":
        """Build an integer string, dropping leading zeros."""
        text = digits if isinstance(digits, str) else _digit_text(digits)
        return cls(text.lstrip("0"), INTEGER)

    def as_text(self) -> str:
        return self.text

    def __str__(self) -> str:
        return self.text or "(empty)"

    def __len__(self) -> int:
        return len(self.text)


_set_text, _set_role = slot_setters(DigitString)


def _digit_string(text: str, role: str) -> DigitString:
    """DigitString's trusted constructor, for ASCII digits already
    canonical for the role."""
    self = _new(DigitString)
    _set_text(self, text)
    _set_role(self, role)
    return self


def _digit_text(digits: Iterable[int]) -> str:
    # an int in 0..9 lands on its ASCII digit and any other int off '0'..'9';
    # an iterator is read once into a list, so an error can name its digits
    if iter(digits) is digits:
        digits = list(digits)
    try:
        text = bytes(d + 48 for d in digits).decode("ascii")
        if text.isdigit() or not text:
            return text
    except ValueError:
        pass
    raise ValueError(f"digits out of range in {digits!r}")


def _require(m: DigitString, role: str) -> None:
    if m.role != role:
        raise ValueError(f"expected a {role} digit string, got {m.role}")


def mul2(m: DigitString) -> tuple[DigitString, int]:
    """Double a fraction: return (digits of 2 * 0.m mod 1, integral carry).

    Worked right to left, each digit doubling and passing its overflow one
    place up. At most one trailing zero can appear (only a final 5 doubles
    to 0) and it is dropped to keep the result canonical.
    """
    _require(m, FRACTION)
    out = []
    carry = 0
    for d in reversed(m.digits):
        dd = 2 * d + carry
        out.append(dd % 10)
        carry = dd // 10
    out.reverse()
    if out and out[-1] == 0:
        out.pop()
    return DigitString(tuple(out), FRACTION), carry


def div2(m: DigitString) -> DigitString:
    """Halve a fraction exactly.

    An odd last digit extends the string by a final 5, and halving a
    leading 1 puts a 0 in front: div2(0.1) is 0.05. Canonical input never
    yields a trailing zero, so the result needs no stripping.
    """
    _require(m, FRACTION)
    out = []
    rem = 0
    for d in m.digits:
        cur = 10 * rem + d
        out.append(cur // 2)
        rem = cur % 2
    if rem:
        out.append(5)
    return DigitString(tuple(out), FRACTION)


def double_integer(m: DigitString) -> DigitString:
    """Double an unsigned integer, growing by one digit on a final carry."""
    _require(m, INTEGER)
    out = []
    carry = 0
    for d in reversed(m.digits):
        dd = 2 * d + carry
        out.append(dd % 10)
        carry = dd // 10
    if carry:
        out.append(carry)
    out.reverse()
    return DigitString(tuple(out), INTEGER)


# Integer view of a fraction string: d1..dn maps to (d1..dn read as an
# integer, n), value N / 10^n. The conversion modules do their bulk steps
# on this view; the digit-at-a-time operations above stay the reference
# behaviour and the tests replay one against the other.


def _int_from_digits(text: str) -> int:
    """Read a nonempty text of ASCII digits of any length as an integer.

    CPython's int() refuses texts past 4300 digits by default, so longer
    texts split in half and recombine until every piece is under it."""
    if len(text) <= 4000:
        return int(text)
    half = len(text) // 2
    low = text[half:]
    return _int_from_digits(text[:half]) * 10 ** len(low) + _int_from_digits(low)


def _text_from_int(N: int, width: int = 0) -> str:
    """Decimal text of N >= 0, padded with leading zeros to width digits.

    CPython's str() refuses integers past 4300 digits by default, so larger
    ones split at a power of ten about halfway and render each half."""
    if N.bit_length() <= 13000:
        return str(N).rjust(width, "0")
    low = N.bit_length() * 3 // 20
    high, rest = divmod(N, 10**low)
    return _text_from_int(high, width - low) + _text_from_int(rest, low)


def _fraction_int(m: DigitString) -> tuple[int, int]:
    text = m.text
    return (_int_from_digits(text) if text else 0, len(text))


def _fraction_digits(N: int, n: int) -> DigitString:
    """The fraction N / 10^n with N < 10^n; trailing zeros drop."""
    if N == 0:
        return DigitString("", FRACTION)
    return DigitString.fraction(_text_from_int(N, n))
