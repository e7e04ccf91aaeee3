"""Exact arithmetic on strings of decimal digits.

Radix conversion needs decimal arithmetic that never rounds: mul2, div2
and double_integer double and halve numerals digit by digit, carries and
borrows done by hand. They are the paper's reference, which the tests
replay against staged, and share no code with the converter. A DigitString
holds the digits of either a pure fraction 0.d1d2...dn or an unsigned
integer d1d2...dn. Zero is the empty string in both roles.

Canonical form keeps the value/representation map one to one: a fraction
never ends in 0, an integer never starts with 0. A fraction may still
begin with zeros (0.05 is the two digits 0 and 5); those carry value.
"""

from collections.abc import Iterable

from .value import Value

FRACTION = "fraction"
INTEGER = "integer"

_ROLES = (FRACTION, INTEGER)


class DigitString(Value):
    """Digits of a pure decimal fraction or an unsigned decimal integer.

    The tuple (text, role), the digits kept as ASCII text; a tuple or list
    of ints is accepted too and turned into text on construction. len()
    counts the digits, while iteration yields the two fields."""

    __slots__ = ()
    _fields = ("text", "role")

    def __new__(cls, text: str | Iterable[int], role: str = FRACTION) -> "DigitString":
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
        return cls._of((text, role))

    @property
    def digits(self) -> tuple[int, ...]:
        """The digits as a tuple of ints."""
        return tuple(map(int, self.text))

    @classmethod
    def fraction(cls, digits: str | Iterable[int]) -> "DigitString":
        """Build a fraction string, dropping trailing zeros."""
        return cls(_digit_text(digits).rstrip("0"), FRACTION)

    @classmethod
    def integer(cls, digits: str | Iterable[int]) -> "DigitString":
        """Build an integer string, dropping leading zeros."""
        return cls(_digit_text(digits).lstrip("0"), INTEGER)

    def __str__(self) -> str:
        return self.text or "(empty)"

    def __len__(self) -> int:
        return len(self.text)


def _digit_text(digits: str | Iterable[int]) -> str:
    # a text passes as it is; an int in 0..9 lands on its ASCII digit and any
    # other off '0'..'9'; an iterator is read once, so an error can name it
    if isinstance(digits, str):
        return digits
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


def _doubled(m: DigitString, role: str) -> tuple[list[int], int]:
    """The digits of 2 * m, as many as m has, and the carry out of the first,
    worked right to left with each digit passing its overflow one up."""
    _require(m, role)
    out = []
    carry = 0
    for d in reversed(m.digits):
        dd = 2 * d + carry
        out.append(dd % 10)
        carry = dd // 10
    out.reverse()
    return out, carry


def mul2(m: DigitString) -> tuple[DigitString, int]:
    """Double a fraction: return (digits of 2 * 0.m mod 1, integral carry).

    At most one trailing zero can appear (only a final 5 doubles to 0) and
    it is dropped to keep the result canonical.
    """
    out, carry = _doubled(m, FRACTION)
    if out and out[-1] == 0:
        out.pop()
    return DigitString(out, FRACTION), carry


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
    out, carry = _doubled(m, INTEGER)
    return DigitString([carry, *out] if carry else out, INTEGER)
