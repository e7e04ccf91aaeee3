"""Floating-point values as exact integer pairs.

A format is the triple (significand bits, minimum exponent, maximum
exponent); a datum is sign * m * 2^e with m and e plain Python integers.
Every operation here is exact integer arithmetic and nothing depends on
the host float type. Adapters to interchange bit patterns live at the
edge and double as an independent cross check in the tests.
"""

from __future__ import annotations

import functools
import math

from .value import Value

KIND_ZERO = "zero"
KIND_SUBNORMAL = "subnormal"
KIND_NORMAL = "normal"
KIND_INFINITE = "infinity"

_KINDS = (KIND_ZERO, KIND_SUBNORMAL, KIND_NORMAL, KIND_INFINITE)


class DomainError(ValueError):
    """Input outside an operation's domain (NaN patterns, zero denominators)."""


class NotRepresentable(DomainError):
    """An exact value the requested format cannot hold."""


class FloatFormat(Value):
    """Binary format parameters: p significand bits, exponents in [emin, emax].

    The derived constants are computed once, when the format is built."""

    _fields = ("significand_bits", "emin", "emax")
    __slots__ = _fields + (
        "least_exponent", "exponent_field_bits", "bit_width",
        "max_finite", "smallest_subnormal",
    )

    def __new__(cls, significand_bits: int, emin: int, emax: int) -> FloatFormat:
        if significand_bits < 2:
            raise ValueError("need at least two significand bits")
        if emin >= 0 or emax <= 0:
            raise ValueError(f"unusable exponent range [{emin}, {emax}]")
        p = significand_bits
        least = emin - p + 1  # the scaled exponent shared by all subnormals
        field_bits = (emax + 1).bit_length()
        width = 1 + field_bits + p - 1  # sign + exponent field + trailing significand field
        top = FloatValue(KIND_NORMAL, 1, (1 << p) - 1, emax - p + 1)
        bottom = FloatValue(KIND_SUBNORMAL, 1, 1, least)
        return cls._of(p, emin, emax, least, field_bits, width, top, bottom)


@functools.total_ordering
class FloatValue(Value):
    """One floating-point datum: kind, sign, and magnitude m * 2^e.

    Normal values keep 2^(p-1) <= m < 2^p, subnormals share the format's
    least exponent, zero is stored unsigned as (m, e) = (0, 0), and an
    infinity carries no significand at all. Comparison and equality follow
    the represented value, so the same number in two formats compares
    equal even though its canonical pair differs.
    """

    __slots__ = _fields = ("kind", "sign", "significand", "exponent")

    def __new__(cls, kind: str, sign: int, significand: int, exponent: int) -> FloatValue:
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if kind == KIND_ZERO:
            if (sign, significand, exponent) != (1, 0, 0):
                raise ValueError("zero is stored unsigned as m=0, e=0")
        elif kind == KIND_INFINITE:
            if (significand, exponent) != (0, 0):
                raise ValueError("infinity carries no significand")
        elif significand <= 0:
            raise ValueError("finite nonzero value needs a positive significand")
        return cls._of(kind, sign, significand, exponent)

    @property
    def is_zero(self) -> bool:
        return self.kind == KIND_ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloatValue):
            return NotImplemented
        return not (self < other or other < self)

    def __hash__(self) -> int:
        if self.kind == KIND_INFINITE:
            return hash((KIND_INFINITE, self.sign))
        # equal values share the pair whose significand is shifted odd
        m, e = self.significand, self.exponent
        if m:
            shift = (m & -m).bit_length() - 1
            m, e = m >> shift, e + shift
        return hash((self.sign, (m, e)))

    def __lt__(self, other: "FloatValue") -> bool:
        if not isinstance(other, FloatValue):
            return NotImplemented
        return _below(
            (self.kind, self.sign, self.significand, self.exponent),
            (other.kind, other.sign, other.significand, other.exponent),
        )

    def __neg__(self) -> "FloatValue":
        if self.kind == KIND_ZERO:
            return self
        return FloatValue(self.kind, -self.sign, self.significand, self.exponent)

    def __repr__(self) -> str:
        if self.kind == KIND_ZERO:
            return "FloatValue(zero)"
        if self.kind == KIND_INFINITE:
            return f"FloatValue({'+' if self.sign > 0 else '-'}inf)"
        body = f"{self.significand}*2^{self.exponent}"
        return f"FloatValue({self.kind} {'' if self.sign > 0 else '-'}{body})"


def _shifted_ge(x: int, k: int, y: int) -> bool:
    # x * 2^k >= y with k of either sign
    if k >= 0:
        return (x << k) >= y
    return x >= (y << -k)


def _below(a: tuple, b: tuple) -> bool:
    """Whether the float with the fields a = (kind, sign, m, e) lies below
    the one with the fields b."""
    (kind, sign, m, e), (other_kind, other_sign, n, f) = a, b
    if kind == KIND_INFINITE or other_kind == KIND_INFINITE:
        # an infinity ranks by its sign against 0 for any finite value
        return (sign if kind == KIND_INFINITE else 0) < (
            other_sign if other_kind == KIND_INFINITE else 0
        )
    # signed significands compared at the common exponent
    return not _shifted_ge(sign * m, e - f, other_sign * n)


ZERO = FloatValue(KIND_ZERO, 1, 0, 0)
BINARY32 = FloatFormat(24, -126, 127)
BINARY64 = FloatFormat(53, -1022, 1023)


def infinity(sign: int) -> FloatValue:
    return FloatValue(KIND_INFINITE, sign, 0, 0)


def decompose(f: FloatValue, fmt: FloatFormat) -> tuple[int, int]:
    """The canonical pair (m, e) of a finite value in this format.

    Zero decomposes to (0, 0); an infinity has no pair. A value whose pair
    is not canonical for fmt (for instance one built for a wider format)
    is rejected rather than silently re-rounded.
    """
    if f.kind == KIND_INFINITE:
        raise ValueError("cannot decompose an infinity")
    if f.kind == KIND_ZERO:
        return 0, 0
    p = fmt.significand_bits
    m, e = f.significand, f.exponent
    if f.kind == KIND_NORMAL:
        ok = (1 << (p - 1)) <= m < (1 << p) and fmt.least_exponent <= e <= fmt.emax - p + 1
    else:
        ok = 0 < m < (1 << (p - 1)) and e == fmt.least_exponent
    if not ok:
        raise ValueError(f"{f!r} is not canonical for this format")
    return m, e


_ZERO_FIELDS = (KIND_ZERO, 1, 0, 0)


def _grid_fields(sign: int, m: int, e: int, fmt: FloatFormat) -> tuple[str, int, int, int]:
    """The fields (kind, sign, m, e) of the format value sign * m * 2^e, as
    FloatValue holds them, for m * 2^e on the format's grid or one unit past
    the top of its binade: that unit carries into the next binade, and past
    the top finite value into an infinity. m == 0 is zero."""
    p = fmt.significand_bits
    if m == 1 << p:
        m, e = m >> 1, e + 1
        if e > fmt.emax - p + 1:
            return KIND_INFINITE, sign, 0, 0
    if m == 0:
        return _ZERO_FIELDS
    return KIND_NORMAL if m >> (p - 1) else KIND_SUBNORMAL, sign, m, e


def _as_float(fields: tuple[str, int, int, int]) -> FloatValue:
    """The FloatValue with these fields; zero is ZERO."""
    return ZERO if fields[0] == KIND_ZERO else FloatValue(*fields)


def next_up(x: FloatValue, fmt: FloatFormat) -> FloatValue:
    """Least format value greater than x.

    The top finite value steps to +infinity and zero to the smallest
    subnormal; x itself must be finite.
    """
    if x.kind == KIND_INFINITE:
        raise ValueError("next_up needs a finite value")
    if x.kind == KIND_ZERO:
        return fmt.smallest_subnormal
    m, e = decompose(x, fmt)
    if x.sign > 0:
        return _as_float(_grid_fields(1, m + 1, e, fmt))
    # negative: one step toward zero; at the bottom of a binade the step
    # lands in the binade below, which has twice the resolution
    if m == 1 << (fmt.significand_bits - 1) and e > fmt.least_exponent:
        m, e = m << 1, e - 1
    return _as_float(_grid_fields(-1, m - 1, e, fmt))


def to_bits(x: FloatValue, fmt: FloatFormat) -> int:
    """Interchange encoding as an unsigned integer; zero encodes as +0."""
    t = fmt.significand_bits - 1
    if x.kind == KIND_ZERO:
        return 0
    if x.kind == KIND_INFINITE:
        magnitude = ((1 << fmt.exponent_field_bits) - 1) << t
    else:
        m, e = decompose(x, fmt)
        # a normal's field is e + t + emax, less the 1 its leading bit adds
        # back; a subnormal's e + t + emax - 1 is its field of 0
        magnitude = ((e + t + fmt.emax - 1) << t) + m
    return magnitude | (x.sign < 0) << (fmt.bit_width - 1)


def from_bits(pattern: int, fmt: FloatFormat) -> FloatValue:
    """Decode an interchange pattern; NaN patterns are a domain error and
    the negative zero pattern folds onto the unsigned zero."""
    return _as_float(_bits_fields(pattern, fmt))


def _bits_fields(pattern: int, fmt: FloatFormat) -> tuple[str, int, int, int]:
    """from_bits as the fields (kind, sign, m, e), with no value built."""
    t, top = fmt.significand_bits - 1, (1 << fmt.exponent_field_bits) - 1
    if not 0 <= pattern < 1 << fmt.bit_width:
        raise ValueError(f"pattern out of range for a {fmt.bit_width}-bit format")
    sign = -1 if pattern >> (fmt.bit_width - 1) else 1
    field, trailing = (pattern >> t) & top, pattern & ((1 << t) - 1)
    if field == top:
        if trailing:
            raise DomainError("NaN patterns have no value")
        return KIND_INFINITE, sign, 0, 0
    if not field | trailing:
        return _ZERO_FIELDS
    # the inverse of to_bits: a subnormal has field 0 and no leading bit
    kind = KIND_NORMAL if field else KIND_SUBNORMAL
    return kind, sign, (field > 0) << t | trailing, max(field, 1) - fmt.emax - t


def as_py_float(x: FloatValue) -> float:
    """The host float closest to x; exact for binary32 and binary64 data."""
    if x.kind == KIND_INFINITE:
        return math.inf if x.sign > 0 else -math.inf
    return math.ldexp(x.sign * x.significand, x.exponent)


class FloatInterval(Value):
    """Closed interval between two format values, lower bound first."""

    __slots__ = _fields = ("lb", "ub")

    def __new__(cls, lb: FloatValue, ub: FloatValue) -> FloatInterval:
        if ub < lb:
            raise ValueError(f"bounds out of order: {lb!r} > {ub!r}")
        return cls._of(lb, ub)

    @property
    def degenerate(self) -> bool:
        return self.lb == self.ub

    def __neg__(self) -> "FloatInterval":
        return FloatInterval(-self.ub, -self.lb)
