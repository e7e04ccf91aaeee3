"""Floating-point values as exact integer pairs.

A format is the triple (significand bits, minimum exponent, maximum
exponent); a datum is sign * m * 2^e with m and e plain Python integers,
a FloatValue the tuple of fields (kind, sign, m, e) the kernels carry.
Every operation here is exact integer arithmetic and nothing depends on
the host float type. Adapters to interchange bit patterns live at the
edge and double as an independent cross check in the tests.
"""

from __future__ import annotations

import math

from .value import Value

KIND_ZERO = "zero"
KIND_SUBNORMAL = "subnormal"
KIND_NORMAL = "normal"
KIND_INFINITE = "infinity"


class DomainError(ValueError):
    """Input outside an operation's domain (NaN patterns, zero denominators)."""


class NotRepresentable(DomainError):
    """An exact value the requested format cannot hold."""


class FloatFormat:
    """Binary format parameters: p significand bits, exponents in [emin, emax].

    The derived constants are computed once, when the format is built, and
    kept in slots, the fastest attribute read for the records. Equality,
    hash, repr and pickling follow the three parameters."""

    _fields = ("significand_bits", "emin", "emax")
    __slots__ = _fields + (
        "least_exponent", "exponent_field_bits", "bit_width",
        "max_finite", "smallest_subnormal", "_params",
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
        self = super().__new__(cls)
        values = (p, emin, emax, least, field_bits, width, top, bottom, (p, emin, emax))
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self._params == other._params

    def __hash__(self) -> int:
        return hash(self._params)

    def __repr__(self) -> str:
        return "FloatFormat(significand_bits=%r, emin=%r, emax=%r)" % self._params

    def __reduce__(self) -> tuple:
        return FloatFormat, self._params  # copy and pickle rebuild through __new__

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


# the one zero, which FloatValue returns for the zero fields once it exists
ZERO = None


class FloatValue(Value):
    """One floating-point datum, the tuple (kind, sign, m, e): sign * m * 2^e.

    Normal values keep 2^(p-1) <= m < 2^p, subnormals share the format's
    least exponent, zero is stored unsigned as (m, e) = (0, 0), and an
    infinity carries no significand at all; the zero fields give ZERO.
    Comparison and equality follow the represented value, so the same
    number in two formats compares equal even though its canonical pair
    differs, and a FloatValue compares only with FloatValues.
    """

    __slots__ = ()
    _fields = ("kind", "sign", "significand", "exponent")

    def __new__(cls, kind: str, sign: int, significand: int, exponent: int) -> FloatValue:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if kind == KIND_NORMAL or kind == KIND_SUBNORMAL:
            if significand <= 0:
                raise ValueError("finite nonzero value needs a positive significand")
        elif kind == KIND_ZERO:
            if (sign, significand, exponent) != (1, 0, 0):
                raise ValueError("zero is stored unsigned as m=0, e=0")
            if ZERO is not None:
                return ZERO
        elif kind != KIND_INFINITE:
            raise ValueError(f"unknown kind {kind!r}")
        elif (significand, exponent) != (0, 0):
            raise ValueError("infinity carries no significand")
        return cls._of((kind, sign, significand, exponent))

    @property
    def is_zero(self) -> bool:
        return self.kind == KIND_ZERO

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatValue) and not (_below(self, other) or _below(other, self))

    def __hash__(self) -> int:
        kind, sign, m, e = self
        if kind == KIND_INFINITE:
            return hash((KIND_INFINITE, sign))
        # equal values share the pair whose significand is shifted odd
        if m:
            shift = (m & -m).bit_length() - 1
            m, e = m >> shift, e + shift
        return hash((sign, (m, e)))

    def __lt__(self, other: FloatValue) -> bool:
        return _below(self, other) if isinstance(other, FloatValue) else Value.__lt__(self, other)

    def __le__(self, other: FloatValue) -> bool:
        return not self > other

    def __gt__(self, other: FloatValue) -> bool:
        return _below(other, self) if isinstance(other, FloatValue) else Value.__gt__(self, other)

    def __ge__(self, other: FloatValue) -> bool:
        return not self < other

    def __neg__(self) -> FloatValue:
        kind, sign, m, e = self
        return self if kind == KIND_ZERO else FloatValue(kind, -sign, m, e)

    def __repr__(self) -> str:
        kind, sign, m, e = self
        if kind == KIND_ZERO:
            return "FloatValue(zero)"
        if kind == KIND_INFINITE:
            return f"FloatValue({'+' if sign > 0 else '-'}inf)"
        return f"FloatValue({kind} {'' if sign > 0 else '-'}{m}*2^{e})"


def _below(a: tuple, b: tuple) -> bool:
    """Whether the float with the fields a = (kind, sign, m, e), a FloatValue
    or its bare tuple, lies below the one with the fields b."""
    (kind, sign, m, e), (other_kind, other_sign, n, f) = a, b
    if kind == KIND_INFINITE or other_kind == KIND_INFINITE:
        # an infinity ranks by its sign against 0 for any finite value
        return (sign if kind == KIND_INFINITE else 0) < (
            other_sign if other_kind == KIND_INFINITE else 0
        )
    # signed significands compared at the common exponent
    if e >= f:
        return sign * m << (e - f) < other_sign * n
    return sign * m < other_sign * n << (f - e)


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
    kind, _, m, e = f
    if kind == KIND_INFINITE:
        raise ValueError("cannot decompose an infinity")
    if kind == KIND_ZERO:
        return 0, 0
    p = fmt.significand_bits
    if kind == KIND_NORMAL:
        ok = (1 << (p - 1)) <= m < (1 << p) and fmt.least_exponent <= e <= fmt.emax - p + 1
    else:
        ok = 0 < m < (1 << (p - 1)) and e == fmt.least_exponent
    if not ok:
        raise ValueError(f"{f!r} is not canonical for this format")
    return m, e


_ZERO_FIELDS = (KIND_ZERO, 1, 0, 0)


def _grid_fields(sign: int, m: int, e: int, fmt: FloatFormat) -> tuple[str, int, int, int]:
    """The fields (kind, sign, m, e) of the format value sign * m * 2^e, the
    tuple a FloatValue is, for m * 2^e on the format's grid or one unit past
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


def next_up(x: FloatValue, fmt: FloatFormat) -> FloatValue:
    """Least format value greater than x.

    The top finite value steps to +infinity and zero to the smallest
    subnormal; x itself must be finite.
    """
    kind, sign, _, _ = x
    if kind == KIND_INFINITE:
        raise ValueError("next_up needs a finite value")
    if kind == KIND_ZERO:
        return fmt.smallest_subnormal
    m, e = decompose(x, fmt)
    if sign > 0:
        return FloatValue(*_grid_fields(1, m + 1, e, fmt))
    # negative: one step toward zero; at the bottom of a binade the step
    # lands in the binade below, which has twice the resolution
    if m == 1 << (fmt.significand_bits - 1) and e > fmt.least_exponent:
        m, e = m << 1, e - 1
    return FloatValue(*_grid_fields(-1, m - 1, e, fmt))


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
    return FloatValue(*_bits_fields(pattern, fmt))


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
    """Closed interval between two format values: the tuple (lb, ub)."""

    __slots__ = ()
    _fields = ("lb", "ub")

    def __new__(cls, lb: FloatValue, ub: FloatValue) -> FloatInterval:
        if ub < lb:
            raise ValueError(f"bounds out of order: {lb!r} > {ub!r}")
        return cls._of((lb, ub))

    @property
    def degenerate(self) -> bool:
        return self.lb == self.ub

    def __neg__(self) -> "FloatInterval":
        return FloatInterval(-self.ub, -self.lb)
