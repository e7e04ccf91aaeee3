"""The immutable value classes' base, and the float values built on it.

A value is the tuple of the fields its class names in _fields, each read
by name through namedtuple's C-level getter. A subclass's __new__ checks
the arguments and ends in _of, the one place an instance is filled, and
copy and pickle rebuild through it. A value equals only a value of its
class with equal fields, never the bare tuple of them, and has no order.

FloatValue is the tuple of fields (kind, sign, m, e) for sign * m * 2^e
that a record carries for a bound, FloatInterval a pair of them. With
them live the operations on built values: decompose, next_up, the bit
codec (to_bits, from_bits) and the host float adapter. They rest on
floatkit's formats, float order (_below) and bit decoder (_bits_fields),
and next_up on floatkit._bounds, which the filter records use without
this module: no filter record builds a value, so a launch never loads it.
"""

import math
from collections import _tuplegetter

from .floatkit import (
    _ZERO_FIELDS,
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    KIND_ZERO,
    FloatFormat,
    _below,
    _bits_fields,
    _bounds,
)


def _unordered(self: "Value", other: object) -> bool:
    raise TypeError(f"no order between {type(self).__name__} and {type(other).__name__}")


class Value(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for index, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, _tuplegetter(index, None))

    # cls._of(fields) is the instance holding the tuple of fields: the last
    # step of a __new__, once the arguments are checked
    _of = classmethod(tuple.__new__)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)  # copy and pickle rebuild through __new__


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

    def __new__(cls, kind: str, sign: int, significand: int, exponent: int) -> "FloatValue":
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

    def __lt__(self, other: "FloatValue") -> bool:
        return _below(self, other) if isinstance(other, FloatValue) else Value.__lt__(self, other)

    def __le__(self, other: "FloatValue") -> bool:
        return not self > other

    def __gt__(self, other: "FloatValue") -> bool:
        return _below(other, self) if isinstance(other, FloatValue) else Value.__gt__(self, other)

    def __ge__(self, other: "FloatValue") -> bool:
        return not self < other

    def __neg__(self) -> "FloatValue":
        kind, sign, m, e = self
        return self if kind == KIND_ZERO else FloatValue(kind, -sign, m, e)

    def __repr__(self) -> str:
        kind, sign, m, e = self
        if kind == KIND_ZERO:
            return "FloatValue(zero)"
        if kind == KIND_INFINITE:
            return f"FloatValue({'+' if sign > 0 else '-'}inf)"
        return f"FloatValue({kind} {'' if sign > 0 else '-'}{m}*2^{e})"


ZERO = FloatValue(*_ZERO_FIELDS)


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


def next_up(x: FloatValue, fmt: FloatFormat) -> FloatValue:
    """Least format value greater than x.

    The top finite value steps to +infinity and zero to the smallest
    subnormal; x itself must be finite. floatkit._bounds takes the step, up
    from a positive x and, as an exact floor, toward zero from a negative one.
    """
    kind, sign, _, _ = x
    if kind == KIND_INFINITE:
        raise ValueError("next_up needs a finite value")
    if kind == KIND_ZERO:
        return fmt.smallest_subnormal
    m, e = decompose(x, fmt)
    if sign > 0:
        return FloatValue(*_bounds(1, m, e, 1, fmt)[1])
    # negative: one step toward zero; at the bottom of a binade the step
    # lands in the binade below, which has twice the resolution
    if m == 1 << (fmt.significand_bits - 1) and e > fmt.least_exponent:
        m, e = m << 1, e - 1
    return FloatValue(*_bounds(-1, m - 1, e, 0, fmt)[0])


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


def as_py_float(x: FloatValue) -> float:
    """The host float closest to x; exact for binary32 and binary64 data."""
    if x.kind == KIND_INFINITE:
        return math.inf if x.sign > 0 else -math.inf
    return math.ldexp(x.sign * x.significand, x.exponent)


class FloatInterval(Value):
    """Closed interval between two format values: the tuple (lb, ub)."""

    __slots__ = ()
    _fields = ("lb", "ub")

    def __new__(cls, lb: FloatValue, ub: FloatValue) -> "FloatInterval":
        if ub < lb:
            raise ValueError(f"bounds out of order: {lb!r} > {ub!r}")
        return cls._of((lb, ub))

    @property
    def degenerate(self) -> bool:
        return self.lb == self.ub

    def __neg__(self) -> "FloatInterval":
        return FloatInterval(-self.ub, -self.lb)
