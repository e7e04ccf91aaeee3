"""Binary float formats and the integer field rules the records run on.

A format is the triple (significand bits, minimum exponent, maximum
exponent); a datum is sign * m * 2^e with m and e plain Python integers,
carried as the fields (kind, sign, m, e). This module holds the kinds,
the domain errors, FloatFormat with binary32 and binary64, and the rules
on bare fields: the float order (_below) and the bit decoder
(_bits_fields). The value classes built on those fields, FloatValue and
FloatInterval, live in value with the operations on them, so a filter
launch, which builds no value, loads this module and not that one. Every
operation here is exact integer arithmetic and nothing depends on the
host float type.
"""

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

    The integer constants are computed when the format is built and kept
    in slots, the fastest attribute read for the records. The two value
    constants, max_finite and smallest_subnormal, are FloatValues, which no
    record reads: both are built on the first read of either and then
    kept, so the same object answers every later read. Equality, hash,
    repr and pickling follow the three parameters."""

    _fields = ("significand_bits", "emin", "emax")
    __slots__ = _fields + (
        "least_exponent", "exponent_field_bits", "bit_width", "_params", "_extremes",
    )

    def __new__(cls, significand_bits: int, emin: int, emax: int) -> "FloatFormat":
        if significand_bits < 2:
            raise ValueError("need at least two significand bits")
        if emin >= 0 or emax <= 0:
            raise ValueError(f"unusable exponent range [{emin}, {emax}]")
        p = significand_bits
        least = emin - p + 1  # the scaled exponent shared by all subnormals
        field_bits = (emax + 1).bit_length()
        width = 1 + field_bits + p - 1  # sign + exponent field + trailing significand field
        self = super().__new__(cls)
        values = (p, emin, emax, least, field_bits, width, (p, emin, emax), None)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    # properties, not __getattr__: a class with __getattr__ loses the
    # interpreter's fast path for reading its slots
    @property
    def max_finite(self) -> "FloatValue":
        return (self._extremes or self._build_extremes())[0]

    @property
    def smallest_subnormal(self) -> "FloatValue":
        return (self._extremes or self._build_extremes())[1]

    def _build_extremes(self) -> "tuple[FloatValue, FloatValue]":
        from .value import FloatValue

        p, _, emax = self._params
        extremes = (
            FloatValue(KIND_NORMAL, 1, (1 << p) - 1, emax - p + 1),
            FloatValue(KIND_SUBNORMAL, 1, 1, self.least_exponent),
        )
        object.__setattr__(self, "_extremes", extremes)
        return extremes

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


BINARY32 = FloatFormat(24, -126, 127)
BINARY64 = FloatFormat(53, -1022, 1023)

_ZERO_FIELDS = (KIND_ZERO, 1, 0, 0)


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
