"""Value builders that only the tests use.

exact_float places sign * m * 2^e on a format's grid, float_one is 1 as
a format value, machine_epsilon is the gap above 1, and
scale_to_unit_interval halves or doubles a ratio onto [1/2, 1) the way
the paper's rational reader does. None of them sits on a
path the library or the command line reaches. BINARY16, BFLOAT16 and
BINARY128 are IEEE formats the package does not name.
"""

from fractions import Fraction

from radival.floatkit import (
    KIND_NORMAL,
    KIND_SUBNORMAL,
    DomainError,
    FloatFormat,
    NotRepresentable,
    _log2_floor,
)
from radival.parse import Rational
from radival.value import ZERO, FloatValue

BINARY16 = FloatFormat(11, -14, 15)
BFLOAT16 = FloatFormat(8, -126, 127)
BINARY128 = FloatFormat(113, -16382, 16383)


def exact_float(sign: int, m: int, e: int, fmt: FloatFormat) -> FloatValue:
    """Canonical format value equal to sign * m * 2^e.

    Raises NotRepresentable when the value does not land on the format's
    grid, either through excess significand bits or an exponent outside
    the finite range.
    """
    if m == 0:
        return ZERO
    if m < 0:
        raise ValueError("significand must be nonnegative; use the sign")
    p = fmt.significand_bits
    least = fmt.least_exponent
    while m >= (1 << p) or e < least:
        if m & 1:
            raise NotRepresentable(f"{sign * m}*2^{e} has no exact place in the format")
        m >>= 1
        e += 1
    while m < (1 << (p - 1)) and e > least:
        m <<= 1
        e -= 1
    if e > fmt.emax - p + 1:
        raise NotRepresentable(f"{sign * m}*2^{e} exceeds the finite range")
    kind = KIND_NORMAL if m >= (1 << (p - 1)) else KIND_SUBNORMAL
    return FloatValue(kind, sign, m, e)


def float_one(fmt: FloatFormat) -> FloatValue:
    """1 as a format value: the significand 2^(p-1) at the exponent 1 - p."""
    p = fmt.significand_bits
    return FloatValue(KIND_NORMAL, 1, 1 << (p - 1), 1 - p)


def machine_epsilon(fmt: FloatFormat) -> FloatValue:
    """Gap between 1 and its upward neighbour, 2^(1-p), as a format value."""
    p = fmt.significand_bits
    return FloatValue(KIND_NORMAL, 1, 1 << (p - 1), 2 - 2 * p)


def scale_to_unit_interval(r: Rational) -> tuple[Rational, int]:
    """Halve or double r onto [1/2, 1): returns (r', k) with r == r' * 2^k.

    Doubles whichever of p and q is behind, so no reduction happens; the
    count is one past the binary exponent of r.
    """
    if r.p == 0:
        raise DomainError("cannot scale zero onto [1/2, 1)")
    p, q = r.p, r.q
    k = _log2_floor(p, q) + 1
    assert Fraction(1, 2) <= Fraction(p, q) / Fraction(2) ** k < 1
    if k <= 0:
        scaled = Rational(r.sign, p << -k, q)
    else:
        scaled = Rational(r.sign, p, q << k)
    return scaled, k
