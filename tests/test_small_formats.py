"""binary16 and bfloat16 through the one kernel, checked against the host.

The package names only binary32 and binary64, but a FloatFormat is just
(p, emin, emax), and nothing in the kernel branches on it. struct's 'e'
code packs binary16 and a bfloat16 is the top half of a binary32, so
every bit pattern has a host float to compare with; the Fraction oracle
checks the enclosures and the outward rounding.
"""

import math
import random
import struct
from fractions import Fraction

import pytest

from builders import BFLOAT16, BINARY16
from radival import oracle
from radival.floatkit import (
    KIND_INFINITE,
    ZERO,
    DomainError,
    FloatInterval,
    as_py_float,
    from_bits,
    next_up,
    to_bits,
)
from radival.parse import DecimalScientific, decimal_to_interval, parse_numeral
from radival.render import DecimalInfinity, float_to_exact_decimal, interval_to_decimal

# format, struct code of the host type that holds it, and the number of
# low host bits below it
HOSTS = [(BINARY16, "<e", 0), (BFLOAT16, "<f", 16)]
IDS = ["binary16", "bfloat16"]


def _host_value(pattern: int, code: str, shift: int) -> float:
    return struct.unpack(code, (pattern << shift).to_bytes(struct.calcsize(code), "little"))[0]


def _host_bits(x: float, code: str, shift: int) -> int:
    return int.from_bytes(struct.pack(code, x), "little") >> shift


def _patterns(fmt):
    """Seeded bit patterns, every third with a zero exponent field, after
    the zeros, the smallest subnormal, the top finite value and the
    infinities of both signs."""
    width = fmt.bit_width
    sign_bit = 1 << (width - 1)
    top = to_bits(fmt.max_finite, fmt)
    edges = [0, sign_bit, 1, top, top + 1, sign_bit | top, sign_bit | (top + 1)]
    rng = random.Random(width * fmt.significand_bits)
    low_field = sign_bit | ((1 << (fmt.significand_bits - 1)) - 1)
    drawn = [rng.getrandbits(width) & (low_field if i % 3 == 0 else -1) for i in range(300)]
    return edges + drawn


@pytest.mark.parametrize("fmt, code, shift", HOSTS, ids=IDS)
def test_bits_agree_with_struct(fmt, code, shift):
    for pattern in _patterns(fmt):
        host = _host_value(pattern, code, shift)
        if math.isnan(host):
            with pytest.raises(DomainError):
                from_bits(pattern, fmt)
            continue
        f = from_bits(pattern, fmt)
        assert as_py_float(f) == host
        # the negative zero pattern folds onto the unsigned zero
        expected = 0 if host == 0 else pattern
        assert to_bits(f, fmt) == expected == _host_bits(as_py_float(f), code, shift)


@pytest.mark.parametrize("fmt, code, shift", HOSTS, ids=IDS)
def test_exact_decimal_is_the_host_value(fmt, code, shift):
    for pattern in _patterns(fmt):
        host = _host_value(pattern, code, shift)
        if math.isnan(host):
            continue
        f = from_bits(pattern, fmt)
        d = float_to_exact_decimal(f, fmt)
        if f.kind == KIND_INFINITE:
            assert d == DecimalInfinity(f.sign)
            continue
        assert oracle.exact_value(d) == Fraction(host)
        # the exact decimal encloses back to the value itself
        back = decimal_to_interval(d, fmt)
        assert back == FloatInterval(f, f)
        assert to_bits(back.lb, fmt) == to_bits(f, fmt)


@pytest.mark.parametrize("fmt, code, shift", HOSTS, ids=IDS)
def test_enclosure_of_host_repr(fmt, code, shift):
    # repr is the shortest text naming the host value as a binary64, so
    # it need not be exact in the narrow format; its enclosure must still
    # be the oracle's and contain the value
    for pattern in _patterns(fmt):
        host = _host_value(pattern, code, shift)
        if not math.isfinite(host):
            continue
        numeral = parse_numeral(repr(host))
        interval = decimal_to_interval(numeral, fmt)
        assert (interval.lb._key(), interval.ub._key()) == oracle.decimal_reference(
            numeral.sign, numeral.mantissa.text, numeral.exponent, fmt
        )
        f = from_bits(pattern, fmt)
        assert interval.lb <= f <= interval.ub


@pytest.mark.parametrize("fmt, code, shift", HOSTS, ids=IDS)
def test_outward_rounding_contains(fmt, code, shift):
    for pattern in _patterns(fmt):
        if math.isnan(_host_value(pattern, code, shift)):
            continue
        a = from_bits(pattern, fmt)
        b = a if a.kind == KIND_INFINITE else next_up(a, fmt)
        for n in range(1, 6):
            lo, hi = interval_to_decimal(FloatInterval(a, b), n, fmt)
            if isinstance(lo, DecimalScientific):
                assert len(lo.mantissa) <= n
                assert oracle.exact_value(lo) <= oracle.float_exact_value(a)
            else:
                assert lo == DecimalInfinity(a.sign) and a.kind == KIND_INFINITE
            if isinstance(hi, DecimalScientific):
                assert len(hi.mantissa) <= n
                assert oracle.float_exact_value(b) <= oracle.exact_value(hi)
            else:
                assert hi == DecimalInfinity(b.sign) and b.kind == KIND_INFINITE


@pytest.mark.parametrize("fmt", [fmt for fmt, _, _ in HOSTS], ids=IDS)
def test_next_up_steps_every_pattern(fmt):
    # every finite pattern of both signs: a positive value steps to the
    # next pattern and a negative one to the previous, which walks every
    # carry and borrow at every binade edge
    sign_bit = 1 << (fmt.bit_width - 1)
    top = to_bits(fmt.max_finite, fmt)
    assert to_bits(next_up(ZERO, fmt), fmt) == 1
    for pattern in range(1, top + 1):
        assert to_bits(next_up(from_bits(pattern, fmt), fmt), fmt) == pattern + 1
    assert next_up(from_bits(sign_bit | 1, fmt), fmt) == ZERO
    for pattern in range(sign_bit | 2, sign_bit | (top + 1)):
        assert to_bits(next_up(from_bits(pattern, fmt), fmt), fmt) == pattern - 1
