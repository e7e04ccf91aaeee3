"""The kernels' trusted constructors build only what the checked ones accept.

parse_numeral, float_to_exact_decimal and interval_to_decimal (both
through render._to_decimal), truncate_directed, floatkit._on_grid (the
one packer behind _enclose, next_up and every pattern from_bits decodes)
and both negations skip the constructor checks for values they have just
made canonical.
Every value they return here is rebuilt through the public constructors,
which must accept it unchanged; each float must also be canonical for the
format it came from.
"""

import random

import pytest

from radival.digitstring import DigitString
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    FloatInterval,
    FloatValue,
    decompose,
    from_bits,
    next_up,
    to_bits,
)
from radival.parse import (
    DecimalScientific,
    Rational,
    decimal_to_interval,
    parse_numeral,
    rational_to_interval,
)
from radival.render import (
    DecimalInfinity,
    float_to_exact_decimal,
    interval_to_decimal,
    truncate_directed,
)

FORMATS = [BINARY32, BINARY64]


def rebuilt(value):
    """value rebuilt field by field through its public constructor."""
    if isinstance(value, FloatValue):
        return FloatValue(value.kind, value.sign, value.significand, value.exponent)
    if isinstance(value, FloatInterval):
        return FloatInterval(rebuilt(value.lb), rebuilt(value.ub))
    if isinstance(value, DigitString):
        return DigitString(value.text, value.role)
    if isinstance(value, DecimalScientific):
        return DecimalScientific(value.sign, rebuilt(value.mantissa), value.exponent)
    if isinstance(value, DecimalInfinity):
        return DecimalInfinity(value.sign)
    raise TypeError(type(value))


def assert_public(value, fmt=None):
    """The public constructors accept value and rebuild it exactly; a float
    from a kernel of format fmt is also canonical for that format."""
    copy = rebuilt(value)
    assert type(copy) is type(value)
    assert copy._key() == value._key()
    floats = []
    if isinstance(value, FloatValue):
        floats = [value]
    elif isinstance(value, FloatInterval):
        floats = [value.lb, value.ub]
        assert [f._key() for f in floats] == [copy.lb._key(), copy.ub._key()]
    if fmt is not None:
        for f in floats:
            if f.kind != KIND_INFINITE:
                decompose(f, fmt)


def _numerals(rng, count):
    """Numerals with leading and trailing zeros, both signs, points in any
    place and exponents that reach past both ends of binary64."""
    for _ in range(count):
        digits = "0" * rng.randrange(3) + str(rng.randrange(10 ** rng.randrange(1, 25)))
        digits += "0" * rng.randrange(4)
        point = rng.randrange(len(digits) + 1)
        text = rng.choice(["", "-", "+"]) + digits[:point] + "." + digits[point:]
        if rng.random() < 0.7:
            text += f"e{rng.randrange(-340, 340)}"
        yield text


# zero, overflow and underflow of both formats, their edges, and values
# just under powers of ten
EDGE_NUMERALS = (
    "0 -0.000e5 100 0.00100 10 1000 1e400 -1e400 1e-400 -1e-400 1e-45"
    " 340282356779733661637539395458142568448 4.9406564584124654e-324"
    " 0.99999999999999999 9.9999999999999999e22 -9999999.999999999"
).split()


def _patterns(rng, fmt, count):
    """Bit patterns of both signs: random, subnormal, zero, the top finite
    value and the floats just below powers of ten (all-nines carries)."""
    t = fmt.significand_bits - 1
    sign = 1 << (fmt.bit_width - 1)
    top = to_bits(fmt.max_finite, fmt)
    specials = [0, 1, (1 << t) - 1, 1 << t, top]
    for k in range(23 if fmt is BINARY64 else 11):
        ten = to_bits(decimal_to_interval(parse_numeral(f"1e{k}"), fmt).lb, fmt)
        specials += [ten, ten - 1]
    for pattern in specials + [rng.randrange(top + 1) for _ in range(count)]:
        yield pattern
        yield pattern | sign


@pytest.mark.parametrize("fmt", FORMATS, ids=["binary32", "binary64"])
class TestTrustedConstruction:
    def test_parse_and_enclose_numerals(self, fmt):
        rng = random.Random(fmt.bit_width + 1)
        for text in [*EDGE_NUMERALS, *_numerals(rng, 400)]:
            d = parse_numeral(text)
            assert_public(d)
            interval = decimal_to_interval(d, fmt)
            assert_public(interval, fmt)
            assert_public(-interval, fmt)

    def test_enclose_ratios(self, fmt):
        rng = random.Random(fmt.bit_width + 2)
        ratios = [(0, 1), (1, 3), (1, 1 << 200), (1 << 2000, 3), (1, 1 << 1100)]
        for _ in range(400):
            p, q = (rng.getrandbits(rng.randrange(1, 90)) for _ in range(2))
            ratios.append((p, q | 1))
        for p, q in ratios:
            for sign in (1, -1):
                interval = rational_to_interval(Rational(sign, p, q), fmt)
                assert_public(interval, fmt)
                assert_public(-interval, fmt)

    def test_bits_exact_decimals_and_steps(self, fmt):
        rng = random.Random(fmt.bit_width + 3)
        for pattern in _patterns(rng, fmt, 300):
            f = from_bits(pattern, fmt)
            assert_public(f, fmt)
            assert_public(-f, fmt)
            assert_public(float_to_exact_decimal(f, fmt))
            up = next_up(f, fmt)
            assert_public(up, fmt)
            assert_public(FloatInterval(f, up), fmt)

    def test_outward_rounding(self, fmt):
        rng = random.Random(fmt.bit_width + 4)
        overflow = FloatInterval(fmt.max_finite, next_up(fmt.max_finite, fmt))
        intervals = [overflow, -overflow]
        for pattern in _patterns(rng, fmt, 40):
            f = from_bits(pattern, fmt)
            intervals.append(FloatInterval(f, next_up(f, fmt)))
        for interval in intervals:
            for n in range(1, 41):
                for bound in interval_to_decimal(interval, n, fmt):
                    assert_public(bound)


def test_truncate_directed():
    # seeded mantissas, runs of nines that carry into a fresh leading 1,
    # dropped tails that leave trailing zeros, and mantissas past 4,300
    # digits, in both signs and both directions
    rng = random.Random(5)
    texts = ["9" * 12, "9" * 11 + "5", "3" + "0" * 8 + "7", "9" * 4400 + "1", "1" * 5000 + "3"]
    texts += [str(rng.randrange(1, 10**40)).rstrip("0") for _ in range(40)]
    for text in texts:
        for sign in (1, -1):
            d = DecimalScientific(sign, DigitString.fraction(text), rng.randint(-50, 50))
            for n in {1, 2, 5, 11, max(len(text) - 1, 1), rng.randrange(1, len(text) + 1)}:
                for direction in ("down", "up"):
                    assert_public(truncate_directed(d, n, direction))
    nines = DecimalScientific(-1, DigitString.fraction("9" * 4400 + "1"), 3)
    carried = truncate_directed(nines, 4400, "down")
    assert (carried.sign, carried.mantissa.text, carried.exponent) == (-1, "1", 4)


def test_carries_and_trailing_zeros_occur():
    """The inputs above reach the cases a careless trusted build gets wrong:
    a rounding that carries into a fresh leading 1 and exact decimals whose
    digit text ends in zeros before stripping."""
    below_one = from_bits(0x3FEFFFFFFFFFFFFF, BINARY64)
    lo, hi = interval_to_decimal(FloatInterval(below_one, below_one), 5, BINARY64)
    assert (lo.mantissa.text, lo.exponent) == ("99999", 0)
    assert (hi.mantissa.text, hi.exponent) == ("1", 1)
    hundred = decimal_to_interval(parse_numeral("100"), BINARY32).lb
    hundred = float_to_exact_decimal(hundred, BINARY32)
    assert (hundred.mantissa.text, hundred.exponent) == ("1", 3)
