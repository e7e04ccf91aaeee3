"""The integer-ratio reference against frozen values, self-checks and
the converter."""

import math
import random
import struct
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import BFLOAT16, BINARY16, BINARY128, exact_float
from radival import oracle
from radival.digitstring import DigitString
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    ZERO,
    FloatInterval,
    FloatValue,
    from_bits,
    infinity,
    next_up,
    to_bits,
)
from radival.parse import (
    DECIMAL_ZERO,
    DecimalScientific,
    Rational,
    decimal_to_interval,
    parse_numeral,
    rational_to_interval,
)


def decimal(sign: int, digits: str, exponent: int) -> DecimalScientific:
    return DecimalScientific(sign, DigitString.fraction(digits), exponent)


def fields(f: FloatValue) -> tuple:
    return f.kind, f.sign, f.significand, f.exponent


def bounds(iv: FloatInterval) -> tuple[tuple, tuple]:
    """The interval as the oracle's per-line entries give it: the fields of
    its lower and upper bound."""
    return fields(iv.lb), fields(iv.ub)


class TestValueMaps:
    def test_exact_value(self):
        assert oracle.exact_value(decimal(1, "123", -1)) == Fraction(123, 10**4)
        assert oracle.exact_value(decimal(1, "5", 0)) == Fraction(1, 2)
        assert oracle.exact_value(decimal(-1, "125", 5)) == -12500
        assert oracle.exact_value(DECIMAL_ZERO) == 0

    def test_rational_value(self):
        assert oracle.rational_value(Rational(-1, 3, 7)) == Fraction(-3, 7)
        assert oracle.rational_value(Rational(1, 6, 14)) == Fraction(3, 7)

    def test_float_exact_value(self):
        assert oracle.float_exact_value(BINARY32.one) == 1
        assert oracle.float_exact_value(exact_float(-1, 3, -2, BINARY32)) == Fraction(-3, 4)
        assert oracle.float_exact_value(BINARY32.smallest_subnormal) == Fraction(1, 2**149)

    def test_infinity_has_no_value(self):
        with pytest.raises(ValueError):
            oracle.float_exact_value(infinity(1))


class TestNarrowestReference:
    def test_exact_point(self):
        iv = oracle.narrowest_interval_reference(Fraction(1, 2), BINARY32)
        assert iv.degenerate
        assert (iv.lb.significand, iv.lb.exponent) == (2**23, -24)

    def test_one_third(self):
        iv = oracle.narrowest_interval_reference(Fraction(1, 3), BINARY32)
        assert (iv.lb.significand, iv.lb.exponent) == (11184810, -25)
        assert (iv.ub.significand, iv.ub.exponent) == (11184811, -25)

    def test_one_seventh(self):
        iv = oracle.narrowest_interval_reference(Fraction(1, 7), BINARY32)
        assert (iv.lb.significand, iv.lb.exponent) == (9586980, -26)
        assert iv.ub.significand == 9586981

    def test_zero(self):
        iv = oracle.narrowest_interval_reference(Fraction(0), BINARY32)
        assert iv.degenerate and iv.lb is ZERO

    def test_deep_subnormal(self):
        iv = oracle.narrowest_interval_reference(Fraction(1, 2**150), BINARY32)
        assert iv.lb is ZERO
        assert iv.ub == BINARY32.smallest_subnormal
        iv = oracle.narrowest_interval_reference(Fraction(3, 2**150), BINARY32)
        assert iv.lb == BINARY32.smallest_subnormal
        assert iv.ub == exact_float(1, 2, -149, BINARY32)

    def test_overflow(self):
        iv = oracle.narrowest_interval_reference(Fraction(2**200), BINARY32)
        assert iv.lb == BINARY32.max_finite
        assert iv.ub == infinity(1)
        neg = oracle.narrowest_interval_reference(-Fraction(2**200), BINARY32)
        assert neg.lb == infinity(-1)
        assert neg.ub == -BINARY32.max_finite

    def test_just_above_max_finite(self):
        top = oracle.float_exact_value(BINARY32.max_finite)
        iv = oracle.narrowest_interval_reference(top + Fraction(1, 3), BINARY32)
        assert iv.lb == BINARY32.max_finite
        assert iv.ub == infinity(1)

    def test_negative_mirror(self):
        pos = oracle.narrowest_interval_reference(Fraction(1, 3), BINARY64)
        neg = oracle.narrowest_interval_reference(Fraction(-1, 3), BINARY64)
        assert neg.lb == -pos.ub and neg.ub == -pos.lb

    @given(
        st.fractions(
            min_value=Fraction(-(10**40)), max_value=Fraction(10**40), max_denominator=10**25
        ),
        st.sampled_from([BINARY32, BINARY64]),
    )
    def test_self_consistency(self, x, fmt):
        iv = oracle.narrowest_interval_reference(x, fmt)
        if iv.lb.kind != "infinity":
            assert oracle.float_exact_value(iv.lb) <= x
        if iv.ub.kind != "infinity":
            assert x <= oracle.float_exact_value(iv.ub)
        if not iv.degenerate and iv.lb.kind != "infinity" and iv.ub.kind != "infinity":
            assert iv.ub == next_up(iv.lb, fmt)
            assert oracle.float_exact_value(iv.lb) < x < oracle.float_exact_value(iv.ub)


class TestDecimalReference:
    @pytest.mark.parametrize(
        "fmt",
        [BINARY32, BINARY64, BINARY16, BFLOAT16],
        ids=["binary32", "binary64", "binary16", "bfloat16"],
    )
    def test_clamps_agree_with_the_unclamped_reference(self, fmt):
        # every exponent within 60 of each edge of the format's decimal
        # range, in both signs: the sweep crosses where the oracle's clamps
        # and the converter's own exponent tests switch on, and both must
        # give the reference's interval on either side
        rng = random.Random(1990)
        edges = (fmt.emax + 1) * math.log10(2), fmt.least_exponent * math.log10(2)
        for edge in map(round, edges):
            for e in range(edge - 60, edge + 61):
                for sign in (1, -1):
                    for digits in ("1", "9" * 25, str(rng.randint(1, 10**17)).rstrip("0")):
                        d = decimal(sign, digits, e)
                        expected = oracle.narrowest_interval_reference(oracle.exact_value(d), fmt)
                        reference = oracle.decimal_reference(sign, digits, e, fmt)
                        assert reference == bounds(expected), (sign, digits, e)
                        assert decimal_to_interval(d, fmt) == expected, (sign, digits, e)

    def test_zero(self):
        assert oracle.decimal_reference(1, "", 0, BINARY32) == bounds(FloatInterval(ZERO, ZERO))

    def test_extreme_exponents(self):
        top = FloatInterval(BINARY64.max_finite, infinity(1))
        assert oracle.decimal_reference(1, "1", 10**9, BINARY64) == bounds(top)
        assert oracle.decimal_reference(-1, "1", 10**9, BINARY64) == bounds(-top)
        bottom = FloatInterval(ZERO, BINARY32.smallest_subnormal)
        assert oracle.decimal_reference(1, "9", -(10**8), BINARY32) == bounds(bottom)
        assert oracle.decimal_reference(-1, "9", -(10**8), BINARY32) == bounds(-bottom)


class TestNearest:
    def test_one_third_rounds_up(self):
        near = oracle.nearest_float(Fraction(1, 3), BINARY32)
        assert near.significand == 11184811  # fractional part 2/3 rounds up

    def test_one_eleventh_rounds_up(self):
        near = oracle.nearest_float(Fraction(1, 11), BINARY32)
        assert (near.significand, near.exponent) == (12201612, -27)

    def test_exact_point(self):
        assert oracle.nearest_float(Fraction(3, 4), BINARY32) == exact_float(1, 3, -2, BINARY32)

    def test_tie_goes_to_even(self):
        one = BINARY32.one
        above = next_up(one, BINARY32)
        midpoint = (oracle.float_exact_value(one) + oracle.float_exact_value(above)) / 2
        assert oracle.nearest_float(midpoint, BINARY32) == one  # even significand wins
        next_mid = (
            oracle.float_exact_value(above)
            + oracle.float_exact_value(next_up(above, BINARY32))
        ) / 2
        assert oracle.nearest_float(next_mid, BINARY32) == next_up(above, BINARY32)

    def test_overflow_threshold(self):
        top = oracle.float_exact_value(BINARY32.max_finite)
        half_gap = Fraction(2**103)
        assert oracle.nearest_float(top + half_gap - 1, BINARY32) == BINARY32.max_finite
        assert oracle.nearest_float(top + half_gap, BINARY32) == infinity(1)
        assert oracle.nearest_float(-(top + half_gap), BINARY32) == infinity(-1)

    def test_tiny_tie_rounds_to_zero(self):
        half_sub = oracle.float_exact_value(BINARY32.smallest_subnormal) / 2
        assert oracle.nearest_float(half_sub, BINARY32) is ZERO

    @given(st.fractions(max_denominator=10**12), st.sampled_from([BINARY32, BINARY64]))
    def test_nearest_is_a_bound_of_the_enclosure(self, x, fmt):
        iv = oracle.narrowest_interval_reference(x, fmt)
        near = oracle.nearest_float(x, fmt)
        assert near == iv.lb or near == iv.ub


FIVE_FORMATS = [BINARY16, BFLOAT16, BINARY32, BINARY64, BINARY128]
FIVE_IDS = ["binary16", "bfloat16", "binary32", "binary64", "binary128"]


@pytest.mark.parametrize("fmt", FIVE_FORMATS, ids=FIVE_IDS)
def test_binade_tops_against_the_converter(fmt):
    """Ratios a hair under 2^k, in both signs, for binades across the whole
    range: the floor is the top significand of the binade below with a
    remainder, so the outer bound is the step that carries into the next
    binade, the least normal above the subnormals, or infinity past the
    top. Oracle and converter must agree field by field, since an
    uncarried (2^p, e) equals (2^(p-1), e+1) in value and would pass a
    value comparison."""
    rng = random.Random(1990)
    p, least = fmt.significand_bits, fmt.least_exponent
    edges = {least + 1, fmt.emin - 1, fmt.emin, fmt.emin + 1, 0, 1, fmt.emax, fmt.emax + 1}
    for k in sorted(edges | {rng.randint(least + 1, fmt.emax + 1) for _ in range(150)}):
        # 2^k * (1 - 1/den) is nearer 2^k than one ulp below it
        den = rng.randint(1 << (p + 1), 1 << (p + 60))
        num, q = (den << k) - 1 if k >= 0 else den - 1, den << max(-k, 0)
        if k > fmt.emax:
            top = infinity(1)
        elif k >= fmt.emin:
            top = FloatValue(KIND_NORMAL, 1, 1 << (p - 1), k - p + 1)
        else:
            top = FloatValue(KIND_SUBNORMAL, 1, 1 << (k - least), least)
        for sign in (1, -1):
            r = Rational(sign, num, q)
            reference = oracle.rational_reference(sign, num, q, fmt)
            outer = reference[1] if sign > 0 else reference[0]
            assert outer == fields(top if sign > 0 else -top), (k, sign)
            assert bounds(rational_to_interval(r, fmt)) == reference, (k, sign)


def _host_binary64(pattern: int) -> float:
    return struct.unpack("<d", pattern.to_bytes(8, "little"))[0]


def _numerals_near(x: float, rng: random.Random) -> list[str]:
    """The exact decimal of x, the decimals one unit away in its last
    digit, and floored prefixes of it."""
    exact = Decimal(x)
    sign, digits, exp = exact.as_tuple()
    N = (-1) ** sign * int("".join(map(str, digits)))
    texts = [str(exact), f"{N + 1}e{exp}", f"{N - 1}e{exp}"]
    for n in rng.sample(range(1, 20), 3):
        texts.append(str(Context(prec=n, rounding=ROUND_FLOOR).plus(exact)))
    return texts


def test_decimal_float_comparison_against_fraction():
    """The oracle's reader of positional text, compared with a float,
    agrees with Fraction arithmetic on host values: equal values (an exact
    bound must pass), zero, both signs, subnormals and texts of more than
    4300 digits."""
    rng = random.Random(2007)
    patterns = [0, 1 << 63, 1, (1 << 63) | 1, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF]
    patterns += [rng.getrandbits(64) for _ in range(120)]
    patterns += [rng.getrandbits(52) | (rng.getrandbits(1) << 63) for _ in range(40)]
    patterns = [bits for bits in patterns if math.isfinite(_host_binary64(bits))]
    longs = [
        f"{rng.choice('-+')}0.{rng.randint(1, 9)}"
        + "".join(rng.choices("0123456789", k=4399))
        + f"e{rng.randint(-330, 300)}"
        for _ in range(4)
    ]
    cases = []
    for bits in patterns:
        texts = [*_numerals_near(_host_binary64(bits), rng), "0", rng.choice(longs)]
        cases += [(text, bits) for text in texts]
    for text in longs:
        iv = decimal_to_interval(parse_numeral(text), BINARY64)
        cases += [(text, to_bits(bound, BINARY64)) for bound in (iv.lb, iv.ub)]
    signs = set()
    for text, bits in cases:
        positional = format(Decimal(text), "f")
        f = from_bits(bits, BINARY64)
        a, b = Fraction(Decimal(text)), Fraction(_host_binary64(bits))
        order = oracle.positional_order(positional, f.sign, (f.significand, f.exponent))
        assert order == (a > b) - (a < b), (positional[:40], hex(bits))
        signs.add((positional[0] == "-", len(positional.replace(".", "")) > 4300))
    assert signs == {(False, False), (True, False), (False, True), (True, True)}


def test_positional_reader_infinities_and_malformed_text():
    """An infinity ranks by its sign, as text and as a float; text outside
    -?digits[.digits], inf and -inf reads as None."""
    one = (1, (1 << 52, -52))
    for text, sign, pair, order in [
        ("inf", 1, None, 0), ("-inf", -1, None, 0), ("inf", -1, None, 1),
        ("-inf", 1, None, -1), ("inf", *one, 1), ("-inf", *one, -1),
        ("1", 1, None, -1), ("-1", -1, None, 1), ("0", 1, None, -1),
        ("1", *one, 0), ("-0", *one, -1), ("1.0", *one, 0), ("-1.5", -1, (3, -1), 0),
    ]:
        assert oracle.positional_order(text, sign, pair) == order, (text, sign, pair)
    for text in ["", "-", ".5", "1.", "+1", "1e5", "0x1", "1_0", "\u0661", " 1", "--1", "Inf", "nan"]:
        assert oracle.positional_order(text, *one) is None, text
