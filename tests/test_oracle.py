"""The integer-ratio reference against frozen values, self-checks and
the converter."""

import math
import random
import re
import struct
import sys
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import BFLOAT16, BINARY16, BINARY128, exact_float, float_one
from test_digitstring import counted_conversions
from radival import oracle
from radival.digitstring import DigitString
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    KIND_ZERO,
    exact_field,
    outward_fields,
)
from radival.parse import (
    DECIMAL_ZERO,
    DecimalScientific,
    Rational,
    decimal_to_interval,
    parse_numeral,
    rational_to_interval,
)
from radival.value import ZERO, FloatInterval, FloatValue, from_bits, infinity, next_up, to_bits


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
        assert oracle.float_exact_value(float_one(BINARY32)) == 1
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
        one = float_one(BINARY32)
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
        order = oracle.positional_order(positional, tuple(f))
        assert order == (a > b) - (a < b), (positional[:40], hex(bits))
        signs.add((positional[0] == "-", len(positional.replace(".", "")) > 4300))
    assert signs == {(False, False), (True, False), (False, True), (True, True)}


def test_positional_reader_infinities_and_malformed_text():
    """An infinity ranks by its sign, as text and as a float; text outside
    -?digits[.digits], inf and -inf reads as None."""
    one, inf = (KIND_NORMAL, 1, 1 << 52, -52), (KIND_INFINITE, 1, 0, 0)
    minus_inf = (KIND_INFINITE, -1, 0, 0)
    for text, bound, order in [
        ("inf", inf, 0), ("-inf", minus_inf, 0), ("inf", minus_inf, 1),
        ("-inf", inf, -1), ("inf", one, 1), ("-inf", one, -1),
        ("1", inf, -1), ("-1", minus_inf, 1), ("0", inf, -1),
        ("1", one, 0), ("-0", one, -1), ("1.0", one, 0),
        ("-1.5", (KIND_NORMAL, -1, 3, -1), 0),
    ]:
        assert oracle.positional_order(text, bound) == order, (text, bound)
    for text in ["", "-", ".5", "1.", "+1", "1e5", "0x1", "1_0", "\u0661", " 1", "--1", "Inf", "nan"]:
        assert oracle.positional_order(text, one) is None, text


def _text_order(text: str, bound: tuple) -> int:
    """The order of a positional text against a finite bound, by Fraction."""
    _, sign, m, e = bound
    a, b = Fraction(Decimal(text)), sign * m * Fraction(2) ** e
    return (a > b) - (a < b)


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
def test_positional_reader_against_fraction_on_outward_texts(fmt):
    """The reader agrees with Fraction on the texts --check reads back: each
    bound of a seeded draw, both signs, rounded outward to 1 and to 17
    digits and written exactly, read against the bound and both its
    neighbours. In binary64 the draw holds subnormals whose texts carry 320
    or more zeros after the point and values whose 1-digit texts are
    integers with 300 or more trailing zeros."""
    rng = random.Random(f"positional:{fmt.bit_width}")
    t = fmt.significand_bits - 1
    top = (1 << (fmt.bit_width - 1)) - (1 << t)  # the pattern of +infinity
    patterns = [1, 2, 3, (1 << t) - 1, 1 << t, top - 1, top // 2]
    patterns += [rng.getrandbits(rng.randint(1, t)) for _ in range(30)]
    patterns += [rng.randrange(1, top) for _ in range(60)]
    sign_bit = 1 << (fmt.bit_width - 1)
    texts, orders = set(), set()
    for bits in patterns:
        for pattern in (bits, bits | sign_bit):
            f = from_bits(pattern, fmt)
            near = [g for g in (next_up(f, fmt), -next_up(-f, fmt)) if g.kind != KIND_INFINITE]
            bound = tuple(f)
            for text in (
                *outward_fields(bound, bound, 1)[:2],
                *outward_fields(bound, bound, 17)[:2],
                exact_field(bound),
            ):
                texts.add(text)
                for other in (bound, *map(tuple, near)):
                    order = oracle.positional_order(text, other)
                    assert order == _text_order(text, other), (text[:40], other)
                    orders.add(order)
    assert orders == {-1, 0, 1}
    assert any(text.startswith("-") for text in texts)
    if fmt is BINARY64:
        assert any(re.fullmatch(r"-?0\.0{320}[0-9]*", text) for text in texts)
        assert any(re.fullmatch(r"-?[1-9]0{300,}", text) for text in texts)


def test_positional_reader_edge_texts():
    """Zeros, trailing zeros after the point, leading zeros before it, a
    zero run after a zero integer part, and texts past 4300 digits (with
    the zero run long or short, and past the memo's reach), each against
    bounds below, at and above it, agree with Fraction."""
    texts = ["0", "-0", "0.000", "1.0", "1.50", "007.50", "0.0001", "-0.0001", "-1.50"]
    texts += [
        "0." + "0" * 5000 + "1",
        "-0." + "0" * 4400 + "3" * 20,
        "0." + "3" * 5000,
        "1" + "0" * 4400,
        "-" + "9" * 4400 + ".5",
        "0.5" + "0" * 4400,
    ]
    bounds = [
        (KIND_ZERO, 1, 0, 0),
        (KIND_NORMAL, 1, 1 << 52, -52),
        (KIND_NORMAL, -1, 1 << 52, -52),
        (KIND_NORMAL, 1, 3, -1),
        (KIND_NORMAL, -1, 3, -1),
        (KIND_NORMAL, 1, 15, -1),
        (KIND_SUBNORMAL, 1, 1, -1074),
        (KIND_SUBNORMAL, -1, 1, -1074),
        (KIND_NORMAL, 1, (1 << 53) - 1, 971),
        (KIND_NORMAL, -1, (1 << 53) - 1, 971),
    ]
    bounds += [tuple(from_bits(bits, BINARY64)) for bits in (0x3F1A36E2EB1C432D, 0x3FD5555555555555)]
    for text in texts:
        for bound in bounds:
            assert oracle.positional_order(text, bound) == _text_order(text, bound), (text[:20], bound)


@pytest.mark.parametrize("k", [1073, 1074, 1075, 5000])
def test_decimal_ratio_on_both_sides_of_the_memo_cap(k):
    """10^k as a numerator's factor and as the denominator, for scales just
    under, at and past the memo's cap, agrees with Fraction; the memo never
    keeps a power past the cap."""
    digits = "1234567"
    for sign in (1, -1):
        num, den = oracle._decimal_ratio(sign, digits, len(digits) + k)
        assert den == 1 and Fraction(num) == sign * 1234567 * Fraction(10) ** k
        num, den = oracle._decimal_ratio(sign, digits, len(digits) - k)
        assert den > 0 and Fraction(num, den) == sign * Fraction(1234567, 10**k)
    assert max(oracle._FIVES) <= oracle._FIVES_CAP


@pytest.mark.parametrize("limit", [640, 0], ids=["least-limit", "no-limit"])
def test_digits_value_at_any_int_digit_limit(monkeypatch, limit):
    """The oracle's reader of digit texts reads any length under CPython's
    least int() digit limit, and converts no piece past 4000 digits whole
    with no limit at all."""
    rng = random.Random(641)
    texts = ["", "0" * 700 + "7"]
    texts += ["".join(rng.choices("0123456789", k=k)) for k in (640, 641, 4000, 4001, 20000)]
    expected = [Fraction(Decimal(text or "0")) for text in texts]
    sizes = counted_conversions(monkeypatch, oracle)
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert [oracle._digits_value(text) for text in texts] == expected
    finally:
        sys.set_int_max_str_digits(default)
    assert 0 < max(sizes) <= (limit or 4000)
