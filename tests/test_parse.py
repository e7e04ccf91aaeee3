"""Numeral parsing and narrowest-interval conversion.

Three layers of checking: hand-worked frozen cases, differential runs
against the digit-at-a-time loops in stepwise.py, and differential runs
against the Fraction-based oracle. The float-accumulator comparison at
the bottom documents how a native binary32 accumulator behaves on the
same bit stream.
"""

import random
import re
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepwise
from builders import BFLOAT16, BINARY16, BINARY128, scale_to_unit_interval
from radival import oracle
from radival.digitstring import DigitString, mul2
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    KIND_ZERO,
    DomainError,
    NumeralSyntaxError,
    _text_from_int,
)
from radival.parse import (
    DECIMAL_ZERO,
    DecimalScientific,
    Rational,
    decimal_to_interval,
    parse_numeral,
    rational_to_interval,
)
from radival.staged import binarize_exponent, fraction_bits, mantissa_bits, normalize_mantissa
from radival.value import ZERO, FloatValue, as_py_float, infinity, next_up


# a digit count past CPython's default 4300-digit int/str conversion limit
LONG = 5000

FIVE_FORMATS = [BINARY16, BFLOAT16, BINARY32, BINARY64, BINARY128]
FIVE_IDS = ["binary16", "bfloat16", "binary32", "binary64", "binary128"]


def frac(text: str) -> DigitString:
    return DigitString.fraction(text)


def decimal(sign: int, digits: str, exponent: int) -> DecimalScientific:
    return DecimalScientific(sign, frac(digits), exponent)


nonzero_decimals = st.builds(
    decimal,
    st.sampled_from([1, -1]),
    st.from_regex(r"[1-9][0-9]{0,24}", fullmatch=True).map(lambda s: s.rstrip("0") or s[0]),
    st.integers(-48, 42),
)


# the numeral grammar as the tests state it, apart from the reader's pattern:
# a digit before or after the point, then an optional exponent with digits
NUMERAL_GRAMMAR = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _numeral_or_digit_short(text: str) -> bool:
    return bool(NUMERAL_GRAMMAR.fullmatch(text) or NUMERAL_GRAMMAR.fullmatch(text + "0"))


class TestParseNumeral:
    def test_leading_zeros_shift_exponent(self):
        assert parse_numeral("0.0123") == decimal(1, "123", -1)

    def test_marker_exponent_combines(self):
        assert parse_numeral("12.5e3") == decimal(1, "125", 5)
        assert parse_numeral("1e1") == decimal(1, "1", 2)

    def test_sign_and_point_forms(self):
        assert parse_numeral("-0.5") == decimal(-1, "5", 0)
        assert parse_numeral("+.5") == decimal(1, "5", 0)
        assert parse_numeral("5.") == decimal(1, "5", 1)
        assert parse_numeral("12500") == decimal(1, "125", 5)

    def test_trailing_zeros_drop(self):
        assert parse_numeral("00.100") == decimal(1, "1", 0)
        assert parse_numeral("25e-4") == decimal(1, "25", -2)

    def test_zero_collapses_canonically(self):
        assert parse_numeral("0") is DECIMAL_ZERO
        assert parse_numeral("-0.000e5") is DECIMAL_ZERO
        assert parse_numeral("0e-20") is DECIMAL_ZERO

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            (".", 1),
            ("+", 1),
            ("1e", 2),
            ("1e+", 3),
            ("1.2.3", 3),
            ("abc", 0),
            ("1 ", 1),
            ("--1", 1),
            ("e5", 0),
            (".e5", 1),
            ("+.", 2),
            ("1ex", 2),
            ("1e5x", 3),
            ("1e١", 2),
        ],
    )
    def test_errors_carry_position(self, text, position):
        with pytest.raises(NumeralSyntaxError) as info:
            parse_numeral(text)
        assert info.value.position == position

    def test_nonascii_digits_rejected(self):
        with pytest.raises(NumeralSyntaxError):
            parse_numeral("١٢")

    def test_contract_on_a_seeded_draw(self):
        """The reader's contract, written apart from its pattern: a text
        is accepted exactly when it fully matches NUMERAL_GRAMMAR, and then
        has the value Decimal gives it; a refused text is refused at the
        end of its longest prefix that is a numeral or one digit short of
        one, with the kind of message that prefix calls for."""
        rng = random.Random(27)
        alphabet = "0123456789" * 3 + ".eE+-x ١"
        kinds = Counter()
        for _ in range(20_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            try:
                d = parse_numeral(text)
            except NumeralSyntaxError as err:
                assert not NUMERAL_GRAMMAR.fullmatch(text), text
                prefix = max(
                    (text[:k] for k in range(len(text) + 1) if _numeral_or_digit_short(text[:k])),
                    key=len,
                )
                if NUMERAL_GRAMMAR.fullmatch(prefix):
                    kind = "unexpected character"
                elif "e" in prefix.lower():
                    kind = "expected an exponent digit"
                else:
                    kind = "expected a digit"
                assert err.position == len(prefix), text
                assert str(err) == f"{kind} at position {len(prefix)} in {text!r}"
                kinds[kind] += 1
            else:
                assert NUMERAL_GRAMMAR.fullmatch(text), text
                kinds["accepted"] += 1
                if abs(d.exponent) < 60:
                    digits = d.mantissa.text
                    value = d.sign * Fraction(int(digits or "0"), 10 ** len(digits)) * Fraction(10) ** d.exponent
                    assert value == Fraction(Decimal(text)), text
        # every rule was exercised
        assert min(kinds.values()) > 500 and len(kinds) == 4, kinds


@pytest.mark.parametrize(
    "stage, arg",
    [(binarize_exponent, -3), (normalize_mantissa, 0), (mantissa_bits, 5)],
    ids=["binarize_exponent", "normalize_mantissa", "mantissa_bits"],
)
def test_stages_reject_integer_strings(stage, arg):
    with pytest.raises(ValueError, match="expected a fraction digit string"):
        stage(DigitString.integer("12"), arg)


class TestBinarize:
    def test_negative_exponent_worked_example(self):
        assert binarize_exponent(frac("123"), -1) == (frac("1968"), -4)

    def test_zero_exponent_is_identity(self):
        assert binarize_exponent(frac("5"), 0) == (frac("5"), 0)

    def test_empty_mantissa(self):
        assert binarize_exponent(frac(""), 7) == (frac(""), 0)
        assert binarize_exponent(frac(""), -7) == (frac(""), 0)

    def test_positive_exponent_small(self):
        # 10^1 * 0.1 == 1 == 2^1 * 0.5, confirmed by the value identity
        # and by the digit-at-a-time loop
        result = binarize_exponent(frac("1"), 1)
        assert result == (frac("5"), 1)
        assert result == stepwise.binarize_stepwise(frac("1"), 1)

    def test_positive_exponent_longer(self):
        m, bexp = binarize_exponent(frac("75"), 2)
        assert (m, bexp) == stepwise.binarize_stepwise(frac("75"), 2)
        assert _value(m, bexp, 0) == Fraction(75, 100) * 100

    def test_leading_zero_rejected_for_positive_exponent(self):
        with pytest.raises(ValueError):
            binarize_exponent(frac("05"), 1)

    def test_leading_zero_fine_for_negative_exponent(self):
        assert binarize_exponent(frac("05"), -1) == (frac("16"), -5)

    @pytest.mark.parametrize("e", [3, -3])
    def test_past_int_text_limit(self, e):
        m = frac("1" * LONG)
        assert binarize_exponent(m, e) == stepwise.binarize_stepwise(m, e)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=18).map(DigitString.fraction),
        st.integers(-25, 0),
    )
    def test_matches_stepwise_negative(self, m, e):
        assert binarize_exponent(m, e) == stepwise.binarize_stepwise(m, e)

    @given(
        st.from_regex(r"[1-9][0-9]{0,15}", fullmatch=True).map(frac),
        st.integers(0, 20),
    )
    def test_matches_stepwise_positive(self, m, e):
        assert binarize_exponent(m, e) == stepwise.binarize_stepwise(m, e)

    @given(
        st.from_regex(r"[1-9][0-9]{0,15}", fullmatch=True).map(frac),
        st.integers(-30, 30),
    )
    def test_preserves_value(self, m, e):
        m2, bexp = binarize_exponent(m, e)
        assert _value(m, 0, e) == _value(m2, bexp, 0)


def _value(m: DigitString, bin_exp: int, dec_exp: int) -> Fraction:
    text = m.text
    base = Fraction(int(text or "0"), 10 ** len(text))
    return base * Fraction(2) ** bin_exp * Fraction(10) ** dec_exp


class TestNormalize:
    def test_worked_example(self):
        assert normalize_mantissa(frac("1968"), -4) == (frac("7872"), -6)

    def test_already_normal(self):
        assert normalize_mantissa(frac("8"), 0) == (frac("8"), 0)
        assert normalize_mantissa(frac("5"), 3) == (frac("5"), 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_mantissa(frac(""), 0)

    def test_past_int_text_limit(self):
        m = frac("1" * LONG)
        assert normalize_mantissa(m, 0) == stepwise.normalize_stepwise(m, 0)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=18)
        .map(DigitString.fraction)
        .filter(lambda m: m.digits),
        st.integers(-40, 40),
    )
    def test_matches_stepwise_and_lands_in_range(self, m, e):
        result = normalize_mantissa(m, e)
        assert result == stepwise.normalize_stepwise(m, e)
        out, bexp = result
        v = _value(out, 0, 0)
        assert Fraction(1, 2) <= v < 1
        assert _value(m, e, 0) == _value(out, bexp, 0)


class TestScale:
    def test_worked_examples(self):
        assert scale_to_unit_interval(Rational(1, 3, 7)) == (Rational(1, 6, 7), -1)
        assert scale_to_unit_interval(Rational(1, 5, 2)) == (Rational(1, 5, 8), 2)
        assert scale_to_unit_interval(Rational(1, 1, 2)) == (Rational(1, 1, 2), 0)
        assert scale_to_unit_interval(Rational(1, 1, 1)) == (Rational(1, 1, 2), 1)

    def test_unreduced_input_tolerated(self):
        scaled, k = scale_to_unit_interval(Rational(1, 6, 14))
        assert (scaled.p, scaled.q, k) == (12, 14, -1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            scale_to_unit_interval(Rational(1, 0, 5))

    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_matches_stepwise_by_value(self, p, q):
        scaled, k = scale_to_unit_interval(Rational(1, p, q))
        sp, sq, sk = stepwise.scale_stepwise(p, q)
        # the step loop may double both sides before settling, so compare
        # values rather than raw pairs
        assert k == sk
        assert Fraction(scaled.p, scaled.q) == Fraction(sp, sq)
        assert Fraction(1, 2) <= Fraction(scaled.p, scaled.q) < 1
        assert Fraction(p, q) == Fraction(scaled.p, scaled.q) * Fraction(2) ** k


class TestRationalParsing:
    def test_forms(self):
        assert Rational.from_text("3/7") == Rational(1, 3, 7)
        assert Rational.from_text("-3/7") == Rational(-1, 3, 7)
        assert Rational.from_text("+5") == Rational(1, 5, 1)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            Rational.from_text("1/0")

    def test_garbage(self):
        with pytest.raises(NumeralSyntaxError):
            Rational.from_text("x/y")
        with pytest.raises(NumeralSyntaxError):
            Rational.from_text("3/")
        with pytest.raises(NumeralSyntaxError):
            Rational.from_text("3.5/2")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("/3", 0),
            ("abc", 0),
            ("3 /7", 1),
            ("1\t/3", 1),
            ("1/", 2),
            ("1/3/4", 3),
            ("-x/3", 1),
            ("+/3", 1),
            ("1/x ", 2),
            (" 1/x", 0),
        ],
    )
    def test_errors_carry_position(self, text, position):
        # the index in the text as given where reading stopped
        with pytest.raises(NumeralSyntaxError) as info:
            Rational.from_text(text)
        assert info.value.position == position


@pytest.mark.parametrize("read", [parse_numeral, Rational.from_text], ids=["numeral", "ratio"])
def test_readers_take_the_text_as_given(read):
    # the command line strips each value and line before it reads it; a
    # library reader refuses a blank at either end, the leading one at 0
    with pytest.raises(NumeralSyntaxError) as info:
        read(" 1")
    assert info.value.position == 0
    with pytest.raises(NumeralSyntaxError):
        read("1 ")


class TestBitStreams:
    def test_three_sevenths_repeats(self):
        assert fraction_bits(3, 7, 27) == [0, 1, 1] * 9

    def test_mantissa_bits_worked_example(self):
        assert mantissa_bits(frac("7872"), 5) == [1, 1, 0, 0, 1]

    def test_terminating_stream_pads_zeros(self):
        assert mantissa_bits(frac("5"), 4) == [1, 0, 0, 0]

    def test_domain(self):
        with pytest.raises(DomainError):
            fraction_bits(7, 3, 5)
        with pytest.raises(DomainError):
            fraction_bits(0, 3, 5)
        with pytest.raises(DomainError):
            fraction_bits(3, 3, 5)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=15).map(DigitString.fraction),
        st.integers(1, 60),
    )
    def test_matches_stepwise(self, m, count):
        assert mantissa_bits(m, count) == stepwise.bits_stepwise(m, count)


def interval_pair(iv):
    return (iv.lb, iv.ub)


class TestDecimalToInterval:
    def test_exact_value_degenerates(self):
        iv = decimal_to_interval(parse_numeral("0.5"), BINARY32)
        assert iv.degenerate
        assert (iv.lb.significand, iv.lb.exponent) == (2**23, -24)

    def test_tenth_binary32(self):
        iv = decimal_to_interval(parse_numeral("0.1"), BINARY32)
        assert (iv.lb.significand, iv.lb.exponent) == (13421772, -27)
        assert (iv.ub.significand, iv.ub.exponent) == (13421773, -27)

    def test_tenth_binary64(self):
        iv = decimal_to_interval(parse_numeral("0.1"), BINARY64)
        assert (iv.lb.significand, iv.lb.exponent) == (7205759403792793, -56)
        assert iv.ub.significand == 7205759403792794

    def test_small_worked_example(self):
        iv = decimal_to_interval(parse_numeral("0.0123"), BINARY32)
        assert (iv.lb.significand, iv.lb.exponent) == (13207024, -30)
        assert iv.ub.significand == 13207025

    def test_zero(self):
        iv = decimal_to_interval(parse_numeral("0"), BINARY32)
        assert iv.lb is ZERO and iv.ub is ZERO

    def test_negative_mirrors(self):
        pos = decimal_to_interval(parse_numeral("0.1"), BINARY32)
        neg = decimal_to_interval(parse_numeral("-0.1"), BINARY32)
        assert neg.lb == -pos.ub
        assert neg.ub == -pos.lb

    def test_overflow(self):
        iv = decimal_to_interval(parse_numeral("1e39"), BINARY32)
        assert iv.lb == BINARY32.max_finite
        assert iv.ub == infinity(1)
        neg = decimal_to_interval(parse_numeral("-1e39"), BINARY32)
        assert neg.lb == infinity(-1)
        assert neg.ub == -BINARY32.max_finite

    def test_underflow(self):
        iv = decimal_to_interval(parse_numeral("1e-46"), BINARY32)
        assert iv.lb is ZERO
        assert iv.ub == BINARY32.smallest_subnormal

    def test_extreme_exponents_settle_quickly(self):
        decimal_to_interval(parse_numeral("1e999999999"), BINARY32)
        decimal_to_interval(parse_numeral("1e-999999999"), BINARY64)

    def test_subnormal_enclosure(self):
        # 1e-45 sits inside the binary32 subnormal range
        iv = decimal_to_interval(parse_numeral("1e-45"), BINARY32)
        assert iv.lb.kind == KIND_ZERO or iv.lb.kind == KIND_SUBNORMAL
        assert iv.ub.kind == KIND_SUBNORMAL
        ref = oracle.narrowest_interval_reference(Fraction(1, 10**45), BINARY32)
        assert interval_pair(iv) == interval_pair(ref)

    @settings(max_examples=300)
    @given(nonzero_decimals, st.sampled_from([BINARY32, BINARY64]))
    def test_against_oracle(self, d, fmt):
        iv = decimal_to_interval(d, fmt)
        ref = oracle.narrowest_interval_reference(oracle.exact_value(d), fmt)
        assert interval_pair(iv) == interval_pair(ref)

    @settings(max_examples=150)
    @given(nonzero_decimals)
    def test_tightness(self, d):
        iv = decimal_to_interval(d, BINARY64)
        x = oracle.exact_value(d)
        if iv.lb.kind != KIND_INFINITE and iv.ub.kind != KIND_INFINITE:
            lo = oracle.float_exact_value(iv.lb)
            hi = oracle.float_exact_value(iv.ub)
            assert lo <= x <= hi
            if not iv.degenerate:
                assert lo < x < hi
                assert iv.ub == next_up(iv.lb, BINARY64)


class TestRationalToInterval:
    def test_third_binary32(self):
        iv = rational_to_interval(Rational(1, 1, 3), BINARY32)
        assert (iv.lb.significand, iv.lb.exponent) == (11184810, -25)
        assert iv.ub.significand == 11184811

    def test_eleventh_binary32(self):
        # exact narrowest enclosure of 1/11
        iv = rational_to_interval(Rational(1, 1, 11), BINARY32)
        assert (iv.lb.significand, iv.lb.exponent) == (12201611, -27)
        assert iv.ub.significand == 12201612

    def test_dyadic_degenerates(self):
        assert rational_to_interval(Rational(1, 1, 2), BINARY32).degenerate
        assert rational_to_interval(Rational(1, 2, 4), BINARY32).degenerate
        assert rational_to_interval(Rational(1, 3, 8), BINARY64).degenerate

    def test_zero(self):
        iv = rational_to_interval(Rational(1, 0, 9), BINARY32)
        assert iv.degenerate and iv.lb is ZERO

    def test_negative(self):
        pos = rational_to_interval(Rational(1, 3, 7), BINARY32)
        neg = rational_to_interval(Rational(-1, 3, 7), BINARY32)
        assert neg.lb == -pos.ub and neg.ub == -pos.lb

    def test_overflow_and_underflow(self):
        big = rational_to_interval(Rational(1, 2**200, 1), BINARY32)
        assert big.lb == BINARY32.max_finite and big.ub == infinity(1)
        tiny = rational_to_interval(Rational(1, 1, 2**200), BINARY32)
        assert tiny.lb is ZERO and tiny.ub == BINARY32.smallest_subnormal

    def test_agrees_with_decimal_route(self):
        # 3/8 is exactly 0.375: both routes must land on the same point
        via_rational = rational_to_interval(Rational(1, 3, 8), BINARY32)
        via_decimal = decimal_to_interval(parse_numeral("0.375"), BINARY32)
        assert interval_pair(via_rational) == interval_pair(via_decimal)

    @settings(max_examples=300)
    @given(
        st.integers(1, 10**18),
        st.integers(1, 10**18),
        st.sampled_from([1, -1]),
        st.sampled_from([BINARY32, BINARY64]),
    )
    def test_against_oracle(self, p, q, sign, fmt):
        iv = rational_to_interval(Rational(sign, p, q), fmt)
        ref = oracle.narrowest_interval_reference(Fraction(sign * p, q), fmt)
        assert interval_pair(iv) == interval_pair(ref)


class TestFloatAccumulatorComparison:
    """Behaviour of a native binary32 accumulator fed the same bit stream.

    Summing bit * 2^-k in float arithmetic reproduces the integer lower
    bound except in one corner: when bits 24 and 25 are both set, the
    accumulator's final add is a half-ulp tie, rounds to even upward, and
    overshoots the lower bound by one ulp. The test pins down both the
    agreement and the exact overshoot condition.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.from_regex(r"[1-9][0-9]{0,14}", fullmatch=True))
    def test_binary32_accumulator_vs_integer_path(self, digits):
        m, _ = normalize_mantissa(frac(digits), 0)
        iv = decimal_to_interval(DecimalScientific(1, m, 0), BINARY32)
        assert iv.lb.kind == KIND_NORMAL

        work = m
        acc = np.float32(0.0)
        pwr = np.float32(1.0)
        while True:
            step = pwr / np.float32(2.0)
            if not (acc + step > acc) or not work.digits:
                break
            pwr = step
            work, carry = mul2(work)
            if carry:
                acc = acc + pwr

        bits = mantissa_bits(m, 26)
        overshoot = bits[23] == 1 and bits[24] == 1
        expected = iv.ub if overshoot else iv.lb
        assert float(acc) == as_py_float(expected)


class TestDecimalCut:
    """decimal_to_interval reads a mantissa only down to the 10^L place, L
    the format's least exponent, and lets one sticky 5 stand for the rest;
    the oracle reads every digit."""

    @staticmethod
    def numerals(rng, fmt, count):
        """Numerals whose digit count lands at E - L, E - L + 1 and beyond:
        exact decimals of floats whose last digit sits at the 10^L place
        (subnormals and the lowest binade) with that digit moved by one or
        extended by a 1, and exact decimals of floats across the range
        padded to the cut with zeros then a 1, lowered by a run of nines, or
        given a random tail."""
        L, p = fmt.least_exponent, fmt.significand_bits
        for i in range(count):
            sign = "-" if i % 2 else ""
            m = rng.randrange(1, 1 << p)
            # m * 2^L has the mantissa m * 5^-L over 10^-L, ending in a 5
            N = m * 5**-L
            text = _text_from_int(N)
            E = len(text) + L
            for digits in (text, _text_from_int(N - 1), _text_from_int(N + 1), text + "1"):
                yield f"{sign}0.{digits}e{E}"
            e = rng.randrange(L, fmt.emax - p + 2)
            x = rng.randrange(1 << (p - 1), 1 << p)
            N, K = (x << e, 0) if e >= 0 else (x * 5**-e, -e)
            text = _text_from_int(N)
            E = len(text) - K
            keep = E - L
            for n in (keep - 1, keep, keep + 1, keep + 2, keep + 9):
                pad = n - len(text)
                if pad < 1:
                    continue
                for tail in (1, -1, rng.randrange(1, 10**pad)):
                    digits = _text_from_int(N * 10**pad + tail, n)
                    yield f"{sign}0.{digits}e{E}"

    @pytest.mark.parametrize("fmt", FIVE_FORMATS, ids=FIVE_IDS)
    def test_against_the_oracle(self, fmt):
        rng = random.Random(fmt.bit_width * 31 + fmt.significand_bits)
        count = 5 if fmt is BINARY128 else 60
        cut = 0
        for text in self.numerals(rng, fmt, count):
            d = parse_numeral(text)
            cut += len(d.mantissa.text) > d.exponent - fmt.least_exponent
            iv = decimal_to_interval(d, fmt)
            assert (tuple(iv.lb), tuple(iv.ub)) == oracle.decimal_reference(
                d.sign, d.mantissa.text, d.exponent, fmt
            ), text
        assert cut > 4 * count

    def test_million_digits_in_bounded_time(self):
        # a 1,000,000-digit numeral just above 1, and one under the smallest
        # binary64 subnormal by a run of nines: all digits read into one
        # integer take about a second at this length
        above_one = "1." + "0" * 999_998 + "1"
        head = "4940656458412465441765687928682213723650598026143246"
        below_tiny = "0." + "0" * 323 + head + "9" * (1_000_000 - len(head))
        start = time.perf_counter()
        above, below = (
            decimal_to_interval(parse_numeral(t), BINARY64) for t in (above_one, below_tiny)
        )
        elapsed = time.perf_counter() - start
        one = decimal_to_interval(parse_numeral("1"), BINARY64).lb
        assert interval_pair(above) == (one, next_up(one, BINARY64))
        assert interval_pair(below) == (ZERO, BINARY64.smallest_subnormal)
        assert elapsed < 0.5
