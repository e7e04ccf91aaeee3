"""Exact decimal output, outward truncation, and bracket renderings."""

import math
import random
import struct
import sys
import threading
import time
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from os.path import commonprefix

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import BFLOAT16, BINARY16, BINARY128, exact_float, float_one
from radival import oracle
from radival.digitstring import DigitString
from radival.floatkit import (
    _POW5,
    _POW5_CAP,
    _PREFIX_WINDOW,
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    DomainError,
    FloatFormat,
    _bits_fields,
    _bounds,
    _decimal_floor,
    _floor,
    _numeral,
    _pow5,
    _shared_prefix_length,
    _text_from_int,
    enclosure_fields,
    exact_field,
    numeral_fields,
    outward_fields,
)
from radival.parse import (
    DECIMAL_ZERO,
    DecimalScientific,
    decimal_to_interval,
    parse_numeral,
    rational_to_interval,
    Rational,
)
from radival.render import (
    BracketRendering,
    DecimalInfinity,
    bracket_notation,
    float_to_exact_decimal,
    hex_significand_bracket,
    hex_significand_rendering,
    interval_to_decimal,
    plain_decimal,
    truncate_directed,
)
from radival.value import ZERO, FloatInterval, FloatValue, from_bits, infinity, next_up, to_bits


def frac(text: str) -> DigitString:
    return DigitString.fraction(text)


def decimal(sign: int, digits: str, exponent: int) -> DecimalScientific:
    return DecimalScientific(sign, frac(digits), exponent)


class TestFloatToExactDecimal:
    def test_three_quarters(self):
        f = exact_float(1, 3, -2, BINARY32)
        assert float_to_exact_decimal(f, BINARY32) == decimal(1, "75", 0)

    def test_one(self):
        assert float_to_exact_decimal(float_one(BINARY32), BINARY32) == decimal(1, "1", 1)

    def test_third_bounds_binary32(self):
        iv = decimal_to_interval(parse_numeral("0.3333333333333"), BINARY32)
        lo = float_to_exact_decimal(iv.lb, BINARY32)
        hi = float_to_exact_decimal(iv.ub, BINARY32)
        assert lo == decimal(1, "333333313465118408203125", 0)
        assert hi == decimal(1, "3333333432674407958984375", 0)

    def test_zero_and_negative(self):
        assert float_to_exact_decimal(ZERO, BINARY32) is DECIMAL_ZERO
        f = exact_float(-1, 1, -1, BINARY64)
        assert float_to_exact_decimal(f, BINARY64) == decimal(-1, "5", 0)

    def test_smallest_subnormal_binary32(self):
        d = float_to_exact_decimal(BINARY32.smallest_subnormal, BINARY32)
        assert d.exponent == -44
        assert len(d.mantissa.digits) == 105
        assert oracle.exact_value(d) == Fraction(1, 2**149)

    def test_infinity_marker(self):
        for fmt in (BINARY32, BINARY64):
            for sign in (1, -1):
                assert float_to_exact_decimal(infinity(sign), fmt) == DecimalInfinity(sign)

    @pytest.mark.parametrize(
        "text, fmt, expected",
        [
            ("1e39", BINARY32, "[340282346638528859811704183484516925440,inf]"),
            ("-1e309", BINARY64, f"[-inf,{-int(sys.float_info.max)}]"),
        ],
        ids=["binary32", "binary64"],
    )
    def test_overflowed_enclosure_prints(self, text, fmt, expected):
        # an overflowing magnitude's outer bound is an infinity; both exact
        # bounds of its enclosure print, the finite one in full
        iv = decimal_to_interval(parse_numeral(text), fmt)
        lo, hi = float_to_exact_decimal(iv.lb, fmt), float_to_exact_decimal(iv.ub, fmt)
        assert bracket_notation(lo, hi).text() == expected

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64])
    def test_matches_staged_route(self, fmt):
        # the one-product printer against the oracle's exact value, on
        # seeded bit patterns of which every third is subnormal or zero
        rng = random.Random(fmt.bit_width)
        subnormal_mask = (1 << (fmt.bit_width - 1)) | ((1 << (fmt.significand_bits - 1)) - 1)
        for i in range(3000):
            pattern = rng.getrandbits(fmt.bit_width)
            if i % 3 == 0:
                pattern &= subnormal_mask
            try:
                f = from_bits(pattern, fmt)
            except DomainError:
                continue
            if f.kind == "infinity":
                continue
            d = float_to_exact_decimal(f, fmt)
            assert oracle.exact_value(d) == oracle.float_exact_value(f)
            # canonical: no trailing zero, and a nonzero opening digit
            digits = d.mantissa.text
            assert digits == digits.rstrip("0") and digits[:1] != "0"
            assert (d == DECIMAL_ZERO) == f.is_zero

    def test_binary128_past_int_text_limit(self):
        # exact decimals of binary128 run past CPython's 4300-digit
        # int/str limit: the smallest subnormal has 11,529 digits
        fmt = BINARY128
        rng = random.Random(128)
        values = [fmt.smallest_subnormal, -fmt.max_finite]
        while len(values) < 6:
            try:
                f = from_bits(rng.getrandbits(128), fmt)
            except DomainError:
                continue
            if f.kind != "infinity":
                values.append(f)
        for f in values:
            d = float_to_exact_decimal(f, fmt)
            assert oracle.exact_value(d) == oracle.float_exact_value(f)
        assert len(float_to_exact_decimal(fmt.smallest_subnormal, fmt).mantissa) > 4300

    @given(st.integers(0, 2**64 - 1))
    def test_round_trips_through_parsing(self, pattern):
        try:
            f = from_bits(pattern, BINARY64)
        except DomainError:
            return
        if f.kind == "infinity":
            return
        d = float_to_exact_decimal(f, BINARY64)
        assert oracle.exact_value(d) == oracle.float_exact_value(f)
        back = decimal_to_interval(d, BINARY64)
        assert back.degenerate
        assert back.lb == f


class TestTruncateDirected:
    def test_down_drops_digits(self):
        assert truncate_directed(decimal(1, "375", 0), 2, "down") == decimal(1, "37", 0)

    def test_up_rounds_digits(self):
        assert truncate_directed(decimal(1, "375", 0), 2, "up") == decimal(1, "38", 0)

    def test_short_numerals_untouched(self):
        d = decimal(1, "375", 0)
        assert truncate_directed(d, 3, "down") is d
        assert truncate_directed(d, 9, "up") is d
        assert truncate_directed(DECIMAL_ZERO, 1, "up") is DECIMAL_ZERO

    def test_all_nines_carry(self):
        assert truncate_directed(decimal(1, "999", 0), 1, "up") == decimal(1, "1", 1)
        assert truncate_directed(decimal(1, "9995", -3), 3, "up") == decimal(1, "1", -2)

    def test_negative_directions_mirror(self):
        d = decimal(-1, "375", 0)
        assert truncate_directed(d, 2, "down") == decimal(-1, "38", 0)
        assert truncate_directed(d, 2, "up") == decimal(-1, "37", 0)

    def test_trailing_zeros_restrip(self):
        assert truncate_directed(decimal(1, "305", 0), 2, "down") == decimal(1, "3", 0)
        assert truncate_directed(decimal(1, "397", 0), 2, "up") == decimal(1, "4", 0)

    def test_past_int_text_limit(self):
        # heads longer than CPython's 4300-digit int/str limit
        nines = decimal(1, "9" * 5000 + "1", 0)
        assert truncate_directed(nines, 4500, "up") == decimal(1, "1", 1)
        ones = decimal(-1, "1" * 5000 + "3", 2)
        assert truncate_directed(ones, 4500, "down") == decimal(-1, "1" * 4499 + "2", 2)

    def test_long_mantissa_in_linear_time(self):
        # half of a seeded 1,000,000-digit mantissa kept in both directions,
        # once over random digits and once over a run of nines before the
        # cut: a round trip through an integer takes seconds at this length
        rng = random.Random(1000)
        n = 500_000
        head = "3" + "".join(rng.choices("0123456789", k=n - 2)) + "4"
        tail = "".join(rng.choices("0123456789", k=n - 1)) + "7"
        digits, nines = decimal(1, head + tail, 2), decimal(-1, "9" * n + tail, -5)
        start = time.perf_counter()
        results = [truncate_directed(d, n, way) for d in (digits, nines) for way in ("up", "down")]
        elapsed = time.perf_counter() - start
        assert results == [
            decimal(1, head[:-1] + "5", 2),
            decimal(1, head, 2),
            decimal(-1, "9" * n, -5),
            decimal(-1, "1", -4),
        ]
        assert elapsed < 0.5

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            truncate_directed(decimal(1, "5", 0), 0, "down")
        with pytest.raises(ValueError):
            truncate_directed(decimal(1, "5", 0), 3, "sideways")

    def test_infinity_marker_passes_through(self):
        # the marker float_to_exact_decimal and interval_to_decimal return
        # has no digits to drop, but the arguments are still checked
        for sign in (1, -1):
            marker = DecimalInfinity(sign)
            for direction in ("down", "up"):
                assert truncate_directed(marker, 3, direction) is marker
                with pytest.raises(ValueError):
                    truncate_directed(marker, 0, direction)
            with pytest.raises(ValueError):
                truncate_directed(marker, 3, "sideways")

    @given(
        st.builds(
            decimal,
            st.sampled_from([1, -1]),
            st.from_regex(r"[1-9][0-9]{0,20}[1-9]", fullmatch=True),
            st.integers(-30, 30),
        ),
        st.integers(1, 12),
    )
    def test_outward_and_minimal(self, d, n):
        down = truncate_directed(d, n, "down")
        up = truncate_directed(d, n, "up")
        x = oracle.exact_value(d)
        lo = oracle.exact_value(down)
        hi = oracle.exact_value(up)
        assert lo <= x <= hi
        assert len(down.mantissa.digits) <= n
        assert len(up.mantissa.digits) <= n
        # minimality: the n-digit grid step at this exponent
        step = Fraction(10) ** (d.exponent - n)
        assert x - lo < step
        assert hi - x < step


class TestIntervalToDecimal:
    def test_third_five_digits(self):
        iv = rational_to_interval(Rational(1, 1, 3), BINARY32)
        lo, hi = interval_to_decimal(iv, 5, BINARY32)
        assert lo == decimal(1, "33333", 0)
        assert hi == decimal(1, "33334", 0)

    def test_budget_larger_than_exact(self):
        iv = rational_to_interval(Rational(1, 1, 3), BINARY32)
        lo, hi = interval_to_decimal(iv, 30, BINARY32)
        assert lo == decimal(1, "333333313465118408203125", 0)
        assert hi == decimal(1, "3333333432674407958984375", 0)

    def test_infinite_bound_passes_through(self):
        iv = decimal_to_interval(parse_numeral("1e39"), BINARY32)
        lo, hi = interval_to_decimal(iv, 6, BINARY32)
        assert isinstance(lo, DecimalScientific)
        assert hi == DecimalInfinity(1)

    @pytest.mark.parametrize(
        "fmt", [BINARY32, BINARY64, BINARY128], ids=["binary32", "binary64", "binary128"]
    )
    def test_budget_past_exact_length(self, fmt):
        # a budget at or past the exact length gives the exact bounds, in a
        # time that does not grow with the budget; budgets past 4300 digits
        # once failed on CPython's int/str limit
        tiny = fmt.smallest_subnormal
        values = [ZERO, float_one(fmt), tiny, -tiny, fmt.max_finite]
        for f in values:
            exact = float_to_exact_decimal(f, fmt)
            for n in (max(len(exact.mantissa), 1), 4301, 10**9):
                start = time.perf_counter()
                lo, hi = interval_to_decimal(FloatInterval(f, f), n, fmt)
                assert time.perf_counter() - start < 0.5
                assert lo == truncate_directed(exact, n, "down")
                assert hi == truncate_directed(exact, n, "up")
            assert lo == hi == exact

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(1, 15))
    def test_containment(self, pa, pb, n):
        try:
            a, b = from_bits(pa, BINARY32), from_bits(pb, BINARY32)
        except DomainError:
            return
        if a.kind == "infinity" or b.kind == "infinity":
            return
        if b < a:
            a, b = b, a
        iv = FloatInterval(a, b)
        lo, hi = interval_to_decimal(iv, n, BINARY32)
        assert oracle.exact_value(lo) <= oracle.float_exact_value(a)
        assert oracle.float_exact_value(b) <= oracle.exact_value(hi)


def test_carries_and_trailing_zeros_occur():
    """Outward rounding carries a run of nines into a fresh leading 1, and an
    exact decimal whose digit text ends in zeros sheds them: both give the
    canonical digits and exponent."""
    below_one = from_bits(0x3FEFFFFFFFFFFFFF, BINARY64)
    lo, hi = interval_to_decimal(FloatInterval(below_one, below_one), 5, BINARY64)
    assert (lo.mantissa.text, lo.exponent) == ("99999", 0)
    assert (hi.mantissa.text, hi.exponent) == ("1", 1)
    hundred = decimal_to_interval(parse_numeral("100"), BINARY32).lb
    hundred = float_to_exact_decimal(hundred, BINARY32)
    assert (hundred.mantissa.text, hundred.exponent) == ("1", 3)


def _decimal_exponent_estimate(b: int) -> int:
    """ceil(b * log10 2) in exact integers: for b > 0 it is the digit count
    of 2^b, for b <= 0 one less than that of 2^-b, negated."""
    return len(str(2**b)) if b > 0 else 1 - len(str(2**-b))


class TestOutwardRounding:
    """interval_to_decimal against the full expansion cut by
    truncate_directed, the route it replaced."""

    @staticmethod
    def assert_matches_expansion(f, fmt, digit_counts):
        exact = float_to_exact_decimal(f, fmt)
        for n in digit_counts:
            # a degenerate interval rounds one value both ways
            lo, hi = interval_to_decimal(FloatInterval(f, f), n, fmt)
            assert lo == truncate_directed(exact, n, "down"), (f, n)
            assert hi == truncate_directed(exact, n, "up"), (f, n)

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
    def test_seeded_values_both_signs(self, fmt):
        rng = random.Random(5 * fmt.bit_width)
        subnormal_mask = (1 << (fmt.significand_bits - 1)) - 1
        values = []
        while len(values) < 200:
            # positive patterns, every fourth subnormal; the loop below negates
            pattern = rng.getrandbits(fmt.bit_width - 1)
            if len(values) % 4 == 0:
                pattern &= subnormal_mask
            try:
                f = from_bits(pattern, fmt)
            except DomainError:
                continue
            if f.kind != "infinity":
                values.append(f)
        for f in values:
            for g in (f, -f):
                self.assert_matches_expansion(g, fmt, range(1, 41))

    @pytest.mark.parametrize(
        "fmt, largest_exact_power",
        [(BINARY32, 10), (BINARY64, 22)],
        ids=["binary32", "binary64"],
    )
    def test_edges(self, fmt, largest_exact_power):
        powers = []
        for k in range(largest_exact_power + 1):
            interval = decimal_to_interval(parse_numeral(f"1e{k}"), fmt)
            assert interval.degenerate
            powers.append(interval.lb)
        # the float just below each power of ten opens with nines, so an
        # upward rounding to few digits carries into 10^n
        below = [-next_up(-p, fmt) for p in powers]
        largest_subnormal = -next_up(-from_bits(1 << (fmt.significand_bits - 1), fmt), fmt)
        edges = [ZERO, fmt.smallest_subnormal, largest_subnormal, fmt.max_finite]
        carries = 0
        for f in edges + powers + below:
            for g in {f, -f}:
                self.assert_matches_expansion(g, fmt, range(1, 41))
            exact = float_to_exact_decimal(f, fmt)
            carries += interval_to_decimal(FloatInterval(f, f), 1, fmt)[1].exponent > exact.exponent
        assert carries >= largest_exact_power

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
    def test_every_binade_end(self, fmt):
        # the lowest value of a binade can sit below the power of ten that
        # the estimate from its bit length names: 8 = 0.8 * 10^1 has bit
        # length 4 and estimate ceil(4 * log10 2) = 2
        p = fmt.significand_bits
        too_high = 0
        for e in range(fmt.least_exponent, fmt.emax - p + 2):
            low = exact_float(1, 1 << (p - 1), e, fmt)
            high = exact_float(1, (1 << p) - 1, e, fmt)
            for f in (low, high):
                self.assert_matches_expansion(f, fmt, (1, 2, 17, 40))
            estimate = _decimal_exponent_estimate(p + e)
            too_high += float_to_exact_decimal(low, fmt).exponent == estimate - 1
        assert too_high > 0

    def test_budget_below_one(self):
        iv = FloatInterval(float_one(BINARY32), float_one(BINARY32))
        with pytest.raises(ValueError):
            interval_to_decimal(iv, 0, BINARY32)


def _directed(n: int) -> tuple[Context, Context]:
    """libmpdec contexts that round to n digits toward -inf and +inf, with
    exponent limits no binary format reaches."""
    return tuple(
        Context(prec=n, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX)
        for rounding in (ROUND_FLOOR, ROUND_CEILING)
    )


def _decimal_of(d: DecimalScientific) -> Decimal:
    """The Decimal equal to sign * 0.digits * 10^exponent."""
    digits = d.mantissa.digits
    return Decimal((d.sign < 0, digits, d.exponent - len(digits)))


def _float_decimal(f: FloatValue) -> Decimal:
    """The exact Decimal of a finite float, built from integers alone:
    m * 2^e is m * 5^-e * 10^e when e < 0."""
    m, e = f.significand, f.exponent
    if e >= 0:
        return Decimal(f.sign * (m << e))
    return Decimal((f.sign < 0, Decimal(m * 5**-e).as_tuple().digits, e))


def _witness_floats(fmt: FloatFormat, rng: random.Random) -> list[FloatValue]:
    """Zero and positive floats of fmt: the subnormal ends and seeded
    subnormals, both ends of the outermost and of seeded binades, and the
    floats on and next to every power of ten from 10^-3 to 10^25, where
    rounding up to a few digits carries into 10^n, and to seeded others."""
    p, least = fmt.significand_bits, fmt.least_exponent
    top = fmt.emax - p + 1
    floats = [ZERO, fmt.smallest_subnormal, exact_float(1, (1 << (p - 1)) - 1, least, fmt)]
    floats += [exact_float(1, rng.randrange(1, 1 << (p - 1)), least, fmt) for _ in range(8)]
    for e in [least, top, *rng.sample(range(least, top + 1), min(16, top - least + 1))]:
        for m in (1 << (p - 1), (1 << p) - 1, rng.randrange(1 << (p - 1), 1 << p)):
            floats.append(exact_float(1, m, e, fmt))
    low, high = math.floor(least * math.log10(2)), math.ceil((fmt.emax + 1) * math.log10(2))
    powers = {*range(max(low, -3), min(high, 25) + 1)}
    powers.update(rng.sample(range(low, high + 1), min(12, high - low + 1)))
    for k in sorted(powers):
        interval = decimal_to_interval(parse_numeral(f"1e{k}"), fmt)
        for f in (interval.lb, interval.ub):
            if f.kind == "infinity":
                continue
            floats.append(f)
            if f.kind != "zero":
                floats += [-next_up(-f, fmt), next_up(f, fmt)]
    return [f for f in floats if f.kind != "infinity"]


WITNESS_DIGITS = [*range(1, 21), 40]


class TestOutwardRoundingAgainstLibmpdec:
    """Both n-digit roundings against libmpdec's directed rounding of the
    exact value, which shares no code with radival."""

    @pytest.mark.parametrize(
        "fmt",
        [BINARY16, BFLOAT16, BINARY32, BINARY64, BINARY128],
        ids=["binary16", "bfloat16", "binary32", "binary64", "binary128"],
    )
    def test_floats(self, fmt):
        rng = random.Random(fmt.bit_width + fmt.significand_bits)
        contexts = {n: _directed(n) for n in WITNESS_DIGITS}
        for f in _witness_floats(fmt, rng):
            for g in {f, -f}:
                x = _float_decimal(g)
                for n, (down, up) in contexts.items():
                    lo, hi = interval_to_decimal(FloatInterval(g, g), n, fmt)
                    assert _decimal_of(lo) == down.plus(x), (g, n)
                    assert _decimal_of(hi) == up.plus(x), (g, n)

    def test_truncate_directed(self):
        # mantissas of random digits and runs of nines, so that rounding
        # away from zero carries through any number of places
        rng = random.Random(2007)
        for _ in range(250):
            pieces = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    pieces.append("9" * rng.randint(1, 25))
                else:
                    pieces.append(str(rng.randrange(10 ** rng.randint(1, 15))))
            text = "".join(pieces).lstrip("0").rstrip("0") or "9"
            d = decimal(rng.choice([1, -1]), text, rng.randint(-400, 400))
            x = _decimal_of(d)
            for n in range(1, len(text) + 2):
                down, up = _directed(n)
                assert _decimal_of(truncate_directed(d, n, "down")) == down.plus(x), (d, n)
                assert _decimal_of(truncate_directed(d, n, "up")) == up.plus(x), (d, n)


class TestPlainDecimal:
    def test_exponent_placements(self):
        assert plain_decimal(decimal(1, "123", 0)) == "0.123"
        assert plain_decimal(decimal(1, "123", -2)) == "0.00123"
        assert plain_decimal(decimal(1, "123", 2)) == "12.3"
        assert plain_decimal(decimal(1, "123", 3)) == "123"
        assert plain_decimal(decimal(1, "123", 5)) == "12300"
        assert plain_decimal(decimal(-1, "5", 0)) == "-0.5"
        assert plain_decimal(DECIMAL_ZERO) == "0"
        assert plain_decimal(DecimalInfinity(-1)) == "-inf"

    @given(
        st.builds(
            decimal,
            st.sampled_from([1, -1]),
            st.from_regex(r"[1-9]([0-9]*[1-9])?", fullmatch=True),
            st.integers(-25, 25),
        )
    )
    def test_reparses_to_the_same_value(self, d):
        assert parse_numeral(plain_decimal(d)) == d


class TestBracketNotation:
    def test_shared_prefix(self):
        lo = decimal(1, "333333313465118408203125", 0)
        hi = decimal(1, "3333333432674407958984375", 0)
        text = bracket_notation(lo, hi).text()
        assert text == "0.3333333[13465118408203125,432674407958984375]"

    def test_degenerate(self):
        d = decimal(1, "5", 0)
        r = bracket_notation(d, d)
        assert r.text() == "0.5[,]"
        assert r.prefix == "0.5"

    def test_fallback_on_exponent_mismatch(self):
        r = bracket_notation(decimal(1, "9", 0), decimal(1, "1", 1))
        assert r.prefix == ""
        assert r.text() == "[0.9,1]"
        # same opening digit and a common "0.", but a different exponent
        assert bracket_notation(decimal(1, "12", -1), decimal(1, "15", 0)).text() == "[0.012,0.15]"

    def test_fallback_on_sign_mismatch(self):
        r = bracket_notation(decimal(-1, "5", 0), decimal(1, "5", 0))
        assert r.text() == "[-0.5,0.5]"

    def test_fallback_on_first_digit_mismatch(self):
        r = bracket_notation(decimal(1, "19", 0), decimal(1, "21", 0))
        assert r.text() == "[0.19,0.21]"

    def test_zero_bound_falls_back(self):
        r = bracket_notation(DECIMAL_ZERO, decimal(1, "1", -44))
        assert r.text().startswith("[0,0.")

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            bracket_notation(decimal(1, "6", 0), decimal(1, "5", 0))

    def test_order_against_exact_values(self):
        # every ordered pair of seeded decimals (1-4 digits at exponents -3
        # to 3, both signs), zero and both infinities: bracket_notation
        # refuses a pair exactly when its exact values are out of order
        rng = random.Random(403)
        values = [DECIMAL_ZERO, DecimalInfinity(1), DecimalInfinity(-1)]
        while len(values) < 403:
            digits = str(rng.randrange(1, 10 ** rng.randint(1, 4)))
            if digits[-1] != "0":
                values.append(decimal(rng.choice([1, -1]), digits, rng.randint(-3, 3)))

        def exact(d):
            # an infinity ranks past every finite value on its side
            if isinstance(d, DecimalInfinity):
                return d.sign, Fraction(0)
            return 0, oracle.exact_value(d)

        keys = sorted({exact(d) for d in values})
        rank = [keys.index(exact(d)) for d in values]
        for lo, lo_rank in zip(values, rank):
            for hi, hi_rank in zip(values, rank):
                try:
                    bracket_notation(lo, hi)
                    refused = False
                except ValueError:
                    refused = True
                assert refused == (lo_rank > hi_rank), (lo, hi)

    def test_negative_pair_shares_prefix(self):
        r = bracket_notation(decimal(-1, "338", 0), decimal(-1, "331", 0))
        assert r.prefix == "-0.33"
        assert r.text() == "-0.33[8,1]"

    @given(
        st.sampled_from([1, -1]),
        st.integers(-10, 10),
        st.from_regex(r"[1-9][0-9]{0,12}[1-9]", fullmatch=True),
        st.from_regex(r"[1-9][0-9]{0,12}[1-9]", fullmatch=True),
    )
    def test_prefix_plus_tail_reproduces_bounds(self, sign, exponent, da, db):
        a = decimal(sign, da, exponent)
        b = decimal(sign, db, exponent)
        if oracle.exact_value(a) > oracle.exact_value(b):
            a, b = b, a
        r = bracket_notation(a, b)
        assert r.prefix + r.low_tail == plain_decimal(a)
        assert r.prefix + r.high_tail == plain_decimal(b)
        # same sign and exponent, so the prefix form applies exactly when the
        # opening digits agree, and its prefix is never empty
        assert (r.prefix != "") == (da[0] == db[0])

    @pytest.mark.parametrize(
        "fmt, zeros", [(BINARY32, 38), (BINARY64, 300)], ids=["binary32", "binary64"]
    )
    def test_adjacent_subnormals_share_long_prefix(self, fmt, zeros):
        rng = random.Random(17)
        for _ in range(50):
            m = rng.randrange(1, (1 << (fmt.significand_bits - 1)) - 1)
            sign = rng.choice([1, -1])
            a, b = (exact_float(sign, k, fmt.least_exponent, fmt) for k in (m, m + 1))
            lo, hi = (float_to_exact_decimal(f, fmt) for f in sorted([a, b]))
            lo_text, hi_text = plain_decimal(lo), plain_decimal(hi)
            r = bracket_notation(lo, hi)
            assert r.prefix == commonprefix([lo_text, hi_text])
            assert len(r.prefix) > zeros
            assert (r.prefix + r.low_tail, r.prefix + r.high_tail) == (lo_text, hi_text)

    def test_fallback_tails_are_whole_bounds(self):
        r = bracket_notation(decimal(1, "19", 0), decimal(1, "21", 0))
        assert (r.prefix, r.low_tail, r.high_tail) == ("", "0.19", "0.21")

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
    def test_every_kernel_interval(self, fmt):
        # seeded intervals, infinite and zero bounds among them, rounded at
        # seeded budgets and printed exactly: each renders, and prefix +
        # tail is each bound's text
        rng = random.Random(3 * fmt.bit_width)
        tiny, top = fmt.smallest_subnormal, fmt.max_finite
        pairs = [
            (top, infinity(1)),
            (infinity(-1), -top),
            (infinity(-1), tiny),
            (infinity(1), infinity(1)),
            (infinity(-1), infinity(-1)),
            (infinity(-1), infinity(1)),
            (ZERO, ZERO),
            (ZERO, tiny),
            (-tiny, ZERO),
        ]
        while len(pairs) < 300:
            try:
                a, b = (from_bits(rng.getrandbits(fmt.bit_width), fmt) for _ in "ab")
            except DomainError:
                continue
            if rng.random() < 0.5:
                b = next_up(a, fmt) if a != infinity(1) else a
            pairs.append((min(a, b), max(a, b)))
        for a, b in pairs:
            rounded = interval_to_decimal(FloatInterval(a, b), rng.randint(1, 40), fmt)
            exact = float_to_exact_decimal(a, fmt), float_to_exact_decimal(b, fmt)
            for lo, hi in (rounded, exact):
                r = bracket_notation(lo, hi)
                assert r.prefix + r.low_tail == plain_decimal(lo)
                assert r.prefix + r.high_tail == plain_decimal(hi)
                if isinstance(lo, DecimalInfinity) or isinstance(hi, DecimalInfinity):
                    assert r.text() == f"[{plain_decimal(lo)},{plain_decimal(hi)}]"
                if lo != hi:
                    with pytest.raises(ValueError):
                        bracket_notation(hi, lo)


def test_shared_prefix_length_against_commonprefix():
    # seeded ASCII pairs: equal texts, one a prefix of the other, empty
    # texts, differences at index 0 and past 4,000 characters, and the
    # hex significands and exact decimals of adjacent binary64 floats
    rng = random.Random(34)

    def ascii_text(length):
        return "".join(chr(rng.randrange(128)) for _ in range(length))

    pairs = [("", ""), ("", "0.5"), ("0.5", ""), ("a", "b"), ("0.5", "0.55")]
    for length in (1, 7, 8, 9, 300, 4100, 5000):
        text = ascii_text(length)
        cut = rng.randrange(length + 1)
        pairs += [(text, text), (text, text[:cut]), (text[:cut], text)]
        pairs += [(text, chr(ord(text[0]) ^ 1) + text[1:])]
        for _ in range(20):
            k = rng.randrange(length)
            other = chr(ord(text[k]) ^ (1 << rng.randrange(7)))
            pairs.append((text, text[:k] + other + ascii_text(rng.randrange(length))))
    for _ in range(100):
        # finite patterns below the top value, so the step up is finite
        f = from_bits(rng.randrange(0x7FEFFFFFFFFFFFFF), BINARY64)
        pair = f, next_up(f, BINARY64)
        pairs.append(tuple(hex_significand_rendering(x, BINARY64) for x in pair))
        pairs.append(tuple(plain_decimal(float_to_exact_decimal(x, BINARY64)) for x in pair))
    # the window starts at _PREFIX_WINDOW bytes and grows fourfold: prefixes
    # that end one byte before, at and after each edge, with texts that go
    # on past it or stop where the prefix does
    edge = _PREFIX_WINDOW
    while edge <= 8192:
        for k in (edge - 1, edge, edge + 1):
            text = ascii_text(k + 40)
            other = chr(ord(text[k]) ^ 1)
            pairs += [(text, text[:k] + other + text[k + 1 :]), (text[:k] + other, text)]
            pairs += [(text[:k], text), (text, text[:k]), (text[: k + 1], text[: k + 1])]
        edge *= 4
    # a value near 1e-300 or 1e-4000 prints its bounds with that many
    # shared zeros after the point, so the window must keep growing
    for zeros in (300, 4000):
        lead = "0." + "0" * zeros
        pairs += [(lead + "1234", lead + "1235"), ("-" + lead + "98", "-" + lead + "99")]
        pairs += [(lead + "5", lead + "5"), (lead, lead + "7")]
    for a, b in pairs:
        assert _shared_prefix_length(a, b) == len(commonprefix([a, b])), (a, b)


def test_pow5_against_direct_powers():
    # every k a binary32 or binary64 record reaches, a few past the cap,
    # and two binary128 depths, which are raised afresh and never stored
    for k in [*range(1101), 5000, 16494]:
        assert _pow5(k) == 5**k, k
    assert _POW5_CAP == 1074
    assert max(_POW5) <= _POW5_CAP


def test_pow5_memo_under_thread_switches():
    """Eight threads fill a cleared memo at once, each in its own shuffled
    order, with the interpreter switching threads as often as it can: every
    power they get, and every entry left, is 5^k."""
    rng = random.Random(5)
    orders = [rng.sample(range(_POW5_CAP + 1), _POW5_CAP + 1) for _ in range(8)]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def ask(i):
        start.wait()
        results[i] = [(k, _pow5(k)) for k in orders[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _POW5.clear()
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for pairs in results:
        assert len(pairs) == _POW5_CAP + 1
        assert all(power == 5**k for k, power in pairs)
    assert sorted(_POW5) == list(range(_POW5_CAP + 1))
    assert all(power == 5**k for k, power in _POW5.items())


class TestHexSignificand:
    def test_binary32_grouping(self):
        iv = rational_to_interval(Rational(1, 1, 3), BINARY32)
        assert hex_significand_rendering(iv.ub, BINARY32) == "2^(-2) * 1.2aaaab"
        assert hex_significand_rendering(iv.lb, BINARY32) == "2^(-2) * 1.2aaaaa"

    def test_one_ninth_nearest(self):
        near = oracle.nearest_float(Fraction(1, 9), BINARY32)
        assert hex_significand_rendering(near, BINARY32) == "2^(-4) * 1.638e39"

    def test_powers_of_two(self):
        assert hex_significand_rendering(float_one(BINARY32), BINARY32) == "2^(0) * 1.000000"
        half = exact_float(1, 1, -1, BINARY32)
        assert hex_significand_rendering(half, BINARY32) == "2^(-1) * 1.000000"

    def test_binary64_grouping(self):
        assert (
            hex_significand_rendering(float_one(BINARY64), BINARY64) == "2^(0) * 1.0000000000000"
        )
        iv = decimal_to_interval(parse_numeral("0.1"), BINARY64)
        assert hex_significand_rendering(iv.lb, BINARY64) == "2^(-4) * 1.9999999999999"
        assert hex_significand_rendering(iv.ub, BINARY64) == "2^(-4) * 1.999999999999a"

    def test_negative_sign(self):
        f = exact_float(-1, 1, -1, BINARY32)
        assert hex_significand_rendering(f, BINARY32) == "-2^(-1) * 1.000000"

    def test_non_normal_kinds(self):
        # the texts the parse subcommand prints for these bounds
        for fmt in (BINARY32, BINARY64):
            assert hex_significand_rendering(ZERO, fmt) == "0"
            assert hex_significand_rendering(infinity(1), fmt) == "inf"
            assert hex_significand_rendering(infinity(-1), fmt) == "-inf"
        tiny32, tiny64 = BINARY32.smallest_subnormal, BINARY64.smallest_subnormal
        assert hex_significand_rendering(tiny32, BINARY32) == "2^(-126) * 0.000001"
        assert hex_significand_rendering(-tiny64, BINARY64) == "-2^(-1022) * 0.0000000000001"
        largest32 = -next_up(-from_bits(1 << 23, BINARY32), BINARY32)
        assert hex_significand_rendering(largest32, BINARY32) == "2^(-126) * 0.7fffff"

    @pytest.mark.parametrize(
        "fmt, width",
        [(BINARY16, 3), (BFLOAT16, 2), (BINARY32, 6), (BINARY64, 13), (BINARY128, 28)],
        ids=["16", "bfloat16", "32", "64", "128"],
    )
    def test_every_kind_agrees_with_the_bits(self, fmt, width):
        # the trailing significand field, read back from the text, is the
        # low bits of the pattern, and the exponent is the stored one
        rng = random.Random(fmt.bit_width)
        trailing_bits = fmt.significand_bits - 1
        for i in range(300):
            pattern = rng.getrandbits(fmt.bit_width)
            if i % 3 == 0:
                pattern &= (1 << (fmt.bit_width - 1)) | ((1 << trailing_bits) - 1)
            try:
                f = from_bits(pattern, fmt)
            except DomainError:
                continue
            text = hex_significand_rendering(f, fmt)
            if f.kind in ("zero", "infinity"):
                assert text in ("0", "inf", "-inf")
                continue
            head, digits = text.rsplit(".", 1)
            assert len(digits) == width
            assert int(digits, 16) == pattern & ((1 << trailing_bits) - 1)
            biased = (pattern >> trailing_bits) & ((1 << fmt.exponent_field_bits) - 1)
            lead = 1 if biased else 0
            power = max(biased, 1) - fmt.emax
            sign = "-" if pattern >> (fmt.bit_width - 1) else ""
            assert head == f"{sign}2^({power}) * {lead}"

    def test_bracket_shared(self):
        iv = rational_to_interval(Rational(1, 1, 3), BINARY32)
        assert hex_significand_bracket(iv, BINARY32) == "2^(-2) * 1.2aaaa[a,b]"

    def test_bracket_degenerate(self):
        iv = rational_to_interval(Rational(1, 1, 2), BINARY32)
        assert hex_significand_bracket(iv, BINARY32) == "2^(-1) * 1.000000[,]"

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
    def test_bracket_follows_the_decimal_rule(self, fmt):
        # zero and subnormal bounds factor as any others do, and an
        # infinite bound takes the plain pair, as bracket_notation does
        tiny, top, inf = fmt.smallest_subnormal, fmt.max_finite, infinity(1)
        tiny_text = hex_significand_rendering(tiny, fmt)
        top_text = hex_significand_rendering(top, fmt)
        assert hex_significand_bracket(FloatInterval(ZERO, ZERO), fmt) == "0[,]"
        assert hex_significand_bracket(FloatInterval(ZERO, tiny), fmt) == f"[0,{tiny_text}]"
        assert hex_significand_bracket(FloatInterval(tiny, tiny), fmt) == f"{tiny_text}[,]"
        assert hex_significand_bracket(FloatInterval(top, inf), fmt) == f"[{top_text},inf]"
        assert hex_significand_bracket(FloatInterval(inf, inf), fmt) == "[inf,inf]"
        assert hex_significand_bracket(FloatInterval(-inf, -inf), fmt) == "[-inf,-inf]"
        assert hex_significand_bracket(FloatInterval(-inf, inf), fmt) == "[-inf,inf]"
        pair = FloatInterval(tiny, next_up(tiny, fmt))
        assert hex_significand_bracket(pair, fmt).endswith("[1,2]")

    def test_bracket_binade_crossing_falls_back(self):
        below = exact_float(1, 2**24 - 1, -24, BINARY32)  # just under 1
        iv = FloatInterval(below, next_up(below, BINARY32))
        assert (
            hex_significand_bracket(iv, BINARY32)
            == "[2^(-1) * 1.7fffff,2^(0) * 1.000000]"
        )


def composed_fields(interval: FloatInterval, fmt: FloatFormat) -> tuple[str, ...]:
    """A parse record's fields from the public renderers one by one."""
    r = bracket_notation(
        float_to_exact_decimal(interval.lb, fmt), float_to_exact_decimal(interval.ub, fmt)
    )
    lb_hex = hex_significand_rendering(interval.lb, fmt)
    ub_hex = hex_significand_rendering(interval.ub, fmt)
    return lb_hex, r.prefix + r.low_tail, ub_hex, r.prefix + r.high_tail, r.text()


FIVE_FORMATS = [BINARY16, BFLOAT16, BINARY32, BINARY64, BINARY128]
FIVE_IDS = ["binary16", "bfloat16", "binary32", "binary64", "binary128"]


def written(interval: FloatInterval, fmt: FloatFormat) -> tuple[str, ...]:
    """enclosure_fields of an interval's bounds, given as their bare fields."""
    return enclosure_fields(tuple(interval.lb), tuple(interval.ub), fmt)


class TestEnclosureFields:
    @pytest.mark.parametrize("fmt", FIVE_FORMATS, ids=FIVE_IDS)
    def test_special_intervals(self, fmt):
        tiny, top, inf = fmt.smallest_subnormal, fmt.max_finite, infinity(1)
        top_hex = hex_significand_rendering(top, fmt)
        top_text = plain_decimal(float_to_exact_decimal(top, fmt))
        tiny_text = plain_decimal(float_to_exact_decimal(tiny, fmt))
        expected = {
            (inf, inf): ("inf", "inf", "inf", "inf", "[inf,inf]"),
            (-inf, -inf): ("-inf", "-inf", "-inf", "-inf", "[-inf,-inf]"),
            (-inf, inf): ("-inf", "-inf", "inf", "inf", "[-inf,inf]"),
            (top, inf): (top_hex, top_text, "inf", "inf", f"[{top_text},inf]"),
            (ZERO, ZERO): ("0", "0", "0", "0", "0[,]"),
        }
        for (a, b), fields in expected.items():
            assert written(FloatInterval(a, b), fmt) == fields
            assert composed_fields(FloatInterval(a, b), fmt) == fields
        # a zero bound never shares a prefix with a nonzero one
        assert written(FloatInterval(ZERO, tiny), fmt)[4] == f"[0,{tiny_text}]"
        assert written(FloatInterval(-tiny, ZERO), fmt)[4] == f"[-{tiny_text},0]"

    @pytest.mark.parametrize("fmt", FIVE_FORMATS, ids=FIVE_IDS)
    def test_matches_the_public_composition(self, fmt):
        # seeded degenerate, adjacent and unrelated pairs, a quarter of them
        # at a binade end so that many adjacent pairs cross a binade
        rng = random.Random(7 * fmt.bit_width + fmt.significand_bits)
        tiny, top, inf = fmt.smallest_subnormal, fmt.max_finite, infinity(1)
        pairs = [
            (inf, inf), (-inf, -inf), (-inf, inf), (ZERO, ZERO),
            (ZERO, tiny), (-tiny, ZERO), (top, inf), (-inf, -top),
        ]
        trailing = (1 << (fmt.significand_bits - 1)) - 1
        while len(pairs) < 600:
            pattern = rng.getrandbits(fmt.bit_width)
            if len(pairs) % 4 == 0:
                pattern |= trailing
            elif len(pairs) % 4 == 1:
                pattern &= ~trailing
            try:
                a = from_bits(pattern, fmt)
                b = from_bits(rng.getrandbits(fmt.bit_width), fmt)
            except DomainError:
                continue
            choice = len(pairs) % 3
            if choice == 0:
                b = a
            elif choice == 1:
                b = next_up(a, fmt) if a not in (inf, -inf) else a
            pairs.append((min(a, b), max(a, b)))
        for a, b in pairs:
            interval = FloatInterval(a, b)
            assert written(interval, fmt) == composed_fields(interval, fmt)


def test_bound_off_the_format_grid():
    # a binary64 value is not canonical for binary32: each renderer that
    # takes values refuses it rather than print it
    x = decimal_to_interval(parse_numeral("0.1"), BINARY64).lb
    for interval in (FloatInterval(x, x), FloatInterval(ZERO, x)):
        with pytest.raises(ValueError):
            hex_significand_bracket(interval, BINARY32)
        with pytest.raises(ValueError):
            interval_to_decimal(interval, 17, BINARY32)
    with pytest.raises(ValueError):
        hex_significand_rendering(x, BINARY32)
    with pytest.raises(ValueError):
        float_to_exact_decimal(x, BINARY32)


def edge_ratios(fmt: FloatFormat) -> list[tuple[int, int]]:
    """(num, den) pairs at m * 2^(e-1) for significands m that sit on the
    grid (even) or halfway between two grid values (odd): zero, both sides
    of the smallest subnormal and of the subnormal/normal boundary, a carry
    into the next binade, max finite and past it, thirds of each, and the
    far clamps. binary128 skips two exponents: its subnormals have about
    11,500 digits."""
    p, L = fmt.significand_bits, fmt.least_exponent
    top = fmt.emax - p + 1
    exponents = (L, 0, top) if fmt is BINARY128 else (L, L + 1, 1 - p, 0, top)
    ms = (1, 2, 3, (1 << p) - 2, (1 << p) - 1, 1 << p, (1 << p) + 1)
    ms += ((1 << (p + 1)) - 2, (1 << (p + 1)) - 1, 1 << (p + 1), (1 << (p + 1)) + 1)
    ratios = [(0, 1), (0, 3), (1, 1 << (4 - L)), (1 << (fmt.emax + 4), 1)]
    for e in exponents:
        for m in ms:
            num, den = (m << (e - 1), 1) if e >= 1 else (m, 1 << (1 - e))
            ratios += [(num, den), (num, 3 * den), (3 * num, 2 * den)]
    return ratios


# the host float codes of the two formats the host holds exactly
HOST_CODES = {BINARY32: "<f", BINARY64: "<d"}

# four spellings each of 0 and of 0.5
ZERO_SPELLINGS = ("0", "-0.000", "0e5")
HALF_SPELLINGS = ("0.50000", "000.5", "5000e-4", "5E-1")


def host_exact_numerals(fmt: FloatFormat, rng: random.Random) -> tuple[list[str], list[str]]:
    """Exact decimals of fmt's values as the host writes them (str of the
    Decimal of the host float): seeded random values of both signs, one in
    four subnormal, and in both signs the smallest subnormal, max finite
    and binade edges 2^k. Then over-long numerals: four of those exact
    decimals with 4,400 random digits and a 7 appended, as in the
    benchmark's exact-decimals corpus, which no format value equals."""
    code, t = HOST_CODES[fmt], fmt.significand_bits - 1
    top = (1 << fmt.exponent_field_bits) - 1

    def host(pattern: int) -> float:
        return struct.unpack(code, pattern.to_bytes(fmt.bit_width // 8, "little"))[0]

    patterns = [1, (top - 1) << t | ((1 << t) - 1)]
    for i in range(200):
        field = 0 if i % 4 == 0 else rng.randrange(1, top)
        patterns.append(rng.getrandbits(1) << (fmt.bit_width - 1) | field << t | rng.getrandbits(t))
    values = [host(pattern) for pattern in patterns]
    L, emin = fmt.least_exponent, fmt.emin
    edges = {L, L + 1, emin - 1, emin, emin + 1, -1, 0, 1, fmt.emax}
    values += [math.ldexp(1.0, k) for k in sorted(edges | set(range(L, fmt.emax, 37)))]
    values += [-x for x in values[:2] + values[len(patterns):]]
    exact = [str(Decimal(x)) for x in values if x]
    over_long = []
    for text in rng.sample(exact, 4):
        mantissa, marker, exponent = text.partition("E")
        tail = "".join(rng.choices("0123456789", k=4400)) + "7"
        over_long.append(mantissa + ("" if "." in mantissa else ".") + tail + marker + exponent)
    return exact, over_long


class TestFloorFields:
    """enclosure_fields and numeral_fields, the parse records' writers, given
    parse._bounds of a grid floor, give what the public renderers give for
    the public enclosure of the same value."""

    @pytest.mark.parametrize("fmt", FIVE_FORMATS, ids=FIVE_IDS)
    def test_matches_the_public_route(self, fmt):
        rng = random.Random(11 * fmt.bit_width + fmt.significand_bits)
        ratios, count = edge_ratios(fmt), 30 if fmt is BINARY128 else 300
        for _ in range(count):
            num, den = rng.getrandbits(rng.randrange(1, 80)), rng.getrandbits(rng.randrange(1, 80))
            shift = rng.randrange(fmt.least_exponent - 20, fmt.emax + 20)
            ratios.append((num << shift, den or 1) if shift >= 0 else (num, (den or 1) << -shift))
        numerals = [f"{rng.randrange(10**17)}e{rng.randrange(-400, 400)}" for _ in range(count)]
        for num, den in ratios:
            if den & (den - 1) == 0:
                # a dyadic value's exact decimal, and one a digit past it
                k = den.bit_length() - 1
                digits = _text_from_int(num * 5**k)
                numerals += [f"{digits}e-{k}", f"{digits}1e-{k + 1}"]
        numerals += ["-" + text for text in numerals]
        over_long = []
        if fmt in HOST_CODES:
            exact, over_long = host_exact_numerals(fmt, rng)
            numerals += [*exact, *over_long, *ZERO_SPELLINGS, *HALF_SPELLINGS]
        for sign in (1, -1):
            for num, den in ratios:
                r = Rational(sign, num, den)
                expected = composed_fields(rational_to_interval(r, fmt), fmt)
                bounds = _bounds(*_floor(sign, num, den, fmt), fmt)
                assert enclosure_fields(*bounds, fmt) == expected, (sign, num, den)
        exact_floors = 0
        for text in numerals:
            expected = composed_fields(decimal_to_interval(parse_numeral(text), fmt), fmt)
            floor = _decimal_floor(*_numeral(text), fmt)
            bounds = _bounds(*floor, fmt)
            assert enclosure_fields(*bounds, fmt) == expected, text
            assert numeral_fields(_numeral(text), *bounds, fmt) == expected, text
            exact_floors += not floor[3]
        # both routes of numeral_fields run: exact floors are one numeral in 3 to 14
        assert exact_floors > len(numerals) // 20
        for text in over_long:
            # the cut appends a sticky 5, so the floor is never exact
            assert _decimal_floor(*_numeral(text), fmt)[3], text
        for text in HALF_SPELLINGS if fmt in HOST_CODES else ():
            bounds = _bounds(*_decimal_floor(*_numeral(text), fmt), fmt)
            fields = numeral_fields(_numeral(text), *bounds, fmt)
            assert (fields[1], fields[3], fields[4]) == ("0.5", "0.5", "0.5[,]"), text

    @pytest.mark.parametrize(
        "text, fields",
        [
            (
                "1.99999999",
                ("2^(0) * 1.7fffff", "1.99999988079071044921875",
                 "2^(1) * 1.000000", "2", "[1.99999988079071044921875,2]"),
            ),
            (
                "-1.99999999",
                ("-2^(1) * 1.000000", "-2", "-2^(0) * 1.7fffff",
                 "-1.99999988079071044921875", "[-2,-1.99999988079071044921875]"),
            ),
            (
                "3.4028235e38",
                ("2^(127) * 1.7fffff", "340282346638528859811704183484516925440",
                 "inf", "inf", "[340282346638528859811704183484516925440,inf]"),
            ),
            (
                "-3.4028235e38",
                ("-inf", "-inf", "-2^(127) * 1.7fffff",
                 "-340282346638528859811704183484516925440",
                 "[-inf,-340282346638528859811704183484516925440]"),
            ),
        ],
        ids=["below-two", "above-minus-two", "past-max", "below-minus-max"],
    )
    def test_carry_into_the_next_binade(self, text, fields):
        # one unit past the top of a binade, the floor's upper neighbour is
        # the next power of two, or an infinity past max finite
        bounds = _bounds(*_decimal_floor(*_numeral(text), BINARY32), BINARY32)
        assert enclosure_fields(*bounds, BINARY32) == fields

    def test_exact_bound_written_once(self, monkeypatch):
        from radival import floatkit

        real, calls = floatkit._exact_digits, []

        def counted(m, e):
            calls.append((m, e))
            return real(m, e)

        monkeypatch.setattr(floatkit, "_exact_digits", counted)
        bounds = _bounds(*_decimal_floor(*_numeral("0.375"), BINARY64), BINARY64)
        fields = enclosure_fields(*bounds, BINARY64)
        assert fields == ("2^(-2) * 1.8000000000000", "0.375") * 2 + ("0.375[,]",)
        assert calls == [(3 << 51, -54)]
        # unequal bounds convert once each
        calls.clear()
        lower, upper = _bounds(*_decimal_floor(*_numeral("0.1"), BINARY32), BINARY32)
        enclosure_fields(lower, upper, BINARY32)
        assert calls == [lower[2:], upper[2:]]


def edge_patterns(fmt: FloatFormat) -> list[int]:
    """Bit patterns of both signs at the edges of the format: zero (the
    negative zero pattern among them), the smallest subnormal, both sides
    of the subnormal/normal boundary, the top of a binade whose successor
    carries into the next one, one, max finite and the infinity."""
    t, sign = fmt.significand_bits - 1, 1 << (fmt.bit_width - 1)
    one = to_bits(float_one(fmt), fmt)
    magnitudes = [0, 1, 2, (1 << t) - 1, 1 << t, (1 << t) + 1, one - 1, one, one + 1]
    top = ((1 << fmt.exponent_field_bits) - 1) << t
    magnitudes += [top - 2, top - 1, top]
    return [m | s for m in magnitudes for s in (0, sign)]


class TestOutwardFields:
    """outward_fields and exact_field, the print-interval and print records'
    writers, give what the public value route gives for the same bounds."""

    @pytest.mark.parametrize("fmt", FIVE_FORMATS, ids=FIVE_IDS)
    def test_matches_the_public_route(self, fmt):
        rng = random.Random(13 * fmt.bit_width + fmt.significand_bits)
        patterns = edge_patterns(fmt)
        count = 20 if fmt is BINARY128 else 150
        patterns += [rng.getrandbits(fmt.bit_width) for _ in range(count)]
        bounds = []
        for pattern in patterns:
            try:
                bounds.append((_bits_fields(pattern, fmt), from_bits(pattern, fmt)))
            except DomainError:
                continue
        # every bound alone, with its neighbour in pattern order, and with a random one
        pairs = [(a, a) for a in bounds]
        pairs += list(zip(bounds, bounds[1:]))
        pairs += [(a, rng.choice(bounds)) for a in bounds]
        for a, b in pairs:
            (low, lb), (high, ub) = sorted([a, b], key=lambda bound: bound[1])
            finite = [f for f in (lb, ub) if f.kind != KIND_INFINITE]
            # one digit past the longer exact expansion prints both bounds exactly
            past = max((len(float_to_exact_decimal(f, fmt).mantissa) for f in finite), default=0)
            for n in (1, 17, 40, past + 1):
                r = bracket_notation(*interval_to_decimal(FloatInterval(lb, ub), n, fmt))
                expected = r.prefix + r.low_tail, r.prefix + r.high_tail, r.text()
                assert outward_fields(low, high, n) == expected, (fmt, lb, ub, n)
        for fields, f in bounds:
            assert exact_field(fields) == plain_decimal(float_to_exact_decimal(f, fmt)), f

    def test_budget_below_one(self):
        with pytest.raises(ValueError):
            outward_fields(tuple(ZERO), tuple(ZERO), 0)
