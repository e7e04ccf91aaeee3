"""Digit-string arithmetic against hand-worked cases and value identities."""

import random
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radival.digitstring import (
    FRACTION,
    INTEGER,
    DigitString,
    _int_from_digits,
    _text_from_int,
    div2,
    double_integer,
    mul2,
)

fraction_digits = st.lists(st.integers(0, 9), max_size=30).map(DigitString.fraction)
integer_digits = st.lists(st.integers(0, 9), max_size=30).map(DigitString.integer)


def frac(text: str) -> DigitString:
    return DigitString.fraction(text)


def value_of(m: DigitString) -> Fraction:
    """Independent value map: digit-weighted sum, not the library's."""
    if m.role == FRACTION:
        return sum(
            (Fraction(d, 10 ** (i + 1)) for i, d in enumerate(m.digits)),
            Fraction(0),
        )
    total = 0
    for d in m.digits:
        total = total * 10 + d
    return Fraction(total)


class TestConstruction:
    def test_fraction_factory_strips_trailing_zeros(self):
        assert frac("1230").digits == (1, 2, 3)
        assert frac("100").digits == (1,)
        assert frac("000").digits == ()

    def test_integer_factory_strips_leading_zeros(self):
        assert DigitString.integer("0012").digits == (1, 2)
        assert DigitString.integer("000").digits == ()

    def test_direct_constructor_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            DigitString((1, 0), FRACTION)
        with pytest.raises(ValueError):
            DigitString((0, 1), INTEGER)
        with pytest.raises(ValueError):
            DigitString((3, 11), FRACTION)
        with pytest.raises(ValueError):
            DigitString((-1,), FRACTION)

    @pytest.mark.parametrize(
        "digits",
        [[1, 10], [-1], b"12", (5, 300), pytest.param(iter([1, 10]), id="iter([1, 10])")],
        ids=repr,
    )
    def test_out_of_range_digits_named(self, digits):
        # each element outside 0..9 is rejected under the caller's own input,
        # not as the text it would map to (':' for 10, '/' for -1, 'ab' for
        # the bytes 49 and 50); an iterator is named by its elements
        one_shot = isinstance(digits, Iterator)
        if one_shot:
            digits = list(digits)
        message = f"digits out of range in {digits!r}"
        for build in (DigitString, DigitString.fraction, DigitString.integer):
            with pytest.raises(ValueError) as caught:
                build(iter(digits) if one_shot else digits)
            assert str(caught.value) == message

    def test_rejects_nondigit_text(self):
        with pytest.raises(ValueError):
            frac("12a")
        with pytest.raises(ValueError):
            frac("1٠2")  # arabic-indic digit is not ascii

    def test_text_round_trip(self):
        assert frac("405").as_text() == "405"
        assert frac("").as_text() == ""
        assert len(frac("405")) == 3

    @given(st.lists(st.integers(0, 9), max_size=30), st.sampled_from([FRACTION, INTEGER]))
    def test_text_and_int_forms_agree(self, digits, role):
        def build(arg):
            try:
                return DigitString(arg, role)
            except ValueError:
                return None

        text = "".join(map(str, digits))
        from_ints, from_text = build(tuple(digits)), build(text)
        # canonical or not, the two forms accept and reject alike
        assert (from_ints is None) == (from_text is None)
        if from_text is not None:
            assert from_ints == from_text
            assert hash(from_ints) == hash(from_text)
            assert from_text.digits == tuple(digits)
            assert from_ints.as_text() == text


class TestMul2:
    def test_plain_doubling(self):
        assert mul2(frac("123")) == (frac("246"), 0)

    def test_carry_out(self):
        assert mul2(frac("7872")) == (frac("5744"), 1)

    def test_single_trailing_zero_dropped(self):
        # 2 * 0.5 = 1.0 exactly: empty string, carry 1
        assert mul2(frac("5")) == (frac(""), 1)
        assert mul2(frac("25")) == (frac("5"), 0)

    def test_empty_is_zero(self):
        assert mul2(frac("")) == (frac(""), 0)

    def test_role_checked(self):
        with pytest.raises(ValueError):
            mul2(DigitString.integer("12"))

    @given(fraction_digits)
    def test_doubles_the_value(self, m):
        doubled, carry = mul2(m)
        assert carry in (0, 1)
        assert value_of(doubled) + carry == 2 * value_of(m)

    @given(fraction_digits)
    def test_preserves_length_bound(self, m):
        doubled, _ = mul2(m)
        assert len(doubled) <= len(m)


class TestDiv2:
    def test_even_digits(self):
        assert div2(frac("984")) == frac("492")

    def test_odd_tail_appends_five(self):
        assert div2(frac("5")) == frac("25")
        assert div2(frac("1")) == frac("05")

    def test_empty_is_zero(self):
        assert div2(frac("")) == frac("")

    @given(fraction_digits)
    def test_halves_the_value(self, m):
        assert value_of(div2(m)) == value_of(m) / 2

    @given(fraction_digits)
    def test_grows_by_at_most_one_digit(self, m):
        assert len(div2(m)) <= len(m) + 1

    @given(fraction_digits)
    def test_div2_then_mul2_is_identity(self, m):
        assert mul2(div2(m)) == (m, 0)

    @given(fraction_digits)
    def test_mul2_then_div2_recovers_with_carry_folded_back(self, m):
        doubled, carry = mul2(m)
        # halve carry.doubled by seeding the borrow chain with the carry
        out = []
        rem = carry
        for d in doubled.digits:
            cur = 10 * rem + d
            out.append(cur // 2)
            rem = cur % 2
        if rem:
            out.append(5)
        assert DigitString.fraction(out) == m


class TestDoubleInteger:
    def test_plain(self):
        assert double_integer(DigitString.integer("123")) == DigitString.integer("246")

    def test_carry_grows(self):
        assert double_integer(DigitString.integer("999")) == DigitString.integer("1998")

    def test_empty(self):
        assert double_integer(DigitString.integer("")) == DigitString.integer("")

    @given(integer_digits)
    def test_doubles_the_value(self, m):
        assert value_of(double_integer(m)) == 2 * value_of(m)


class TestIntFromDigits:
    # 5000 and 9001 digits are past CPython's default int/str limit of 4300
    @pytest.mark.parametrize("k", [1, 4000, 5000, 9001])
    def test_powers_of_ten_and_nines(self, k):
        assert _int_from_digits("1" + "0" * k) == 10**k
        assert _int_from_digits("9" * k) == 10**k - 1

    def test_leading_zeros(self):
        assert _int_from_digits("0" * 5000 + "7") == 7


class TestTextFromInt:
    def test_matches_str_under_the_limit(self):
        assert _text_from_int(0) == "0"
        assert _text_from_int(7, 3) == "007"
        assert _text_from_int(10**4000 - 1) == "9" * 4000

    def test_round_trips_through_int_from_digits(self):
        # seeded digit texts with leading zeros, up to 30k digits; the
        # default int/str limit is 4300
        rng = random.Random(4300)
        widths = [1, 3913, 3914, 4300, 4301, 9001, 30000]
        for width in widths + [rng.randint(1, 30000) for _ in range(8)]:
            text = "".join(rng.choice("0123456789") for _ in range(width))
            assert _text_from_int(_int_from_digits(text), width) == text
