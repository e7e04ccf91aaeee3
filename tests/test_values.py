"""The value classes: immutable, equal and hashed by their fields, with the
same repr the former dataclasses printed, and formats whose derived
constants are computed once."""

import copy
import pickle

import pytest

from radival.digitstring import DigitString
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    FloatFormat,
    FloatInterval,
    FloatValue,
)
from radival.parse import DecimalScientific, Rational
from radival.render import BracketRendering, DecimalInfinity

HALF = FloatValue(KIND_NORMAL, 1, 1 << 23, -24)
VALUES = [
    (DigitString("125"), "DigitString(text='125', role='fraction')"),
    (BINARY32, "FloatFormat(significand_bits=24, emin=-126, emax=127)"),
    (HALF, "FloatValue(normal 8388608*2^-24)"),
    (
        FloatInterval(HALF, HALF),
        "FloatInterval(lb=FloatValue(normal 8388608*2^-24),"
        " ub=FloatValue(normal 8388608*2^-24))",
    ),
    (
        DecimalScientific(-1, DigitString("5"), 0),
        "DecimalScientific(sign=-1, mantissa=DigitString(text='5', role='fraction'),"
        " exponent=0)",
    ),
    (Rational(1, 3, 7), "Rational(sign=1, p=3, q=7)"),
    (DecimalInfinity(-1), "DecimalInfinity(sign=-1)"),
    (
        BracketRendering("0.5", "", ""),
        "BracketRendering(prefix='0.5', low_tail='', high_tail='')",
    ),
]
IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
class TestValueClasses:
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_fields_are_read_only(self, value, text):
        name = type(value)._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_copies_are_equal(self, value, text):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value
            assert hash(twin) == hash(value)
            assert repr(twin) == text


def test_equality_follows_fields_and_class():
    assert DigitString("12") == DigitString([1, 2])
    assert DigitString("12") != DigitString("12", "integer")
    assert Rational(1, 3, 7) != Rational(1, 6, 14)
    assert DecimalInfinity(1) != Rational(1, 1, 1)
    assert len({DigitString("12"), DigitString((1, 2)), DigitString("21")}) == 2


class TestFormatConstants:
    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
    def test_derived_once(self, fmt):
        p, emin, emax = fmt.significand_bits, fmt.emin, fmt.emax
        assert fmt.least_exponent == emin - p + 1
        assert fmt.exponent_field_bits == (emax + 1).bit_length()
        assert fmt.bit_width == fmt.exponent_field_bits + p
        top, bottom = fmt.max_finite, fmt.smallest_subnormal
        assert top._key() == (KIND_NORMAL, 1, (1 << p) - 1, emax - p + 1)
        assert bottom._key() == (KIND_SUBNORMAL, 1, 1, fmt.least_exponent)
        assert fmt.one._key() == (KIND_NORMAL, 1, 1 << (p - 1), 1 - p)
        # built with the format, not on each access
        assert fmt.max_finite is top and fmt.smallest_subnormal is bottom

    def test_identity_is_the_three_parameters(self):
        twin = FloatFormat(24, -126, 127)
        assert twin == BINARY32 and hash(twin) == hash(BINARY32)
        assert twin != BINARY64
        assert FloatFormat(24, -126, 128) != BINARY32
