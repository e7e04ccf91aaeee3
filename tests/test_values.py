"""The value classes: immutable tuples of their fields, equal and hashed by
them, with the same repr the former dataclasses printed, rebuilt through
their checks by copy and pickle, and never equal to their bare fields;
formats, slotted, with derived constants computed once: the integer ones
with the format, the two values on their first access."""

import copy
import operator
import pickle
import struct

import pytest

from radival.digitstring import INTEGER, DigitString
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    KIND_ZERO,
    FloatFormat,
)
from radival.parse import DecimalScientific, Rational
from radival.render import BracketRendering, DecimalInfinity
from radival.value import ZERO, FloatInterval, FloatValue, as_py_float, to_bits

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
# a second value of a class goes under a name of its own
VALUES.append((FloatValue(KIND_INFINITE, -1, 0, 0), "FloatValue(-inf)"))
IDS.append("FloatValue-infinite")
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


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
        pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in PROTOCOLS]
        for twin in (copy.copy(value), copy.deepcopy(value), *pickled):
            assert type(twin) is type(value)
            assert twin == value
            assert hash(twin) == hash(value)
            assert repr(twin) == text


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "value, field, forged",
    [(DigitString("125"), b"125", b"120"), (HALF, b"normal", b"nurmal")],
    ids=["trailing-zero-fraction", "unknown-kind"],
)
def test_pickle_rebuilds_through_the_checks(value, field, forged, protocol):
    # a pickle names the class and its fields, so a field edited in the
    # bytes meets __new__'s checks on load, in every protocol; a tuple
    # rebuilt by tuple.__new__ would skip them
    data = pickle.dumps(value, protocol)
    assert data.count(field) == 1
    with pytest.raises(ValueError):
        pickle.loads(data.replace(field, forged))


@pytest.mark.parametrize(
    "fields",
    [
        ("nan", 1, 0, 0),
        (KIND_NORMAL, 0, 1 << 23, -23),
        (KIND_NORMAL, 1, 0, -23),
        (KIND_SUBNORMAL, -1, -1, -149),
        (KIND_ZERO, -1, 0, 0),
        (KIND_ZERO, 1, 0, 1),
        (KIND_INFINITE, 1, 1, 0),
    ],
)
def test_float_value_checks_its_fields(fields):
    with pytest.raises(ValueError):
        FloatValue(*fields)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (DecimalScientific, (0, DigitString("5"), 0), "sign must be"),
        (DecimalScientific, (1, DigitString("5", INTEGER), 0), "must be a fraction"),
        (DecimalScientific, (1, DigitString("05"), 0), "open with a nonzero"),
        (DecimalScientific, (-1, DigitString(""), 0), "zero is stored"),
        (Rational, (-2, 1, 3), "sign must be"),
        (Rational, (1, 1, 0), "zero denominator"),
        (Rational, (1, -1, 3), "nonnegative"),
        (DecimalInfinity, (0,), "sign must be"),
        (DigitString, ("12", "decimal"), "unknown role"),
    ],
    ids=[
        "decimal-sign", "decimal-integer-mantissa", "decimal-leading-zero", "decimal-signed-zero",
        "rational-sign", "rational-zero-denominator", "rational-negative-term",
        "infinity-sign", "digits-role",
    ],
)
def test_constructors_check_their_arguments(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_zero_fields_give_the_one_zero():
    assert FloatValue(KIND_ZERO, 1, 0, 0) is ZERO
    assert copy.copy(ZERO) is ZERO and copy.deepcopy(ZERO) is ZERO
    assert all(pickle.loads(pickle.dumps(ZERO, protocol)) is ZERO for protocol in PROTOCOLS)


def test_a_value_is_not_its_bare_fields():
    # a value is the tuple of its fields, yet equals only a value of its
    # class: tuple equality would make binary32's 1.0 equal its fields but
    # not binary64's 1.0, which equals it and shares its hash
    values = [HALF, ZERO, DigitString("125"), Rational(1, 3, 7), FloatInterval(HALF, HALF)]
    for value in values:
        fields = tuple(value)
        assert value != fields and fields != value
        assert not (value == fields or fields == value)
        assert fields not in {value} and value not in {fields}
        assert fields not in {value: 0} and value not in {fields: 0}
    wide = FloatValue(KIND_NORMAL, 1, 1 << 52, -53)
    assert HALF == wide and hash(HALF) == hash(wide)
    assert tuple(HALF) == (KIND_NORMAL, 1, 1 << 23, -24) != tuple(wide)


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_only_float_values_have_an_order(compare):
    # a FloatValue orders against FloatValues alone, not its bare fields,
    # and the other classes, whose field tuples would order lexicographically,
    # have no order at all
    pairs = [(HALF, tuple(HALF)), (tuple(HALF), HALF), (HALF, FloatInterval(HALF, HALF))]
    pairs += [(Rational(1, 1, 2), Rational(1, 1, 3)), (DigitString("1"), DigitString("2"))]
    for a, b in pairs:
        with pytest.raises(TypeError):
            compare(a, b)


def test_tuple_behaviour_of_a_digit_string():
    # len counts the digits; iteration, like indexing, gives the two fields
    digits = DigitString("125")
    assert len(digits) == 3 and len(DigitString("")) == 0
    assert tuple(digits) == ("125", "fraction") and digits[1] == "fraction"
    text, role = digits
    assert (text, role) == (digits.text, digits.role)


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
        assert tuple(top) == (KIND_NORMAL, 1, (1 << p) - 1, emax - p + 1)
        assert tuple(bottom) == (KIND_SUBNORMAL, 1, 1, fmt.least_exponent)
        # built on the first access, then kept: not built again on each access
        assert fmt.max_finite is top and fmt.smallest_subnormal is bottom

    def test_identity_is_the_three_parameters(self):
        twin = FloatFormat(24, -126, 127)
        assert twin == BINARY32 and hash(twin) == hash(BINARY32)
        assert twin != BINARY64
        assert FloatFormat(24, -126, 128) != BINARY32

    @staticmethod
    def fresh_binary32() -> FloatFormat:
        fmt = FloatFormat(24, -126, 127)
        assert fmt._extremes is None  # no value constant built yet
        return fmt

    def test_identity_holds_across_the_first_access(self):
        fmt = self.fresh_binary32()
        before = [copy.copy(fmt), copy.deepcopy(fmt)]
        before += [pickle.loads(pickle.dumps(fmt, protocol)) for protocol in PROTOCOLS]
        assert fmt.max_finite == BINARY32.max_finite
        after = [copy.copy(fmt), copy.deepcopy(fmt)]
        after += [pickle.loads(pickle.dumps(fmt, protocol)) for protocol in PROTOCOLS]
        for twin in before + after:
            assert type(twin) is FloatFormat
            assert twin == fmt == BINARY32 and hash(twin) == hash(fmt) == hash(BINARY32)
            assert repr(twin) == repr(BINARY32)
            assert twin.max_finite == fmt.max_finite
            assert twin.smallest_subnormal == fmt.smallest_subnormal

    def test_user_format_constants(self):
        binary16 = FloatFormat(11, -14, 15)
        top, bottom = binary16.max_finite, binary16.smallest_subnormal
        assert tuple(top) == (KIND_NORMAL, 1, 2047, 5)
        assert tuple(bottom) == (KIND_SUBNORMAL, 1, 1, -24)
        assert binary16.max_finite is top and binary16.smallest_subnormal is bottom
        # the host's half precision agrees: 65504 and 2^-24, patterns 7bff and 0001
        for value, pattern in ((top, 0x7BFF), (bottom, 0x0001)):
            assert to_bits(value, binary16) == pattern
            assert as_py_float(value) == struct.unpack("<e", pattern.to_bytes(2, "little"))[0]

    @pytest.mark.parametrize("accessed", [False, True], ids=["fresh", "accessed"])
    def test_writes_are_refused(self, accessed):
        fmt = self.fresh_binary32()
        if accessed:
            assert fmt.max_finite == BINARY32.max_finite
        for name in ("max_finite", "smallest_subnormal", "emax", "least_exponent", "extra"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(fmt, name, BINARY64.max_finite)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(fmt, name)
        assert fmt == BINARY32 and fmt.max_finite == BINARY32.max_finite

    def test_slot_reads_keep_the_generic_lookup(self):
        # a __getattr__ or __getattribute__ on the class would take every
        # slot read of the records off the interpreter's specialized path
        assert not {"__getattr__", "__getattribute__"} & set(vars(FloatFormat))
