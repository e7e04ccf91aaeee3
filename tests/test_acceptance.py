"""Acceptance gate: ten criteria, one printed PASS or FAIL line each.

Run with -s to see the lines as they complete:

    python -m pytest -s tests/test_acceptance.py -v

The bulk sweeps are deterministic (fixed seeds) and every expected value
comes from the independent big-rational oracle, never from the code under
test.
"""

import contextlib
import io
import pathlib
import random
import time
from fractions import Fraction

from radival import cli, oracle
from radival.digitstring import DigitString, div2, double_integer, mul2
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    KIND_ZERO,
)
from radival.parse import (
    DecimalScientific,
    decimal_to_interval,
    parse_numeral,
    rational_to_interval,
    Rational,
)
from radival.render import (
    bracket_notation,
    float_to_exact_decimal,
    interval_to_decimal,
)
from radival.staged import binarize_exponent, fraction_bits, mantissa_bits, normalize_mantissa
from radival.value import ZERO, FloatInterval, from_bits, next_up, to_bits

GOLDEN_TABLE = pathlib.Path(__file__).parent / "data" / "reference_table.txt"

FORMATS = {"binary32": BINARY32, "binary64": BINARY64}


@contextlib.contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL: {label}")
        raise
    print(f"PASS: {label} ({time.perf_counter() - start:.2f}s)")


def test_criterion_01_golden_table():
    with criterion("criterion 1: golden unit-fraction table, byte-exact"):
        out = io.StringIO()
        start = time.perf_counter()
        status = cli.run(["table"], stdin=io.StringIO(), stdout=out, stderr=out)
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        assert status == 0
        assert text == GOLDEN_TABLE.read_text()
        assert "2^(-2) * 1.2aaaa[a,b]" in text
        assert "2^(-3) * 1.12492[4,5]" in text
        assert "2^(-4) * 1.3a2e8[c,d]" in text
        assert elapsed < 1.0


def test_criterion_02_exact_decimals_of_third_bounds():
    with criterion("criterion 2: exact decimals of the binary32 bounds of 1/3"):
        start = time.perf_counter()
        iv = rational_to_interval(Rational(1, 1, 3), BINARY32)
        lo = float_to_exact_decimal(iv.lb, BINARY32)
        hi = float_to_exact_decimal(iv.ub, BINARY32)
        elapsed = time.perf_counter() - start
        assert lo.mantissa.text == "333333313465118408203125"
        assert hi.mantissa.text == "3333333432674407958984375"
        assert lo.exponent == 0 and hi.exponent == 0
        assert elapsed < 1.0


def test_criterion_03_bracket_notation_of_third():
    with criterion("criterion 3: shared-prefix bracket text for 1/3"):
        iv = rational_to_interval(Rational(1, 1, 3), BINARY32)
        lo = float_to_exact_decimal(iv.lb, BINARY32)
        hi = float_to_exact_decimal(iv.ub, BINARY32)
        text = bracket_notation(lo, hi).text()
        assert text == "0.3333333[13465118408203125,432674407958984375]"


def test_criterion_04_staged_binarization():
    with criterion("criterion 4: staged conversion states for 0.123 * 10^-1"):
        m0 = DigitString.fraction("123")
        m1, bexp1 = binarize_exponent(m0, -1)
        assert m1 == DigitString.fraction("1968")
        assert bexp1 == -4
        m2, bexp2 = normalize_mantissa(m1, bexp1)
        assert m2 == DigitString.fraction("7872")
        assert bexp2 == -6
        assert mantissa_bits(m2, 5) == [1, 1, 0, 0, 1]


def test_criterion_05_three_sevenths_bits():
    with criterion("criterion 5: repeating bit stream of 3/7"):
        assert fraction_bits(3, 7, 27) == [0, 1, 1] * 9


def _random_decimal(rng, max_len, exp_range):
    length = rng.randint(1, max_len)
    digits = [rng.randint(1, 9)]
    digits += [rng.randint(0, 9) for _ in range(length - 1)]
    sign = rng.choice((1, -1))
    exponent = rng.randint(-exp_range, exp_range)
    return DecimalScientific(sign, DigitString.fraction(digits), exponent)


def test_criterion_06_containment_and_tightness():
    label = "criterion 6: 2 * 10^5 random numerals agree with the reference"
    with criterion(label):
        start = time.perf_counter()
        cases = 0
        for fmt, exp_range in ((BINARY32, 60), (BINARY64, 350)):
            rng = random.Random(0xC6 * fmt.significand_bits)
            for _ in range(100_000):
                d = _random_decimal(rng, 40, exp_range)
                iv = decimal_to_interval(d, fmt)
                ref = oracle.narrowest_interval_reference(oracle.exact_value(d), fmt)
                assert to_bits(iv.lb, fmt) == to_bits(ref.lb, fmt)
                assert to_bits(iv.ub, fmt) == to_bits(ref.ub, fmt)
                cases += 1
        assert cases == 200_000
        assert time.perf_counter() - start < 60.0


def _random_finite_patterns(rng, fmt, total, forced_subnormals):
    """Finite bit patterns, the first block all subnormal."""
    frac_bits = fmt.significand_bits - 1
    exp_mask = (1 << fmt.exponent_field_bits) - 1
    produced = 0
    while produced < forced_subnormals:
        sign = rng.getrandbits(1)
        fraction = rng.randint(1, (1 << frac_bits) - 1)
        yield (sign << (fmt.bit_width - 1)) | fraction
        produced += 1
    while produced < total:
        pattern = rng.getrandbits(fmt.bit_width)
        if (pattern >> frac_bits) & exp_mask == exp_mask:
            continue  # infinity or NaN
        yield pattern
        produced += 1


def test_criterion_07_round_trip():
    label = "criterion 7: 2 * 10^5 floats round-trip through exact decimals"
    with criterion(label):
        for fmt in FORMATS.values():
            rng = random.Random(0xC7 * fmt.significand_bits)
            subnormals = 0
            for pattern in _random_finite_patterns(rng, fmt, 100_000, 1_000):
                f = from_bits(pattern, fmt)
                if f.kind == KIND_SUBNORMAL:
                    subnormals += 1
                d = float_to_exact_decimal(f, fmt)
                back = decimal_to_interval(d, fmt)
                assert back.degenerate
                assert to_bits(back.lb, fmt) == to_bits(f, fmt)
                assert to_bits(back.ub, fmt) == to_bits(f, fmt)
            assert subnormals >= 1_000


def test_criterion_08_outward_truncation():
    label = "criterion 8: 10^4 random intervals truncate outward, minimally"
    with criterion(label):
        intervals = 0
        for fmt in FORMATS.values():
            rng = random.Random(0xC8 * fmt.significand_bits)
            patterns = _random_finite_patterns(rng, fmt, 10_000, 200)
            for pa, pb in zip(patterns, patterns):
                a, b = from_bits(pa, fmt), from_bits(pb, fmt)
                if b < a:
                    a, b = b, a
                iv = FloatInterval(a, b)
                da = float_to_exact_decimal(a, fmt)
                db = float_to_exact_decimal(b, fmt)
                xa, xb = oracle.exact_value(da), oracle.exact_value(db)
                for n in range(1, 21):
                    lo, hi = interval_to_decimal(iv, n, fmt)
                    vlo, vhi = oracle.exact_value(lo), oracle.exact_value(hi)
                    assert vlo <= xa <= xb <= vhi
                    assert len(lo.mantissa.digits) <= n
                    assert len(hi.mantissa.digits) <= n
                    # greatest/least n-digit decimal: within one grid step
                    if not da.is_zero:
                        assert xa - vlo < Fraction(10) ** (da.exponent - n)
                    else:
                        assert vlo == 0
                    if not db.is_zero:
                        assert vhi - xb < Fraction(10) ** (db.exponent - n)
                    else:
                        assert vhi == 0
                intervals += 1
        assert intervals == 10_000


def _digit_value(ds):
    text = ds.text
    return Fraction(int(text or "0"), 10 ** len(text))


def test_criterion_09_digit_string_identities():
    label = "criterion 9: 10^5 digit strings double and halve exactly"
    with criterion(label):
        rng = random.Random(0xC9)
        checks = 0
        while checks < 100_000:
            length = rng.randint(1, 30)
            raw = [rng.randint(0, 9) for _ in range(length)]
            m = DigitString.fraction(raw)
            v = _digit_value(m)

            doubled, carry = mul2(m)
            assert carry in (0, 1)
            assert carry + _digit_value(doubled) == 2 * v

            halved = div2(m)
            assert _digit_value(halved) == v / 2

            whole = DigitString.integer(raw)
            n = int(whole.text or "0")
            assert int(double_integer(whole).text or "0") == 2 * n
            checks += 3


def _edge_cases():
    """Curated numerals with the expected enclosure shape per format."""
    cases = []

    def add(fmt, text, lb_kind, ub_kind, degenerate):
        cases.append((fmt, text, lb_kind, ub_kind, degenerate))

    def power_of_two(k):
        return str(2**k) if k >= 0 else f"{5 ** -k}e{k}"

    for k in (-149, -128, -127):
        add(BINARY32, power_of_two(k), KIND_SUBNORMAL, KIND_SUBNORMAL, True)
    for k in (-126, -125, -24, -1, 0, 1, 24, 104, 127):
        add(BINARY32, power_of_two(k), KIND_NORMAL, KIND_NORMAL, True)
    for k in (-1074, -1024, -1023):
        add(BINARY64, power_of_two(k), KIND_SUBNORMAL, KIND_SUBNORMAL, True)
    for k in (-1022, -53, 0, 53, 971, 1023):
        add(BINARY64, power_of_two(k), KIND_NORMAL, KIND_NORMAL, True)

    # largest finite values, exactly and nudged just above
    b32_max = (2**24 - 1) << 104
    b64_max = (2**53 - 1) << 971
    add(BINARY32, str(b32_max), KIND_NORMAL, KIND_NORMAL, True)
    add(BINARY32, str(b32_max + 1), KIND_NORMAL, KIND_INFINITE, False)
    add(BINARY32, f"-{b32_max}", KIND_NORMAL, KIND_NORMAL, True)
    add(BINARY64, str(b64_max), KIND_NORMAL, KIND_NORMAL, True)
    add(BINARY64, str(b64_max + 1), KIND_NORMAL, KIND_INFINITE, False)

    # overflow-magnitude numerals
    add(BINARY32, "1e39", KIND_NORMAL, KIND_INFINITE, False)
    add(BINARY32, "-1e39", KIND_INFINITE, KIND_NORMAL, False)
    add(BINARY32, "3.4028236e38", KIND_NORMAL, KIND_INFINITE, False)
    add(BINARY32, "1e999999999", KIND_NORMAL, KIND_INFINITE, False)
    add(BINARY64, "1e309", KIND_NORMAL, KIND_INFINITE, False)
    add(BINARY64, "-1e309", KIND_INFINITE, KIND_NORMAL, False)
    add(BINARY64, "1.7976931348623159e308", KIND_NORMAL, KIND_INFINITE, False)

    # below and around the smallest subnormal
    add(BINARY32, "1e-46", KIND_ZERO, KIND_SUBNORMAL, False)
    add(BINARY32, "1e-45", KIND_ZERO, KIND_SUBNORMAL, False)
    add(BINARY32, "1.5e-45", KIND_SUBNORMAL, KIND_SUBNORMAL, False)
    add(BINARY32, "-1e-46", KIND_SUBNORMAL, KIND_ZERO, False)
    add(BINARY32, "1e-999999999", KIND_ZERO, KIND_SUBNORMAL, False)
    add(BINARY64, "1e-324", KIND_ZERO, KIND_SUBNORMAL, False)
    add(BINARY64, "6e-324", KIND_SUBNORMAL, KIND_SUBNORMAL, False)

    # the normal/subnormal boundary, exactly and straddled
    b32_top_sub = (2**23 - 1) * 5**149
    add(BINARY32, f"{b32_top_sub}e-149", KIND_SUBNORMAL, KIND_SUBNORMAL, True)
    add(BINARY32, f"{(2 ** 24 - 1) * 5 ** 150}e-150", KIND_SUBNORMAL, KIND_NORMAL, False)
    add(BINARY64, f"{(2 ** 52 - 1) * 5 ** 1074}e-1074", KIND_SUBNORMAL, KIND_SUBNORMAL, True)
    add(BINARY64, f"{(2 ** 53 - 1) * 5 ** 1075}e-1075", KIND_SUBNORMAL, KIND_NORMAL, False)

    # first integers that stop being exact
    add(BINARY32, "16777215", KIND_NORMAL, KIND_NORMAL, True)
    add(BINARY32, "16777216", KIND_NORMAL, KIND_NORMAL, True)
    add(BINARY32, "16777217", KIND_NORMAL, KIND_NORMAL, False)
    add(BINARY64, "9007199254740992", KIND_NORMAL, KIND_NORMAL, True)
    add(BINARY64, "9007199254740993", KIND_NORMAL, KIND_NORMAL, False)

    # zeros and ordinary inexact numerals
    add(BINARY32, "0", KIND_ZERO, KIND_ZERO, True)
    add(BINARY32, "-0.0e7", KIND_ZERO, KIND_ZERO, True)
    add(BINARY32, "-0.1", KIND_NORMAL, KIND_NORMAL, False)
    add(BINARY64, "0.1", KIND_NORMAL, KIND_NORMAL, False)
    return cases


def test_criterion_10_edge_sweep():
    with criterion("criterion 10: curated edge sweep over both formats"):
        cases = _edge_cases()
        assert len(cases) >= 50
        for fmt, text, lb_kind, ub_kind, degenerate in cases:
            d = parse_numeral(text)
            iv = decimal_to_interval(d, fmt)
            label = f"{text[:40]} [{('b32', 'b64')[fmt is BINARY64]}]"
            assert iv.lb.kind == lb_kind, label
            assert iv.ub.kind == ub_kind, label
            assert iv.degenerate == degenerate, label
            if not degenerate:
                # off-grid values sit between adjacent format values
                probe = iv if iv.lb.kind != KIND_INFINITE else -iv
                assert next_up(probe.lb, fmt) == probe.ub, label
            if abs(d.exponent) > 400:
                # the exact value of 1e999999999 is a gigabyte-long integer
                # no oracle should build; the kind and adjacency assertions
                # above already force the one possible clamped enclosure
                continue
            x = oracle.exact_value(d)
            ref = oracle.narrowest_interval_reference(x, fmt)
            assert iv.lb == ref.lb and iv.ub == ref.ub, label
            if iv.lb.kind != KIND_INFINITE:
                assert oracle.float_exact_value(iv.lb) <= x, label
            if iv.ub.kind != KIND_INFINITE:
                assert x <= oracle.float_exact_value(iv.ub), label
