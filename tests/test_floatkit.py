"""Format arithmetic, ordering, and the interchange-bit adapters.

The bit adapters are cross-checked against struct, which goes through the
host's float machinery and shares nothing with the integer arithmetic
under test.
"""

import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import BINARY16, exact_float, machine_epsilon
from radival import oracle
from radival.floatkit import (
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    ZERO,
    DomainError,
    FloatFormat,
    FloatInterval,
    FloatValue,
    NotRepresentable,
    as_py_float,
    decompose,
    from_bits,
    infinity,
    next_up,
    to_bits,
)

b32_patterns = st.integers(0, 2**32 - 1)
b64_patterns = st.integers(0, 2**64 - 1)


def is_nan_pattern(bits: int, fmt: FloatFormat) -> bool:
    t = fmt.significand_bits - 1
    w = fmt.exponent_field_bits
    return (bits >> t) & ((1 << w) - 1) == (1 << w) - 1 and bits & ((1 << t) - 1) != 0


class TestFormats:
    def test_binary32_parameters(self):
        assert BINARY32.least_exponent == -149
        assert BINARY32.exponent_field_bits == 8
        assert BINARY32.bit_width == 32

    def test_binary64_parameters(self):
        assert BINARY64.least_exponent == -1074
        assert BINARY64.exponent_field_bits == 11
        assert BINARY64.bit_width == 64

    def test_named_values(self):
        assert BINARY32.one == exact_float(1, 1, 0, BINARY32)
        assert BINARY32.max_finite.significand == 2**24 - 1
        assert BINARY32.max_finite.exponent == 104
        assert BINARY32.smallest_subnormal.exponent == -149

    def test_degenerate_format_rejected(self):
        with pytest.raises(ValueError):
            FloatFormat(1, -5, 5)
        with pytest.raises(ValueError):
            FloatFormat(24, 1, 127)


class TestConstruction:
    def test_exact_float_normalizes(self):
        f = exact_float(1, 3, -2, BINARY32)
        assert (f.significand, f.exponent) == (12582912, -24)
        assert f.kind == KIND_NORMAL

    def test_decompose_round_trips(self):
        f = exact_float(1, 3, -2, BINARY32)
        assert decompose(f, BINARY32) == (12582912, -24)
        assert decompose(ZERO, BINARY32) == (0, 0)

    def test_decompose_rejects_foreign_format(self):
        f = exact_float(1, 1, -30, BINARY64)
        decompose(f, BINARY64)
        with pytest.raises(ValueError):
            decompose(exact_float(1, (1 << 53) - 1, 0, BINARY64), BINARY32)

    def test_not_representable(self):
        with pytest.raises(NotRepresentable):
            exact_float(1, 1, -150, BINARY32)  # below the subnormal grid
        with pytest.raises(NotRepresentable):
            exact_float(1, 2**25 - 1, 0, BINARY32)  # 25 significand bits
        with pytest.raises(NotRepresentable):
            exact_float(1, 1, 128, BINARY32)  # above the finite range
        # the same payloads fit the wider format
        exact_float(1, 1, -150, BINARY64)
        exact_float(1, 2**25 - 1, 0, BINARY64)

    def test_subnormal_construction(self):
        f = exact_float(1, 2, -150, BINARY32)
        assert f.kind == KIND_SUBNORMAL
        assert (f.significand, f.exponent) == (1, -149)

    def test_zero_is_unsigned(self):
        assert exact_float(-1, 0, 10, BINARY32) is ZERO
        assert -ZERO is ZERO

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FloatValue(KIND_NORMAL, 1, 0, 0)
        with pytest.raises(ValueError):
            FloatValue(KIND_INFINITE, 1, 1, 0)
        with pytest.raises(ValueError):
            FloatValue("quiet", 1, 1, 0)


class TestOrderingAndEquality:
    def test_cross_format_value_equality(self):
        assert exact_float(1, 1, 0, BINARY32) == exact_float(1, 1, 0, BINARY64)
        assert exact_float(1, 3, -2, BINARY32) == exact_float(1, 3, -2, BINARY64)

    def test_ordering_chain(self):
        vals = [
            infinity(-1),
            -BINARY32.max_finite,
            -BINARY32.smallest_subnormal,
            ZERO,
            BINARY32.smallest_subnormal,
            BINARY32.one,
            BINARY32.max_finite,
            infinity(1),
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert lo < hi
            assert hi > lo
            assert lo != hi

    def test_hash_follows_equality(self):
        a = exact_float(1, 1, 0, BINARY32)
        b = exact_float(1, 1, 0, BINARY64)
        assert hash(a) == hash(b)

    @given(b32_patterns, b32_patterns)
    def test_order_agrees_with_host_floats(self, pa, pb):
        if is_nan_pattern(pa, BINARY32) or is_nan_pattern(pb, BINARY32):
            return
        a, b = from_bits(pa, BINARY32), from_bits(pb, BINARY32)
        fa = struct.unpack("<f", struct.pack("<I", pa))[0]
        fb = struct.unpack("<f", struct.pack("<I", pb))[0]
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)

    def test_order_across_formats(self):
        # values of three formats in both signs: zero, subnormals, one, the
        # top finite value, seeded patterns and both infinities, with each
        # binary16 value also placed on the binary64 grid, so equal values
        # meet with different (m, e) pairs
        rng = random.Random(2007)
        values = [ZERO, infinity(1), infinity(-1)]
        for fmt in (BINARY16, BINARY32, BINARY64):
            t = fmt.significand_bits - 1
            top = to_bits(fmt.max_finite, fmt)
            patterns = [1, 2, (1 << t) - 1, 1 << t, to_bits(fmt.one, fmt), top]
            for pattern in patterns + [rng.randrange(1, top) for _ in range(12)]:
                f = from_bits(pattern, fmt)
                values += [f, -f]
                if fmt is BINARY16:
                    values.append(exact_float(f.sign, f.significand, f.exponent, BINARY64))
        # the oracle's exact value orders the finite values; an infinity
        # ranks by its sign against all of them
        ranks = [
            (f.sign, 0) if f.kind == KIND_INFINITE else (0, oracle.float_exact_value(f))
            for f in values
        ]
        for a, ra in zip(values, ranks):
            for b, rb in zip(values, ranks):
                assert (a < b) == (ra < rb), (a, b)
                assert (a == b) == (ra == rb), (a, b)
                assert [a < b, a == b, b < a].count(True) == 1, (a, b)
                if ra == rb:
                    assert hash(a) == hash(b), (a, b)


class TestNextUp:
    def test_one_steps_by_epsilon(self):
        up = next_up(BINARY32.one, BINARY32)
        assert up.significand == 2**23 + 1

    def test_epsilon_is_the_gap_at_one(self):
        eps = machine_epsilon(BINARY32)
        assert (eps.significand, eps.exponent) == (2**23, -46)
        up = next_up(BINARY32.one, BINARY32)
        # 1 + eps == next_up(1) exactly
        assert as_py_float(up) == 1.0 + as_py_float(eps)

    def test_zero_to_smallest_subnormal(self):
        assert next_up(ZERO, BINARY32) == BINARY32.smallest_subnormal

    def test_max_finite_to_infinity(self):
        assert next_up(BINARY32.max_finite, BINARY32) == infinity(1)

    def test_negative_smallest_subnormal_to_zero(self):
        assert next_up(-BINARY32.smallest_subnormal, BINARY32) is ZERO

    def test_subnormal_to_normal_boundary(self):
        top_sub = FloatValue(KIND_SUBNORMAL, 1, 2**23 - 1, -149)
        up = next_up(top_sub, BINARY32)
        assert up.kind == KIND_NORMAL
        assert (up.significand, up.exponent) == (2**23, -149)

    def test_negative_binade_boundary(self):
        f = exact_float(-1, 1, 0, BINARY32)  # -1.0
        up = next_up(f, BINARY32)
        assert (up.significand, up.exponent) == (2**24 - 1, -24)

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            next_up(infinity(1), BINARY32)

    @given(b32_patterns)
    def test_matches_bit_increment_binary32(self, pattern):
        if is_nan_pattern(pattern, BINARY32):
            return
        f = from_bits(pattern, BINARY32)
        if f.kind == KIND_INFINITE:
            return
        up = next_up(f, BINARY32)
        if f == -BINARY32.smallest_subnormal:
            assert up is ZERO
        elif f.sign > 0:
            # adjacent positive patterns differ by one, and the infinity
            # pattern is one past max finite; zero counts with sign +1
            assert to_bits(up, BINARY32) == to_bits(f, BINARY32) + 1
        else:
            assert to_bits(up, BINARY32) == to_bits(f, BINARY32) - 1

    @given(b64_patterns)
    def test_matches_bit_increment_binary64(self, pattern):
        if is_nan_pattern(pattern, BINARY64):
            return
        f = from_bits(pattern, BINARY64)
        if f.kind == KIND_INFINITE:
            return
        up = next_up(f, BINARY64)
        if f == -BINARY64.smallest_subnormal:
            assert up is ZERO
        elif f.sign > 0:
            assert to_bits(up, BINARY64) == to_bits(f, BINARY64) + 1
        else:
            assert to_bits(up, BINARY64) == to_bits(f, BINARY64) - 1


class TestBits:
    def test_known_patterns(self):
        assert to_bits(BINARY32.one, BINARY32) == 0x3F800000
        assert to_bits(exact_float(-1, 1, -1, BINARY32), BINARY32) == 0xBF000000
        assert to_bits(infinity(1), BINARY32) == 0x7F800000
        assert to_bits(BINARY32.smallest_subnormal, BINARY32) == 1
        assert to_bits(BINARY64.one, BINARY64) == 0x3FF0000000000000

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            from_bits(0x7FC00000, BINARY32)
        with pytest.raises(DomainError):
            from_bits(0x7FF8000000000000, BINARY64)

    def test_negative_zero_folds(self):
        assert from_bits(0x80000000, BINARY32) is ZERO

    def test_out_of_range_pattern(self):
        with pytest.raises(ValueError):
            from_bits(1 << 32, BINARY32)
        with pytest.raises(ValueError):
            from_bits(-1, BINARY32)

    @given(b32_patterns)
    def test_round_trip_and_struct_agreement_binary32(self, pattern):
        if is_nan_pattern(pattern, BINARY32):
            with pytest.raises(DomainError):
                from_bits(pattern, BINARY32)
            return
        f = from_bits(pattern, BINARY32)
        expect = pattern & 0x7FFFFFFF if f.is_zero else pattern
        assert to_bits(f, BINARY32) == expect
        host = struct.unpack("<f", struct.pack("<I", pattern))[0]
        assert as_py_float(f) == host or (f.is_zero and host == 0.0)

    @given(b64_patterns)
    def test_round_trip_and_struct_agreement_binary64(self, pattern):
        if is_nan_pattern(pattern, BINARY64):
            return
        f = from_bits(pattern, BINARY64)
        expect = pattern & 0x7FFFFFFFFFFFFFFF if f.is_zero else pattern
        assert to_bits(f, BINARY64) == expect
        host = struct.unpack("<d", struct.pack("<Q", pattern))[0]
        assert as_py_float(f) == host or (f.is_zero and host == 0.0)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            FloatInterval(BINARY32.one, ZERO)

    def test_degenerate(self):
        assert FloatInterval(ZERO, ZERO).degenerate
        assert not FloatInterval(ZERO, BINARY32.one).degenerate

    def test_negation_swaps(self):
        iv = FloatInterval(ZERO, BINARY32.one)
        neg = -iv
        assert neg.lb == -BINARY32.one
        assert neg.ub is ZERO

    def test_infinite_bounds_allowed(self):
        FloatInterval(BINARY32.max_finite, infinity(1))
        FloatInterval(infinity(-1), infinity(1))
