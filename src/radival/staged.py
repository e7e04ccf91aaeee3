"""The paper's staged route for a numeral 10^e * 0.m, off the record path:
binarize_exponent trades the power of ten for a power of two,
normalize_mantissa doubles the fraction into [1/2, 1), and mantissa_bits
streams out its significand bits. Each stage runs in bulk on the integer
view of the digit string: k doublings are one shift, k halvings one multiply
by 5^k, and the loop counts come straight from bit lengths. The tests replay
the digit-at-a-time loops against these bulk forms on random inputs.
"""

from .digitstring import FRACTION, DigitString, _require
from .floatkit import DomainError, _int_from_digits, _log2_floor, _text_from_int

# Integer view of a fraction string: d1..dn maps to (d1..dn read as an
# integer, n), value N / 10^n; mul2 and div2 in digitstring stay the reference.


def _fraction_int(m: DigitString) -> tuple[int, int]:
    _require(m, FRACTION)
    return _int_from_digits(m.text), len(m)


def _fraction_digits(N: int, n: int) -> DigitString:
    """The fraction N / 10^n with N < 10^n; trailing zeros drop."""
    return DigitString.fraction(_text_from_int(N, n))


def binarize_exponent(m: DigitString, dec_exp: int) -> tuple[DigitString, int]:
    """Trade 10^dec_exp for a binary exponent: returns (m', bin_exp) with
    10^dec_exp * 0.m == 2^bin_exp * 0.m' exactly.

    A negative decimal exponent is paid off by doublings; each carry folds
    back in front of the digits and cancels one power of ten, so the job
    is done after K doublings where K first pushes N * 2^K to n + |e|
    digits. A positive exponent dualizes with halvings: each appends a
    factor 5 and drops one power of ten, finishing when the fraction falls
    under 1, which the halving count reads off directly.

    A positive decimal exponent requires a mantissa with no leading zeros
    (or an empty one); negative exponents take any fraction string.
    """
    if dec_exp > 0 and m.text[:1] == "0":
        raise ValueError("positive exponents need a mantissa without leading zeros")
    N, n = _fraction_int(m)
    if N == 0 or dec_exp == 0:
        return m, 0
    if dec_exp < 0:
        # the smallest K with N * 2^K >= 10^(n + |e| - 1); N < 10^n makes it positive
        K = -_log2_floor(N, 10 ** (n - dec_exp - 1))
        return _fraction_digits(N << K, n - dec_exp), -K
    # the smallest K with N * 10^dec_exp < 10^n * 2^K
    K = _log2_floor(N * 10**dec_exp, 10**n) + 1
    return _fraction_digits(N * 5**K, n + K - dec_exp), K


def normalize_mantissa(m: DigitString, bin_exp: int) -> tuple[DigitString, int]:
    """Double the nonempty fraction 0.m into [1/2, 1), charging each
    doubling to the binary exponent.

    No carries can appear: the last doubling starts below 1/2."""
    _require(m, FRACTION)
    if not m.text:
        raise ValueError("cannot normalize an empty mantissa")
    N, n = _fraction_int(m)
    K = -1 - _log2_floor(N, 10**n)
    return _fraction_digits(N << K, n), bin_exp - K


def _leading_bits(num: int, den: int, count: int) -> list[int]:
    # the quotient of num * 2^count by den holds the first count bits
    acc = (num << count) // den
    return [(acc >> i) & 1 for i in range(count - 1, -1, -1)]


def fraction_bits(p: int, q: int, count: int) -> list[int]:
    """First `count` binary fraction digits of p/q, which must lie in (0, 1)."""
    if not 0 < p < q:
        raise DomainError(f"{p}/{q} is not inside (0, 1)")
    return _leading_bits(p, q, count)


def mantissa_bits(m: DigitString, count: int) -> list[int]:
    """First `count` binary fraction digits of the fraction 0.m."""
    N, n = _fraction_int(m)
    return _leading_bits(N, 10**n, count)
