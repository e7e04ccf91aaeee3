"""Digit-at-a-time reference loops.

radival.staged runs the paper's exponent exchanges in bulk on an integer
view of the digit string. These replay the same transformations one
doubling or halving at a time, built only on mul2/div2 from digitstring,
which imports no kernel, and the tests use them as differential
references for the bulk forms on bounded random inputs.
"""

from radival.digitstring import FRACTION, DigitString, div2, mul2


def binarize_stepwise(m: DigitString, dec_exp: int) -> tuple[DigitString, int]:
    """Trade 10^dec_exp for a binary exponent by single doublings or
    halvings. Matches binarize_exponent on its whole domain."""
    digits = m
    bin_exp = 0
    if not digits.digits:
        return digits, 0
    while dec_exp < 0:
        digits, carry = mul2(digits)
        bin_exp -= 1
        if carry:
            # the unit carried out cancels one power of ten when pushed
            # back in front of the digits
            digits = DigitString((1,) + digits.digits, FRACTION)
            dec_exp += 1
    while dec_exp > 0:
        digits = div2(digits)
        bin_exp += 1
        if digits.digits and digits.digits[0] == 0:
            digits = DigitString(digits.digits[1:], FRACTION)
            dec_exp -= 1
    return digits, bin_exp


def normalize_stepwise(m: DigitString, bin_exp: int) -> tuple[DigitString, int]:
    """Double into [1/2, 1) one step at a time."""
    digits = m
    while digits.digits[0] < 5:
        doubled, carry = mul2(digits)
        assert carry == 0
        digits = doubled
        bin_exp -= 1
    return digits, bin_exp


def scale_stepwise(p: int, q: int) -> tuple[int, int, int]:
    """Double p or q until p/q sits in [1/2, 1); returns (p', q', k) with
    p/q == (p'/q') * 2^k. The pair may come out unreduced."""
    k = 0
    while q > p:
        p *= 2
        k -= 1
    while p >= q:
        q *= 2
        k += 1
    return p, q, k


def bits_stepwise(m: DigitString, count: int) -> list[int]:
    """Binary fraction digits of 0.m, one doubling carry at a time."""
    digits = m
    out = []
    for _ in range(count):
        digits, carry = mul2(digits)
        out.append(carry)
    return out
