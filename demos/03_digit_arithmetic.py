"""The digit-string kernel: exact doubling and halving of decimal text.

Run:  python demos/03_digit_arithmetic.py
"""

from radival import (
    DigitString,
    binarize_exponent,
    div2,
    mantissa_bits,
    mul2,
    normalize_mantissa,
)


def main():
    print("Fractions are digit tuples; doubling may carry past the point,")
    print("halving may shift a zero in front. Both are exact:")
    print()
    m = DigitString.fraction("7872")
    for _ in range(3):
        doubled, carry = mul2(m)
        print(f"  2 * 0.{m.text} = {carry}.{doubled.text or '0'}")
        m = doubled
    print()
    m = DigitString.fraction("5")
    for _ in range(3):
        halved = div2(m)
        print(f"  0.{m.text} / 2 = 0.{halved.text}")
        m = halved
    print()

    print("Repeated doubling reads off binary digits. 0.123e-1 first trades")
    print("its power of ten for a power of two, then doubles into [0.5, 1):")
    m0 = DigitString.fraction("123")
    m1, bexp = binarize_exponent(m0, -1)
    print(f"  binarized:  0.{m1.text} * 2^{bexp}")
    m2, bexp = normalize_mantissa(m1, bexp)
    print(f"  normalized: 0.{m2.text} * 2^{bexp}")
    bits = mantissa_bits(m2, 10)
    print(f"  first significand bits: {''.join(map(str, bits))}")
    print()

    print("The carries themselves are the bits: doubling 0.7872 spills a 1,")
    print("doubling the remainder 0.5744 spills another, then two misses.")


if __name__ == "__main__":
    main()
