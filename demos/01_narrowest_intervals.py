"""Parse decimal numerals and exact ratios into enclosing float intervals.

Run:  python demos/01_narrowest_intervals.py
"""

from radival import (
    BINARY32,
    BINARY64,
    Rational,
    as_py_float,
    decimal_to_interval,
    float_to_exact_decimal,
    hex_significand_bracket,
    parse_numeral,
    plain_decimal,
    rational_to_interval,
    to_bits,
)


def show(title, interval, fmt):
    width = fmt.bit_width // 4
    # the exact decimal of each bound, as the parse command prints it
    lo_text, hi_text = (
        plain_decimal(float_to_exact_decimal(f, fmt)) for f in (interval.lb, interval.ub)
    )
    print(f"  {title}")
    if interval.degenerate:
        print(f"    exactly representable: bits {to_bits(interval.lb, fmt):0{width}x}")
        print(f"    value = {lo_text}")
    else:
        lo, hi = interval.lb, interval.ub
        print(f"    lb bits {to_bits(lo, fmt):0{width}x}  ub bits {to_bits(hi, fmt):0{width}x}")
        print(f"    lb = {lo_text}")
        print(f"    ub = {hi_text}")
        print(f"    as Python floats: {as_py_float(lo)!r} .. {as_py_float(hi)!r}")
    print()


def main():
    print("A decimal numeral rarely lands on a binary float, but it always")
    print("lands between two adjacent ones. The interval below is that pair.")
    print()

    print("binary32:")
    show("0.1", decimal_to_interval(parse_numeral("0.1"), BINARY32), BINARY32)
    show("0.5 (a power of two)", decimal_to_interval(parse_numeral("0.5"), BINARY32), BINARY32)
    show("12.375e-2", decimal_to_interval(parse_numeral("12.375e-2"), BINARY32), BINARY32)

    print("binary64 sees the same numeral land elsewhere:")
    show("0.1", decimal_to_interval(parse_numeral("0.1"), BINARY64), BINARY64)

    print("Ratios convert without ever forming a decimal expansion:")
    for p, q in ((1, 3), (3, 7), (1, 11)):
        iv = rational_to_interval(Rational(1, p, q), BINARY32)
        print(f"  {p}/{q}: {hex_significand_bracket(iv, BINARY32)}")
    print()

    print("Magnitudes beyond the format clamp against its edge:")
    show("1e39 overflows binary32", decimal_to_interval(parse_numeral("1e39"), BINARY32), BINARY32)
    tiny = decimal_to_interval(parse_numeral("1e-46"), BINARY32)
    print(f"  1e-46 sits under the subnormal grid: [{tiny.lb.kind}, {tiny.ub.kind}]")
    print(f"    ub is the smallest subnormal, bits {to_bits(tiny.ub, BINARY32):08x}")


if __name__ == "__main__":
    main()
