"""Differential check: the conversion pipeline against the oracle.

The oracle reimplements enclosure on exact integer ratios (this demo
hands it Fraction values, which it reads as one such ratio) and shares
no machinery with the library, so agreement on random inputs is
evidence, not tautology.

Run:  python demos/04_oracle_crosscheck.py [count]
"""

import random
import sys
import time

from radival import BINARY32, BINARY64, DecimalScientific, DigitString, decimal_to_interval
from radival.oracle import exact_value, narrowest_interval_reference


def random_numeral(rng):
    length = rng.randint(1, 30)
    digits = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(length - 1)]
    return DecimalScientific(
        rng.choice((1, -1)), DigitString.fraction(digits), rng.randint(-60, 60)
    )


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    rng = random.Random(8)
    start = time.perf_counter()
    for fmt, name in ((BINARY32, "binary32"), (BINARY64, "binary64")):
        agreements = 0
        for _ in range(count):
            d = random_numeral(rng)
            iv = decimal_to_interval(d, fmt)
            ref = narrowest_interval_reference(exact_value(d), fmt)
            assert iv.lb == ref.lb and iv.ub == ref.ub, d
            agreements += 1
        print(f"{name}: {agreements} random numerals, oracle agrees on every one")
    elapsed = time.perf_counter() - start
    print(f"{2 * count} conversions checked twice over in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
