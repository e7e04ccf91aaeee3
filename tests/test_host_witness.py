"""binary64 command line results against the host's own float and decimal.

The host float parser rounds a numeral to nearest, so it must land on a
bound of the enclosure, and the decimal module rounds a float's exact
value to n significant digits in a directed mode, which is the outward
rounding of print-interval. Neither shares any code with radival. No
binary32 witness is used: np.float32(float(text)) rounds twice.
"""

import io
import math
import random
import struct
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

import pytest

from radival import cli


def run_filter(argv: list[str], lines: list[str]) -> list[list[str]]:
    out = io.StringIO()
    status = cli.run(argv, stdin=io.StringIO("".join(f"{line}\n" for line in lines)), stdout=out)
    assert status == 0
    return [record.split("\t") for record in out.getvalue().splitlines()]


def numerals(rng: random.Random, count: int) -> list[str]:
    """Numerals of 1 to 25 digits across binary64's range and past both
    of its ends, in both signs and in three spellings."""
    texts = []
    for _ in range(count):
        digits = str(rng.randint(1, 10 ** rng.randint(1, 25)))
        e = rng.randint(-345, 330)
        sign = rng.choice(["", "-", "+"])
        form = rng.randrange(3)
        if form == 0:
            texts.append(f"{sign}{digits}e{e}")
        elif form == 1:
            texts.append(f"{sign}{digits[0]}.{digits[1:]}E{e}")
        else:
            texts.append(f"{sign}0.{'0' * rng.randint(0, 5)}{digits}")
    return texts


def test_parse_encloses_the_host_float():
    rng = random.Random(1990)
    texts = numerals(rng, 400) + ["0", "-0.0", "1e400", "-1e400", "1e-400", "2.5e-324"]
    records = run_filter(["parse", "--format", "binary64"], texts)
    assert [record[0] for record in records] == texts
    for text, _, lb, _, ub, _ in records:
        host = Decimal(float(text))
        lb, ub = Decimal(lb), Decimal(ub)
        if lb == ub:
            assert host == lb, text
        else:
            assert host in (lb, ub), text


@pytest.mark.parametrize("digits", [1, 2, 6, 17, 20])
def test_print_interval_rounds_like_the_decimal_module(digits):
    rng = random.Random(digits)
    patterns = [0, 1, 1 << 63, 0x7FEFFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF]
    patterns += [rng.getrandbits(63) | rng.getrandbits(1) << 63 for _ in range(100)]
    patterns += [rng.getrandbits(52) | rng.getrandbits(1) << 63 for _ in range(20)]
    host = {}
    for bits in patterns:
        x = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
        if math.isfinite(x):
            host[bits] = x
    pairs = [sorted(rng.sample(list(host), 2), key=host.get) for _ in range(60)]
    pairs += [[bits, bits] for bits in list(host)[:10]]
    lines = [f"bits:{low:016x} bits:{high:016x}" for low, high in pairs]
    argv = ["print-interval", "--format", "binary64", "--digits", str(digits)]
    records = run_filter(argv, lines)
    assert [record[0] for record in records] == lines
    down = Context(prec=digits, rounding=ROUND_FLOOR)
    up = Context(prec=digits, rounding=ROUND_CEILING)
    for (low, high), (line, lo, hi, _) in zip(pairs, records):
        assert Decimal(lo) == down.plus(Decimal(host[low])), line
        assert Decimal(hi) == up.plus(Decimal(host[high])), line
