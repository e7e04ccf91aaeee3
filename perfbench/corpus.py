"""Seeded input corpora for the four benchmark workloads.

Everything here is built from the standard library alone: bit patterns come
from struct, exact decimals from Decimal(float). The program under test only
ever sees the generated lines. The same seed gives the same lines, and every
corpus has a fixed line count so each round attempts the same operations.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

SIGN64 = 1 << 63
INF64 = 0x7FF0000000000000


@dataclass(frozen=True)
class Line:
    """One input line and what the checker needs to judge its record.

    bits is the binary64 pattern a line of exact-decimals was made from;
    None means the checker derives everything from the text itself.
    """

    text: str
    bits: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    fmt: str
    kind: str  # "enclosure" or "outward"
    size: int
    make: Callable[[random.Random, int], list[Line]]
    digits: int = 0


def _decimal_exponent_text(rng: random.Random, digits: str, e: int) -> str:
    """A numeral for d.ddd * 10^e in one of three spellings."""
    forms = ["sci", "int"]
    if -6 <= e <= 20:
        forms.append("plain")
    form = rng.choice(forms)
    if form == "sci":
        head = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
        return f"{head}e{e}"
    if form == "int":
        return f"{digits}e{e - (len(digits) - 1)}"
    if e < 0:
        return "0." + "0" * (-e - 1) + digits
    if e + 1 >= len(digits):
        return digits + "0" * (e + 1 - len(digits))
    return digits[: e + 1] + "." + digits[e + 1 :]


def short_numerals(rng: random.Random, size: int) -> list[Line]:
    """1-17 significant digits; one line in ten sits at the subnormal edge
    and one in ten at the overflow edge, the rest span the binary64 range."""
    lines = []
    for i in range(size):
        ndig = rng.randint(1, 17)
        digits = str(rng.randint(10 ** (ndig - 1), 10**ndig - 1))
        if i % 10 == 0:
            e = rng.randint(-330, -305)
        elif i % 10 == 1:
            e = rng.randint(300, 312)
        else:
            e = rng.randint(-307, 308)
        sign = "-" if rng.random() < 0.5 else ""
        lines.append(Line(sign + _decimal_exponent_text(rng, digits, e)))
    return lines


def _random_binary64(rng: random.Random, subnormal: bool) -> int:
    """A finite nonzero binary64 magnitude pattern below the top value."""
    if subnormal:
        return rng.randint(1, (1 << 52) - 1)
    return (rng.randint(1, 2046) << 52) | rng.getrandbits(52)


def _as_float(bits: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


# Numerals past CPython's 4300-digit int/str limit. They are built from a
# fixed seed, not the workload seed, so every corpus holds the same ones and
# the share of lines that fail on the digit limit is the same for any seed.
LONG_NUMERALS = 4
LONG_DIGITS = 4400


def _long_numerals() -> list[Line]:
    rng = random.Random("exact-decimals:long")
    lines = []
    for _ in range(LONG_NUMERALS):
        exact = str(Decimal(_as_float(_random_binary64(rng, False))))
        if "E" in exact:
            mantissa, exponent = exact.split("E")
            suffix = "E" + exponent
        else:
            mantissa, suffix = exact, ""
        if "." not in mantissa:
            mantissa += "."
        tail = "".join(rng.choice("0123456789") for _ in range(LONG_DIGITS)) + "7"
        lines.append(Line(mantissa + tail + suffix))
    return lines


def exact_decimals(rng: random.Random, size: int) -> list[Line]:
    """Exact decimal expansions of random binary64 values, one in eight
    subnormal, both signs; LONG_NUMERALS over-long numerals sit at fixed
    positions."""
    lines = []
    for i in range(size - LONG_NUMERALS):
        bits = _random_binary64(rng, i % 8 == 0)
        if rng.random() < 0.5:
            bits |= SIGN64
        lines.append(Line(str(Decimal(_as_float(bits))), bits))
    step = size // LONG_NUMERALS
    for k, line in enumerate(_long_numerals()):
        lines.insert(k * step + step // 2, line)
    return lines


def outward_pairs(rng: random.Random, size: int) -> list[Line]:
    """Adjacent binary64 pairs as bits:HEX bits:HEX, lower bound first,
    one in eight among the subnormals, both signs."""
    lines = []
    for i in range(size):
        mag = _random_binary64(rng, i % 8 == 0)
        if mag + 1 == INF64:
            mag -= 1
        if rng.random() < 0.5:
            lo, hi = mag, mag + 1
        else:
            lo, hi = SIGN64 | (mag + 1), SIGN64 | mag
        lines.append(Line(f"bits:{lo:016x} bits:{hi:016x}"))
    return lines


def ratios(rng: random.Random, size: int) -> list[Line]:
    """p/q with terms of 1 to 64 bits; one line in sixteen has a power-of-two
    denominator and a numerator of at most 24 bits, so it lands on the
    binary32 grid."""
    lines = []
    for i in range(size):
        if i % 16 == 0:
            p = rng.getrandbits(rng.randint(1, 24))
            q = 1 << rng.randint(0, 63)
        else:
            a, b = rng.randint(1, 64), rng.randint(1, 64)
            p = rng.getrandbits(a) | (1 << (a - 1))
            q = rng.getrandbits(b) | (1 << (b - 1))
        sign = "-" if rng.random() < 0.5 else ""
        lines.append(Line(f"{sign}{p}/{q}"))
    return lines


# Sizes put one filter round at about one second on a 2-vCPU x86-64 box:
# interpreter start-up stays near a tenth of a round, and the reference
# loop timed around each round (run.SpeedScale) samples the machine's
# drifting speed often enough to track it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-numerals", ("parse", "--format", "binary64"),
                 "binary64", "enclosure", 2500, short_numerals),
        Workload("exact-decimals", ("parse", "--format", "binary64", "--check"),
                 "binary64", "enclosure", 1000, exact_decimals),
        Workload("outward-17",
                 ("print-interval", "--format", "binary64", "--digits", "17", "--check"),
                 "binary64", "outward", 4000, outward_pairs, digits=17),
        Workload("ratios-b32", ("parse-rational",), "binary32", "enclosure", 10000, ratios),
    )
}


def build(workload: Workload, seed: int) -> list[Line]:
    """The workload's corpus for this seed."""
    return workload.make(random.Random(f"{workload.name}:{seed}"), workload.size)
