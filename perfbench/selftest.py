"""Planted wrong records that the checker must reject.

Good records are built here from Python floats and Decimal, one wrong field
at a time is planted in them, and the checker has to accept every good
record and reject every planted one. A checker that accepts everything, or
rejects everything, fails. Run on its own with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import struct
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

import numpy as np

from checker import check_enclosure, check_outward, expected_hex
from corpus import Line


def _plain(f: float) -> str:
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return format(Decimal(f), "f")


def _bracket(lo: str, hi: str) -> str:
    k = 0
    while k < min(len(lo), len(hi)) and lo[k] == hi[k]:
        k += 1
    return f"{lo[:k]}[{lo[k:]},{hi[k:]}]"


def _enclosure(text: str, lb: float, ub: float, fmt: str) -> list[str]:
    lo, hi = _plain(lb), _plain(ub)
    return [text, expected_hex(lb, fmt), lo, expected_hex(ub, fmt), hi, _bracket(lo, hi)]


def _rounded(f: float, digits: int, rounding: str) -> str:
    return format(Context(prec=digits, rounding=rounding).plus(Decimal(f)).normalize(), "f")


def _outward(lb: float, ub: float, lo: str, hi: str) -> list[str]:
    bits = [struct.unpack(">Q", struct.pack(">d", f))[0] for f in (lb, ub)]
    return [f"bits:{bits[0]:016x} bits:{bits[1]:016x}", lo, hi, _bracket(lo, hi)]


def _verdict(line: Line, record: list[str], fmt: str = "binary64") -> str | None:
    try:
        return check_enclosure(line, record, fmt)
    except ValueError as err:
        return str(err)


def _interval(line: Line, lb: float, ub: float, fmt: str = "binary64") -> str | None:
    return _verdict(line, _enclosure(line.text, lb, ub, fmt), fmt)


def _outward_verdict(record: list[str]) -> str | None:
    return check_outward(Line(record[0]), record, "binary64", 17)


def _cases():
    """(description, the checker's verdict, whether it should accept)."""
    tenth = Line("0.1")
    below, above = 0.1, math.nextafter(0.1, math.inf)
    if Decimal(below) > Decimal("0.1"):
        below, above = math.nextafter(0.1, -math.inf), 0.1
    yield "0.1 binary64", _interval(tenth, below, above), True
    yield "upper bound one ulp off", _interval(tenth, below, math.nextafter(above, 1)), False
    yield "lower bound one ulp off", _interval(tenth, math.nextafter(below, 0), above), False
    yield "degenerate interval off the grid", _interval(tenth, below, below), False

    good = _enclosure(tenth.text, below, above, "binary64")
    wrong_hex = list(good)
    wrong_hex[1] = wrong_hex[1][:-1] + ("0" if wrong_hex[1][-1] != "0" else "1")
    yield "binary64 hex digit changed", _verdict(tenth, wrong_hex), False
    prefix = good[5][: good[5].index("[")]
    lo_tail, hi_tail = good[2][len(prefix):], good[4][len(prefix):]
    broken = [*good[:5], f"{prefix}[{lo_tail}1,{hi_tail}]"]
    yield "bracket tail that does not rebuild", _verdict(tenth, broken), False
    broken = [*good[:5], f"{prefix[:-1]}[{lo_tail},{hi_tail}]"]
    yield "bracket prefix that does not rebuild", _verdict(tenth, broken), False

    third = Line("1/3")
    near = np.float32(1 / 3)
    if Fraction(float(near)) > Fraction(1, 3):
        lo32, hi32 = float(np.nextafter(near, np.float32(0))), float(near)
    else:
        lo32, hi32 = float(near), float(np.nextafter(near, np.float32(1)))
    up32 = float(np.nextafter(np.float32(hi32), np.float32(2)))
    yield "1/3 binary32", _interval(third, lo32, hi32, "binary32"), True
    yield "binary32 bound one ulp off", _interval(third, lo32, up32, "binary32"), False
    wrong_hex = _enclosure(third.text, lo32, hi32, "binary32")
    wrong_hex[3] = expected_hex(up32, "binary32")
    yield "binary32 hex field of the wrong bound", _verdict(third, wrong_hex, "binary32"), False

    tiny = 5e-324
    exact = Line(str(Decimal(tiny)), struct.unpack(">Q", struct.pack(">d", tiny))[0])
    yield "exact subnormal", _interval(exact, tiny, tiny), True
    yield "exact value widened to two floats", _interval(exact, 0.0, tiny), False
    point = _enclosure(exact.text, tiny, tiny, "binary64")
    split = [*point[:5], f"{point[2][:-1]}[{point[2][-1]},{point[4][-1]}]"]
    yield "point with a non-empty bracket", _verdict(exact, split), False

    huge, top = Line("1e400"), sys.float_info.max
    yield "overflow clamp", _interval(huge, top, math.inf), True
    yield "overflow without clamp", _interval(huge, math.nextafter(top, 0), top), False

    lb, ub = 1 / 3, math.nextafter(1 / 3, 1)
    lo, hi = _rounded(lb, 17, ROUND_FLOOR), _rounded(ub, 17, ROUND_CEILING)
    yield "outward 17 digits", _outward_verdict(_outward(lb, ub, lo, hi)), True
    inward = _rounded(lb, 17, ROUND_CEILING)
    yield "inward-rounded lower bound", _outward_verdict(_outward(lb, ub, inward, hi)), False
    inward = _rounded(ub, 17, ROUND_FLOOR)
    yield "inward-rounded upper bound", _outward_verdict(_outward(lb, ub, lo, inward)), False
    loose = _rounded(lb, 16, ROUND_FLOOR)
    yield "non-minimal 16-digit lower bound", _outward_verdict(_outward(lb, ub, loose, hi)), False
    loose = str(Decimal(hi) + Decimal(10) ** (Decimal(hi).adjusted() - 16))
    yield "non-minimal upper bound one unit wide", _outward_verdict(_outward(lb, ub, lo, loose)), False
    broken = _outward(lb, ub, lo, hi)
    broken[3] = broken[3].replace(",", ",9")
    yield "outward bracket that does not rebuild", _outward_verdict(broken), False


def run() -> list[str]:
    """Descriptions of the cases the checker got wrong; empty when it
    accepts every good record and rejects every planted one."""
    return [
        f"{what}: {'rejected' if accept else 'accepted'} ({why})"
        for what, why, accept in _cases()
        if (why is None) != accept
    ]


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print("FAIL", problem)
    print("checker self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
