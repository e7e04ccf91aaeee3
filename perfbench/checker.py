"""Independent checker for the filter's output records.

It imports no radival code: exact values come from fractions and decimal,
bit fields from struct, the binary64 grid from math and the binary32 grid
from numpy. Exact decimals of binary64 values run to about 770 digits and
the over-long numerals past 4300, so the process that runs this checker
lifts CPython's int/str digit limit; a process that runs radival never does.
"""

from __future__ import annotations

import math
import re
import struct
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

import numpy as np

from corpus import Line, Workload

_PLAIN = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?")
_MAX = {"binary64": math.ldexp(2 - 2**-52, 1023), "binary32": float(np.finfo(np.float32).max)}


def _on_grid(x: Fraction, fmt: str) -> float | None:
    """x as a host float when it is a finite value of the format, else None."""
    if abs(x) > _MAX[fmt]:
        return None
    f = float(x)
    if fmt == "binary32":
        f = float(np.float32(f))
    return f if f == x else None


def _next_up(f: float, fmt: str) -> float:
    if fmt == "binary64":
        return math.nextafter(f, math.inf)
    return float(np.nextafter(np.float32(f), np.float32(np.inf)))


def expected_hex(f: float, fmt: str) -> str:
    """Power-of-two exponent and trailing significand in base 16, as
    2^(E) * 1.hhh for normals and 2^(emin) * 0.hhh for subnormals; the
    23 binary32 bits group as one octal digit and five hex digits."""
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    if f == 0:
        return "0"
    sign = "-" if f < 0 else ""
    if fmt == "binary64":
        text = float.hex(abs(f))  # 0x1.hhhhhhhhhhhhhp+E
        p = text.index("p")
        return f"{sign}2^({int(text[p + 1:])}) * {text[2]}.{text[4:p]}"
    (bits,) = struct.unpack(">I", struct.pack(">f", abs(f)))
    field, trailing = bits >> 23, bits & 0x7FFFFF
    body = f"{trailing >> 20:o}{trailing & 0xFFFFF:05x}"
    if field == 0:
        return f"{sign}2^(-126) * 0.{body}"
    return f"{sign}2^({field - 127}) * 1.{body}"


def _bound(text: str, fmt: str) -> float:
    """A bound's decimal field as the format value it names exactly."""
    if text in ("inf", "-inf"):
        return float(text)
    if not _PLAIN.fullmatch(text):
        raise ValueError(f"bound {text!r} is not a plain canonical decimal")
    f = _on_grid(Fraction(text), fmt)
    if f is None:
        raise ValueError(f"bound {text} is not on the {fmt} grid")
    return f


def _rebuilds(bracket: str, lo: str, hi: str) -> bool:
    """prefix[lo_tail,hi_tail]: prefix plus each tail gives each bound."""
    open_ = bracket.find("[")
    if open_ < 0 or not bracket.endswith("]"):
        return False
    prefix = bracket[:open_]
    tails = bracket[open_ + 1 : -1].split(",")
    return len(tails) == 2 and prefix + tails[0] == lo and prefix + tails[1] == hi


def check_enclosure(line: Line, fields: list[str], fmt: str) -> str | None:
    """Judge a parse or parse-rational record; None when it is right."""
    if len(fields) != 6:
        return f"expected 6 fields, got {len(fields)}"
    _, lb_hex, lb_text, ub_hex, ub_text, bracket = fields
    lb, ub = _bound(lb_text, fmt), _bound(ub_text, fmt)
    if line.bits is not None:
        x = Fraction(struct.unpack(">d", struct.pack(">Q", line.bits))[0])
    else:
        x = Fraction(line.text)
    if not lb <= x <= ub:
        return f"[{lb_text}, {ub_text}] does not contain the input"
    on_grid = _on_grid(x, fmt)
    if on_grid is not None:
        if not lb == ub == on_grid:
            return "value on the grid but the interval is not the point"
        if bracket != f"{lb_text}[,]":
            return f"bracket {bracket!r} of a point is not {lb_text}[,]"
    elif line.bits is not None:
        return "exact decimal of a binary64 is off the grid"
    elif ub != _next_up(lb, fmt):
        return "bounds are not adjacent"
    if lb_hex != expected_hex(lb, fmt) or ub_hex != expected_hex(ub, fmt):
        return f"hex fields {lb_hex!r}, {ub_hex!r} do not match the bounds"
    if not _rebuilds(bracket, lb_text, ub_text):
        return f"bracket {bracket!r} does not rebuild the bounds"
    return None


def _bits_value(token: str, fmt: str) -> float:
    code = ">d" if fmt == "binary64" else ">f"
    return struct.unpack(code, bytes.fromhex(token.removeprefix("bits:")))[0]


def check_outward(line: Line, fields: list[str], fmt: str, digits: int) -> str | None:
    """Judge a print-interval record: each bound is the exact float bound
    rounded to `digits` significant digits toward the outside."""
    if len(fields) != 4:
        return f"expected 4 fields, got {len(fields)}"
    _, lo_text, hi_text, bracket = fields
    lb, ub = (_bits_value(t, fmt) for t in line.text.split())
    for text, bound, rounding in ((lo_text, lb, ROUND_FLOOR), (hi_text, ub, ROUND_CEILING)):
        if not _PLAIN.fullmatch(text):
            return f"bound {text!r} is not a plain canonical decimal"
        want = Context(prec=digits, rounding=rounding).plus(Decimal(bound))
        if Fraction(text) != Fraction(want):
            return f"bound {text} is not {want}"
    if not _rebuilds(bracket, lo_text, hi_text):
        return f"bracket {bracket!r} does not rebuild the bounds"
    return None


@dataclass
class Verdict:
    """Outcome of one round's output: failed lines (ERR records, missing
    records) and wrong records, which make the run incorrect."""

    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)


def check_output(workload: Workload, lines: list[Line], output: str) -> Verdict:
    """Judge one pass's output, record by record against its input lines."""
    verdict = Verdict()
    records = output.split("\n")
    if records and records[-1] == "":
        records.pop()
    if len(records) > len(lines):
        verdict.wrong.append(f"{len(records)} records for {len(lines)} lines")
    for i, line in enumerate(lines):
        if i >= len(records):
            verdict.failed += 1
            verdict.errors["no record"] += 1
            continue
        fields = records[i].split("\t")
        if fields[0] != line.text:
            why = "record does not echo its input line"
        elif len(fields) == 3 and fields[1] == "ERR":
            verdict.failed += 1
            # the digit-limit message names each numeral's length; fold those
            verdict.errors[re.sub(r"\d+ digits;", "N digits;", fields[2])] += 1
            continue
        elif workload.kind == "outward":
            why = check_outward(line, fields, workload.fmt, workload.digits)
        else:
            try:
                why = check_enclosure(line, fields, workload.fmt)
            except ValueError as err:
                why = str(err)
        if why is not None:
            verdict.wrong.append(f"line {i + 1} {line.text[:60]!r}: {why}")
    return verdict
