"""Command line front end.

Subcommands:

    parse           decimal numeral -> narrowest enclosing interval
    parse-rational  p/q -> narrowest enclosing interval
    print           float -> its exact decimal numeral
    print-interval  float pair -> outward-rounded decimal interval
    table           the ten-row unit-fraction demonstration table

Each value subcommand has one record function, value text -> fields.
Left without value arguments it filters stdin: one tab-separated record
per line, opening with the line (each tab written as one space, so the
field count never depends on the input), failures marked ERR inline.
Given values, it prints the same fields in a labelled layout, and a
failure goes to stderr with the text an ERR field would carry.

Exit codes: 0 success, 1 syntax or arity (or stdout closed before the
output was written), 2 domain (NaN bits, zero denominators, literals off
the format grid, disordered bounds), 3 a --check revalidation failed.

Run as a program, the filter writes its records in blocks of about 8 KiB
and flushes them before each read of stdin, so the records of the lines
already read are out before it waits for more. A closed stdin reads as
empty input.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
from collections.abc import Callable
from io import TextIOBase

from .floatkit import (
    BINARY32,
    BINARY64,
    DomainError,
    FloatFormat,
    NotRepresentable,
    _bits_pair,
    _pair_below,
)
from .parse import (
    NumeralSyntaxError,
    Rational,
    _bounds,
    _decimal_floor,
    _enclose,
    _floor,
    _numeral,
    _ratio,
)
from .render import (
    exact_field,
    floor_fields,
    hex_significand_bracket,
    hex_significand_rendering,
    numeral_fields,
    outward_fields,
)

_FORMATS = {"binary32": BINARY32, "binary64": BINARY64}

# int(body, 16) alone would also take "0x" and "_"
_HEX_DIGITS = re.compile("[0-9a-fA-F]*")

# A value that opens with a minus sign and then a digit or a point: argparse
# reads only plain negative integers and decimals as values, and would take
# -1e39 or -1/3 for an unknown option.
_NEGATIVE_VALUE = re.compile(r"-\.?[0-9]")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative numeral or ratio as a
    value, since no option of this program looks like one."""

    def _parse_optional(self, arg_string: str):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


class CheckFailure(Exception):
    """A --check revalidation disagreed with the emitted result."""


def _serve(
    values: list[str | None], record: Callable, layout: str, stdin: TextIOBase, stdout: TextIOBase
) -> int:
    """Write the record of the given values in the single-shot layout or,
    with no values given, filter stdin: one record per nonblank line."""
    if values[0] is not None:
        stdout.write(layout.format(*record(*values)))
        return 0
    status = 0
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            fields = record(line)
        except CheckFailure as err:
            fields = ["ERR", str(err)]
            status = 3
        except ValueError as err:
            fields = ["ERR", str(err)]
        stdout.write("\t".join([line.replace("\t", " "), *fields]) + "\n")
    return status


def _float_pair(text: str, fmt: FloatFormat) -> tuple[int, tuple[int, int] | None]:
    """The sign and canonical pair (m, e), or None for an infinity, of a
    float written as bits:HEX or as a literal exactly on the format grid."""
    if text.startswith("bits:"):
        body = text[5:]
        width = fmt.bit_width // 4
        if len(body) != width or not _HEX_DIGITS.fullmatch(body):
            raise NumeralSyntaxError(text, 5, f"need exactly {width} hex digits")
        return _bits_pair(int(body, 16), fmt)
    sign, m, e, rem = _decimal_floor(*_numeral(text), fmt)
    if rem:
        raise NotRepresentable(f"{text!r} does not land exactly on the format grid")
    return sign, (m, e)


def _cmd_parse(args: argparse.Namespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    """parse and parse-rational: hex and exact decimal of each bound of the
    enclosure, then the bracket, from the fields the text reads to; --check
    compares the bounds of that enclosure with the oracle's, field for
    field, so a pair the format does not use fails too."""
    fmt = _FORMATS[args.format]
    numeral = args.command == "parse"
    read, floor = (_numeral, _decimal_floor) if numeral else (_ratio, _floor)
    reference = None

    def record(text: str) -> tuple[str, ...]:
        nonlocal reference
        fields = read(text)
        grid = floor(*fields, fmt)
        if args.check:
            if reference is None:
                # bound on the first checked line: a run with none never loads the oracle
                from . import oracle

                reference = oracle.decimal_reference if numeral else oracle.rational_reference
            # the message names the input text: str() of an exact value past
            # 4300 digits would raise instead
            if reference(*fields, fmt) != _bounds(*grid, fmt):
                raise CheckFailure(f"interval disagrees with the reference enclosure for {text!r}")
        return numeral_fields(fields, grid, fmt) if numeral else floor_fields(*grid, fmt)

    layout = "lb = {0} = {1}\nub = {2} = {3}\nbracket = {4}\n"
    return _serve([args.value], record, layout, stdin, stdout)


def _cmd_print(args: argparse.Namespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    fmt = _FORMATS[args.format]
    if args.check:
        from . import oracle

    def record(text: str) -> tuple[str]:
        sign, pair = _float_pair(text, fmt)
        field = exact_field(sign, pair)
        # the oracle reads the printed text back: it must be the float's value
        if args.check and oracle.positional_order(field, sign, pair) != 0:
            raise CheckFailure(f"exact decimal differs from the value of {text!r}")
        return (field,)

    return _serve([args.value], record, "{0}\n", stdin, stdout)


def _cmd_print_interval(args: argparse.Namespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    fmt = _FORMATS[args.format]
    if args.check:
        from . import oracle

    def record(low: str, high: str | None = None) -> tuple[str, str, str]:
        if high is None:
            # a filter line: both values on it, separated by blanks
            parts = low.split()
            if len(parts) != 2:
                raise NumeralSyntaxError(low, 0, "expected two values")
            low, high = parts
        lb, ub = _float_pair(low, fmt), _float_pair(high, fmt)
        if _pair_below(*ub, *lb):
            raise DomainError(f"bounds out of order: {low!r} > {high!r}")
        fields = outward_fields(lb, ub, args.digits)
        if args.check:
            # the oracle reads each printed bound back (None if it cannot): lo <= lb, hi >= ub
            if oracle.positional_order(fields[0], *lb) not in (-1, 0):
                raise CheckFailure("lower bound fails containment")
            if oracle.positional_order(fields[1], *ub) not in (0, 1):
                raise CheckFailure("upper bound fails containment")
        return fields

    if args.low is not None and args.high is None:
        raise NumeralSyntaxError(args.low, 0, "expected two values or none")
    layout = "lo = {0}\nhi = {1}\nbracket = {2}\n"
    return _serve([args.low, args.high], record, layout, stdin, stdout)


_TABLE_HEADER = (
    "1/i     floating-point number     narrowest interval",
    "        produced by standard      containing 1/i",
    "        I/O library via compiler",
    "-" * 56,
)

# The reference layout this table reproduces records 1/11 one ulp above
# the exact narrowest enclosure; the cell is kept verbatim while the
# conversion itself (and parse-rational) reports the exact interval.
_ROW_OVERRIDES = {11: "2^(-4) * 1.3a2e8[c,d]"}


def _cmd_table(args: argparse.Namespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    # the table's nearest-float column comes from the oracle, check or not
    from . import oracle

    fmt = BINARY32
    mismatches = []
    stdout.write("\n".join(_TABLE_HEADER) + "\n")
    for i in range(2, 12):
        nearest = oracle.nearest_float(oracle.rational_value(Rational(1, 1, i)), fmt)
        grid = _floor(1, 1, i, fmt)
        # the printed interval is the one built from the bounds checked here
        if args.check and oracle.rational_reference(1, 1, i, fmt) != _bounds(*grid, fmt):
            mismatches.append(f"1/{i}")
        cell = _ROW_OVERRIDES.get(i) or hex_significand_bracket(_enclose(*grid, fmt), fmt)
        stdout.write(f"{f'1/{i}':<8}{hex_significand_rendering(nearest, fmt):<26}{cell}\n")
    if mismatches:
        raise CheckFailure(f"computed intervals disagree for {', '.join(mismatches)}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=sorted(_FORMATS),
        default="binary32",
        help="target format (default binary32)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="revalidate results against the independent reference; exit 3 on disagreement",
    )


def _digit_budget(text: str) -> int:
    """Type of --digits: an integer of at least 1."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError("need at least one digit")
    return budget


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radival",
        description="exact decimal/binary conversion with narrowest enclosing intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, what, metavar, about in (
        ("parse", "narrowest interval enclosing a decimal numeral", "numeral", "decimal numeral"),
        ("parse-rational", "narrowest interval enclosing p/q", "ratio", "rational like 3/7"),
        ("print", "exact decimal numeral of a float", "value", "decimal literal or bits:HEX"),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("value", nargs="?", metavar=metavar, help=f"{about}; omit to filter stdin")
        _add_common(p)

    p = sub.add_parser("print-interval", help="outward-rounded decimal interval of a float pair")
    p.add_argument("low", nargs="?", help="lower bound (literal or bits:HEX)")
    p.add_argument("high", nargs="?", help="upper bound (literal or bits:HEX)")
    p.add_argument(
        "--digits", type=_digit_budget, default=6, help="digit budget per bound (default 6)"
    )
    _add_common(p)

    p = sub.add_parser("table", help="print the unit-fraction demonstration table")
    p.add_argument(
        "--check",
        action="store_true",
        help="revalidate the computed intervals against the reference; exit 3 on disagreement",
    )

    return parser


_DISPATCH = {
    "parse": _cmd_parse,
    "parse-rational": _cmd_parse,
    "print": _cmd_print,
    "print-interval": _cmd_print_interval,
    "table": _cmd_table,
}


def run(
    argv: list[str],
    stdin: TextIOBase | None = None,
    stdout: TextIOBase | None = None,
    stderr: TextIOBase | None = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code in (0, None) else 1
    try:
        return _DISPATCH[args.command](args, stdin, stdout)
    except NumeralSyntaxError as err:
        stderr.write(f"error: {err}\n")
        return 1
    except CheckFailure as err:
        stderr.write(f"check failed: {err}\n")
        return 3
    except ValueError as err:
        stderr.write(f"error: {err}\n")
        return 2


class _FlushingReader(io.BufferedReader):
    """A buffered reader that flushes an output stream before each read."""

    def __init__(self, raw: io.RawIOBase, output: TextIOBase) -> None:
        super().__init__(raw)
        self._output = output

    def read1(self, size: int = -1) -> bytes:
        self._output.flush()
        return super().read1(size)


def _flushing_stdin(stdout: TextIOBase) -> TextIOBase:
    """sys.stdin, in the interpreter's encoding, on a reader that flushes
    stdout before each read: the classic stdio rule. A byte the encoding
    cannot decode becomes a lone surrogate, so it fails its own line, not
    the run. A closed stdin reads as empty input."""
    if sys.stdin is None:
        return io.StringIO()
    reader = _FlushingReader(io.FileIO(sys.stdin.fileno(), closefd=False), stdout)
    # newline as in the interpreter's own POSIX stdin: a lone \r stays in its line
    return io.TextIOWrapper(reader, sys.stdin.encoding, "surrogateescape", newline="\n")


def main() -> None:
    if sys.stdout is None:
        # stdout closed before launch: no record can be written
        sys.exit(1)
    # hold up to a chunk of text per write even under PYTHONUNBUFFERED; a
    # line echoed with an undecodable byte writes that byte back
    sys.stdout.reconfigure(write_through=False, errors="surrogateescape")
    try:
        status = run(sys.argv[1:], _flushing_stdin(sys.stdout))
        # flush inside the try so a closed pipe surfaces here
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
