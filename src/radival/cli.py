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

Arguments are read by one reader from the table of subcommands below:
options in any position, spelled out or begun (--fo for --format), as
--name value or --name=value, -- to end them, and any token that is
neither -h nor --... a value, so a negative numeral or ratio needs no --.
The help and usage texts and the table live in cliextra, which only a
help request, an argument error or the table subcommand loads, and a
filter record runs on floatkit and the kernels alone, so a launch loads
neither argparse nor the value modules (value, digitstring, parse,
render).

Exit codes: 0 success, 1 syntax or arity (or stdout closed before the
output was written), 2 domain (NaN bits, zero denominators, literals off
the format grid, disordered bounds), 3 a --check revalidation failed.

Run as a program, the filter writes its records in blocks of about 8 KiB
and flushes them before each read of stdin, so the records of the lines
already read are out before it waits for more. A closed stdin reads as
empty input.

Run as a program, main() first freezes the heap the launch has built
(gc.freeze): the modules, the tables and whatever the site hooks loaded
live until the process ends, so the cycle collections at exit need not
walk them. The exit stays sys.exit on every path, so atexit handlers,
the flush of the standard streams and profilers run as before. run()
freezes nothing.
"""

import gc
import io
import os
import re
import sys
from collections.abc import Callable
from io import TextIOBase
from types import SimpleNamespace

from .floatkit import (
    BINARY32,
    BINARY64,
    DomainError,
    FloatFormat,
    NotRepresentable,
    _below,
    _bits_fields,
)
from .kernels import (
    NumeralSyntaxError,
    _bounds,
    _decimal_floor,
    _floor,
    _numeral,
    _ratio,
    enclosure_fields,
    exact_field,
    numeral_fields,
    outward_fields,
)

_FORMATS = {"binary32": BINARY32, "binary64": BINARY64}

# int(body, 16) alone would also take "0x" and "_"
_HEX_DIGITS = re.compile("[0-9a-fA-F]*")


class CheckFailure(Exception):
    """A --check revalidation disagreed with the emitted result."""


def _serve(
    values: list[str | None], record: Callable, layout: str, stdin: TextIOBase, stdout: TextIOBase
) -> int:
    """Write the record of the given values, each stripped as a line is, in
    the single-shot layout, or with none given filter stdin by nonblank line."""
    if values[0] is not None:
        stdout.write(layout.format(*record(*[value.strip() for value in values])))
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


def _float_fields(text: str, fmt: FloatFormat) -> tuple[str, int, int, int]:
    """The fields (kind, sign, m, e) of a float written as bits:HEX or as a
    literal exactly on the format grid, whose enclosure has equal bounds."""
    if text.startswith("bits:"):
        body = text[5:]
        width = fmt.bit_width // 4
        if len(body) != width or not _HEX_DIGITS.fullmatch(body):
            raise NumeralSyntaxError(text, 5, f"need exactly {width} hex digits")
        return _bits_fields(int(body, 16), fmt)
    lower, upper = _bounds(*_decimal_floor(*_numeral(text), fmt), fmt)
    if lower != upper:
        raise NotRepresentable(f"{text!r} does not land exactly on the format grid")
    return lower


def _cmd_parse(args: SimpleNamespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    """parse and parse-rational: hex and exact decimal of each bound of the
    enclosure, then the bracket, from the fields the text reads to; --check
    compares the bounds of that enclosure with the oracle's, field for
    field, so a pair the format does not use fails too."""
    fmt = args.format
    numeral = args.command == "parse"
    read, floor = (_numeral, _decimal_floor) if numeral else (_ratio, _floor)
    reference = None

    def record(text: str) -> tuple[str, ...]:
        nonlocal reference
        # the fields unpacked into locals: a *-splatted call costs about
        # three times a plain one
        fields = read(text)
        sign, a, b = fields
        # a floor keeps the sign it is given
        _, m, e, rem = floor(sign, a, b, fmt)
        lower, upper = _bounds(sign, m, e, rem, fmt)
        if args.check:
            if reference is None:
                # bound on the first checked line: a run with none never loads the oracle
                from . import oracle

                reference = oracle.decimal_reference if numeral else oracle.rational_reference
            # the message names the input text: str() of an exact value past
            # 4300 digits would raise instead
            if reference(sign, a, b, fmt) != (lower, upper):
                raise CheckFailure(f"interval disagrees with the reference enclosure for {text!r}")
        if numeral:
            return numeral_fields(fields, lower, upper, fmt)
        return enclosure_fields(lower, upper, fmt)

    layout = "lb = {0} = {1}\nub = {2} = {3}\nbracket = {4}\n"
    return _serve(args.values, record, layout, stdin, stdout)


def _cmd_print(args: SimpleNamespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    fmt = args.format
    order = None

    def record(text: str) -> tuple[str]:
        nonlocal order
        bound = _float_fields(text, fmt)
        field = exact_field(bound)
        if args.check:
            if order is None:
                from . import oracle

                order = oracle.positional_order
            # the oracle reads the printed text back: it must be the float's value
            if order(field, bound) != 0:
                raise CheckFailure(f"exact decimal differs from the value of {text!r}")
        return (field,)

    return _serve(args.values, record, "{0}\n", stdin, stdout)


def _cmd_print_interval(args: SimpleNamespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    fmt = args.format
    order = None

    def record(low: str, high: str | None = None) -> tuple[str, str, str]:
        nonlocal order
        if high is None:
            # a filter line: both values on it, separated by blanks
            parts = low.split()
            if len(parts) != 2:
                raise NumeralSyntaxError(low, 0, "expected two values")
            low, high = parts
        lb, ub = _float_fields(low, fmt), _float_fields(high, fmt)
        if _below(ub, lb):
            raise DomainError(f"bounds out of order: {low!r} > {high!r}")
        fields = outward_fields(lb, ub, args.digits)
        if args.check:
            if order is None:
                from . import oracle

                order = oracle.positional_order
            # the oracle reads each printed bound back (None if it cannot): lo <= lb, hi >= ub
            if order(fields[0], lb) not in (-1, 0):
                raise CheckFailure("lower bound fails containment")
            if order(fields[1], ub) not in (0, 1):
                raise CheckFailure("upper bound fails containment")
        return fields

    low, high = args.values
    if low is not None and high is None:
        raise NumeralSyntaxError(low, 0, "expected two values or none")
    layout = "lo = {0}\nhi = {1}\nbracket = {2}\n"
    return _serve(args.values, record, layout, stdin, stdout)


def _cmd_table(args: SimpleNamespace, stdin: TextIOBase, stdout: TextIOBase) -> int:
    from .cliextra import _table

    mismatches = _table(stdout, args.check)
    if mismatches:
        raise CheckFailure(f"computed intervals disagree for {', '.join(mismatches)}")
    return 0


def _format(text: str) -> FloatFormat:
    """Value of --format: a format by name."""
    if text not in _FORMATS:
        choices = ", ".join(map(repr, _FORMATS))
        raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
    return _FORMATS[text]


def _digit_budget(text: str) -> int:
    """Value of --digits: an integer of at least 1."""
    try:
        budget = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if budget < 1:
        raise ValueError("need at least one digit")
    return budget


# An option: its name, the name of its value in the help (None for a flag,
# which is True when given), its default, the reader of its value and its help.
_FORMAT_OPTION = (
    "--format", f"{{{','.join(_FORMATS)}}}", BINARY32, _format, "target format (default binary32)"
)
_CHECK_OPTION = (
    "--check", None, False, None,
    "revalidate results against the independent reference; exit 3 on disagreement",
)
_DIGITS_OPTION = ("--digits", "DIGITS", 6, _digit_budget, "digit budget per bound (default 6)")
_HELP_OPTION = ("--help", None, None, None, "show this help message and exit")

# A subcommand: its summary, its values (name and help; any of them may be
# left out, from the last), its options and the function that runs it.
_COMMANDS = {
    "parse": (
        "narrowest interval enclosing a decimal numeral",
        (("numeral", "decimal numeral; omit to filter stdin"),),
        (_FORMAT_OPTION, _CHECK_OPTION),
        _cmd_parse,
    ),
    "parse-rational": (
        "narrowest interval enclosing p/q",
        (("ratio", "rational like 3/7; omit to filter stdin"),),
        (_FORMAT_OPTION, _CHECK_OPTION),
        _cmd_parse,
    ),
    "print": (
        "exact decimal numeral of a float",
        (("value", "decimal literal or bits:HEX; omit to filter stdin"),),
        (_FORMAT_OPTION, _CHECK_OPTION),
        _cmd_print,
    ),
    "print-interval": (
        "outward-rounded decimal interval of a float pair",
        (
            ("low", "lower bound (literal or bits:HEX)"),
            ("high", "upper bound (literal or bits:HEX)"),
        ),
        (_DIGITS_OPTION, _FORMAT_OPTION, _CHECK_OPTION),
        _cmd_print_interval,
    ),
    "table": (
        "print the unit-fraction demonstration table",
        (),
        (_CHECK_OPTION,),
        _cmd_table,
    ),
}


class _ArgumentError(Exception):
    """An argument the reader refuses, and the subcommand (None before one)
    whose usage goes with the message."""

    def __init__(self, command: str | None, message: str) -> None:
        super().__init__(message)
        self.command = command


def _option_name(token: str, names: tuple[str, ...], command: str | None) -> str:
    """The one option name that token spells out in full or begins."""
    if token in names:
        return token
    matches = [name for name in names if name.startswith(token)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise _ArgumentError(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    raise _ArgumentError(command, f"unrecognized arguments: {token}")


def _read_arguments(argv: list[str]) -> SimpleNamespace | str:
    """The subcommand that argv names, with its values (None for each left
    out) and its options by name, or the help text that argv asks for.

    A token that is -h or opens with -- is an option, in any position, as
    --name value or --name=value, its name spelled out or begun; -- alone
    ends the options. Any other token is a value, so a negative numeral or
    ratio needs no --. One loop reads them all: an option in first place,
    before any subcommand, is read against -h and --help alone. Tokens are
    read in order: the first argument error raises _ArgumentError, and a
    help request returns its text, whatever follows it."""
    head = argv[0] if argv else ""
    command = None if head == "-h" or head.startswith("--") and head != "--" else head
    if command is not None and command not in _COMMANDS:
        if not argv:
            raise _ArgumentError(None, "the following arguments are required: command")
        choices = ", ".join(map(repr, _COMMANDS))
        message = f"argument command: invalid choice: {head!r} (choose from {choices})"
        raise _ArgumentError(None, message)
    _, value_names, options, _ = _COMMANDS.get(command, ("", (), (), None))
    specs = {option[0]: option for option in (*options, _HELP_OPTION)}
    specs["-h"] = _HELP_OPTION
    found = {name[2:]: default for name, _, default, _, _ in options}
    values = []
    tokens = iter(argv[1:] if command else argv)
    for token in tokens:
        if token == "--":
            values += tokens
        elif token != "-h" and not token.startswith("--"):
            values.append(token)
        else:
            name, equals, text = token.partition("=")
            option = specs[_option_name(name, specs, command)]
            name, metavar, _, read, _ = option
            if metavar is None:
                if equals:
                    message = f"argument {name}: ignored explicit argument {text!r}"
                    raise _ArgumentError(command, message)
                if option is _HELP_OPTION:
                    from .cliextra import _help

                    return _help(_COMMANDS, _HELP_OPTION, command)
                found[name[2:]] = True
                continue
            if not equals:
                text = next(tokens, None)
                if text is None:
                    raise _ArgumentError(command, f"argument {name}: expected one argument")
            try:
                found[name[2:]] = read(text)
            except ValueError as err:
                raise _ArgumentError(command, f"argument {name}: {err}") from None
    if len(values) > len(value_names):
        extra = " ".join(values[len(value_names) :])
        raise _ArgumentError(command, f"unrecognized arguments: {extra}")
    values += [None] * (len(value_names) - len(values))
    return SimpleNamespace(command=command, values=values, **found)


def run(
    argv: list[str],
    stdin: TextIOBase | None = None,
    stdout: TextIOBase | None = None,
    stderr: TextIOBase | None = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _read_arguments(argv)
    except _ArgumentError as err:
        from .cliextra import _usage

        prog = "radival" if err.command is None else f"radival {err.command}"
        stderr.write(f"{_usage(_COMMANDS, err.command)}\n{prog}: error: {err}\n")
        return 1
    if isinstance(args, str):
        stdout.write(args)
        return 0
    try:
        return _COMMANDS[args.command][3](args, stdin, stdout)
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
    # what the launch built lives until exit: frozen, no collection walks it
    gc.freeze()
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
