"""The command line's rare paths: its help and usage texts and the table.

cli loads this module only for a help request, an argument error or the
table subcommand, so a filter launch compiles none of it. The texts are
read off the command table that cli passes in, the one home of every
subcommand's values and options.
"""

from io import TextIOBase

from .floatkit import BINARY32, _bounds, _floor

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


def _table(stdout: TextIOBase, check: bool) -> list[str]:
    """Write the table; with check, return the rows whose interval
    disagrees with the oracle's, all of them written first."""
    # the table's nearest-float column comes from the oracle, check or not,
    # and its cells from the value layer, which no filter record loads
    from . import oracle
    from .parse import Rational, _enclose
    from .render import hex_significand_bracket, hex_significand_rendering

    fmt = BINARY32
    mismatches = []
    stdout.write("\n".join(_TABLE_HEADER) + "\n")
    for i in range(2, 12):
        nearest = oracle.nearest_float(oracle.rational_value(Rational(1, 1, i)), fmt)
        grid = _floor(1, 1, i, fmt)
        # the printed interval is the one built from the bounds checked here
        if check and oracle.rational_reference(1, 1, i, fmt) != _bounds(*grid, fmt):
            mismatches.append(f"1/{i}")
        cell = _ROW_OVERRIDES.get(i) or hex_significand_bracket(_enclose(*grid, fmt), fmt)
        stdout.write(f"{f'1/{i}':<8}{hex_significand_rendering(nearest, fmt):<26}{cell}\n")
    return mismatches


def _usage(commands: dict, command: str | None) -> str:
    if command is None:
        return f"usage: radival [-h] {{{','.join(commands)}}} ..."
    _, value_names, options, _ = commands[command]
    parts = [f"[{name} {metavar}]" if metavar else f"[{name}]" for name, metavar, *_ in options]
    parts += [f"[{name}]" for name, _ in value_names]
    return f"usage: radival {command} [-h] {' '.join(parts)}"


def _help(commands: dict, help_option: tuple, command: str | None) -> str:
    """The help text of the subcommand, or of the program for None."""
    from textwrap import fill

    if command is None:
        about = "exact decimal/binary conversion with narrowest enclosing intervals"
        values = [(f"{{{','.join(commands)}}}", "")]
        values += [(f"  {name}", spec[0]) for name, spec in commands.items()]
        specs = ()
    else:
        about, values, specs, _ = commands[command]
    options = [(f"-h, {help_option[0]}", help_option[-1])]
    for name, metavar, *_, text in specs:
        options.append((f"{name} {metavar}" if metavar else name, text))
    lines = [_usage(commands, command), "", about]
    for title, rows in (("positional arguments", values), ("options", options)):
        if rows:
            lines += ["", f"{title}:"]
        for name, text in rows:
            # the text starts in column 24, on a line of its own after a long name
            first = f"  {name:<22}"
            if len(name) > 20 or not text:
                lines.append(f"  {name}")
                first = " " * 24
            if text:
                lines.append(fill(text, 80, initial_indent=first, subsequent_indent=" " * 24))
    return "\n".join(lines) + "\n"
