"""The README's examples run as written.

The library block is a `>>>` session that stdlib doctest replays. Each
single-shot command line with shown output runs through cli.run: the
shown lines are its stdout, or its stderr when it fails, and its exit
status is the one listed here. The `table` example shows some of the
table's rows, a `...` line standing for the rows it skips: the shown rows
are the table's, in order. The filter example lines its tab-separated
fields up with runs of spaces: read as tabs, they are the filter's.
"""

import doctest
import io
import pathlib
import re
import shlex

import pytest

from radival import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()

# each single-shot example the README shows, with its exit status
COMMANDS = {
    "radival parse 0.1": 0,
    "radival parse-rational 3/7 --check": 0,
    "radival print bits:3dcccccd": 0,
    "radival print 0.125 --format binary64": 0,
    "radival print 0.1": 2,
    "radival print-interval bits:3eaaaaaa bits:3eaaaaab --digits 8": 0,
}


def shown_examples() -> dict[str, str]:
    """Each `$ ...` line of a README code block, with the lines shown under it."""
    shown = {}
    for block in re.findall(r"^```\n(.*?)^```$", README, re.MULTILINE | re.DOTALL):
        for command, output in re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block, re.MULTILINE):
            shown[command] = output
    return shown


def shown_commands() -> dict[str, str]:
    """The single-shot examples: each `$ radival ...` line but `table`."""
    return {
        command: output
        for command, output in shown_examples().items()
        if command.startswith("radival ") and command != "radival table"
    }


def run(argv: list[str], stdin: str = "") -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return out.getvalue(), err.getvalue(), status


def test_library_session():
    (session,) = re.findall(r"^```pycon\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    test = doctest.DocTestParser().get_doctest(session, {}, "README library", "README.md", 0)
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    report = io.StringIO()
    result = runner.run(test, out=report.write)
    assert result.attempted > 0 and result.failed == 0, report.getvalue()


def test_every_command_is_listed():
    assert sorted(shown_commands()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_example(command):
    shown = shown_commands()[command]
    expected = (shown, "") if COMMANDS[command] == 0 else ("", shown)
    assert run(shlex.split(command)[1:]) == (*expected, COMMANDS[command])


def test_elided_table_example():
    """The shown rows are the table's own, in order: a `...` line skips
    one or more rows, and every other shown row is the next row."""
    out, err, status = run(["table"])
    assert (err, status) == ("", 0)
    rows = out.splitlines()
    shown = shown_examples()["radival table"].splitlines()
    assert shown.count("...") >= 1
    at, skipping = 0, False
    for line in shown:
        if line == "...":
            skipping = True
            continue
        if skipping:
            # the row after a skip is found past at least one skipped row
            at = rows.index(line, at + 1)
            skipping = False
        assert rows[at] == line, (at, line)
        at += 1
    assert at == len(rows) or skipping


def test_filter_example():
    """The filter example's stdin is its printf text; each shown line, its
    runs of spaces read as tabs, has the fields of the filter's record."""
    [(command, shown)] = [
        (command, shown) for command, shown in shown_examples().items() if "| radival" in command
    ]
    printf, text, pipe, radival, *argv = shlex.split(command)
    assert (printf, pipe, radival) == ("printf", "|", "radival")
    out, err, status = run(argv, text.replace("\\n", "\n"))
    assert (err, status) == ("", 0)
    records = [line.split("\t") for line in out.splitlines()]
    assert records == [re.split(" {2,}", line) for line in shown.splitlines()]
