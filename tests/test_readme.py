"""The README's examples run as written.

The library block is a `>>>` session that stdlib doctest replays. Each
single-shot command line with shown output runs through cli.run: the
shown lines are its stdout, or its stderr when it fails, and its exit
status is the one listed here. The elided `table` example and the filter
example, whose shown output lines up its tabs as spaces, are not run.
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


def shown_commands() -> dict[str, str]:
    """Each `$ radival ...` line of a README code block, but for `table`,
    with the lines shown under it."""
    shown = {}
    for block in re.findall(r"^```\n(.*?)^```$", README, re.MULTILINE | re.DOTALL):
        for command, output in re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block, re.MULTILINE):
            if command.startswith("radival ") and command != "radival table":
                shown[command] = output
    return shown


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
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(shlex.split(command)[1:], stdin=io.StringIO(), stdout=out, stderr=err)
    shown = shown_commands()[command]
    expected = (shown, "") if COMMANDS[command] == 0 else ("", shown)
    assert (out.getvalue(), err.getvalue(), status) == (*expected, COMMANDS[command])
