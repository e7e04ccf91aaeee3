"""The command line replays its golden transcript byte for byte.

data/cli_transcript.json holds argv, stdin, stdout, stderr and exit status
of each run, written by write_cli_transcript.py from an earlier version of
the CLI. Every filter case must also print the same with --check.
"""

import json

import pytest

from write_cli_transcript import TRANSCRIPT, run_cli

CASES = json.loads(TRANSCRIPT.read_text())


@pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
@pytest.mark.parametrize("case", CASES["filter"], ids=lambda c: " ".join(c["argv"]))
def test_filter_transcript(case, check):
    argv = case["argv"] + ["--check"] * check
    assert run_cli(argv, case["stdin"]) == case["result"]


@pytest.mark.parametrize("case", CASES["single_shot"], ids=lambda c: " ".join(c["argv"]) or "()")
def test_single_shot_transcript(case):
    assert run_cli(case["argv"]) == case["result"]
