"""The demos run as scripts and print what they printed when written."""

import os
import pathlib
import subprocess
import sys

import pytest

import radival

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = pathlib.Path(__file__).parent / "data"


def run_demo(name, *args):
    src = pathlib.Path(radival.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py"), *args],
        capture_output=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name", ["01_narrowest_intervals", "02_exact_output_and_truncation", "03_digit_arithmetic"]
)
def test_demo_output_is_golden(name):
    proc = run_demo(name)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (DATA / f"demo_{name}.txt").read_bytes()


def test_oracle_crosscheck_demo_agrees():
    # its last line reports a wall time, so only the exit status and the
    # agreement lines are fixed
    proc = run_demo("04_oracle_crosscheck", "500")
    assert (proc.returncode, proc.stderr) == (0, b"")
    lines = proc.stdout.decode().splitlines()
    assert lines[:2] == [
        "binary32: 500 random numerals, oracle agrees on every one",
        "binary64: 500 random numerals, oracle agrees on every one",
    ]
