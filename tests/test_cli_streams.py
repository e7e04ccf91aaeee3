"""The command line run as a process: how it reads stdin, when its records
reach stdout, and what it does when a standard stream is closed."""

import io
import os
import pathlib
import select
import subprocess
import sys
import time

import pytest

import radival
from radival import cli

SRC = pathlib.Path(radival.__file__).resolve().parents[1]

# records must arrive within this many seconds of the line they answer
ANSWER_TIMEOUT_S = 10


def _env(**overrides):
    """The environment with this tree's package first on PYTHONPATH; a
    variable given as None is removed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _in_process(argv, text):
    out = io.StringIO()
    status = cli.run(argv, stdin=io.StringIO(text), stdout=out, stderr=io.StringIO())
    return status, out.getvalue()


def _run_with_closed(fd, argv):
    """Run the command line with file descriptor fd closed at launch."""
    launcher = "import os, sys; os.close(int(sys.argv[1])); os.execv(sys.executable, sys.argv[2:])"
    return subprocess.run(
        [sys.executable, "-c", launcher, str(fd), sys.executable, "-m", "radival.cli", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=_env(),
        timeout=60,
    )


def test_closed_stdout_exits_1_quietly():
    proc = _run_with_closed(1, ["parse", "0.1"])
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_closed_stdin_filters_as_empty_input():
    proc = _run_with_closed(0, ["parse"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


def test_closed_stdin_single_shot():
    proc = _run_with_closed(0, ["parse", "0.1"])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == _in_process(["parse", "0.1"], "")[1]


def _read_line(stream):
    """The next line from an unbuffered pipe, or what arrived of it when
    nothing more comes within ANSWER_TIMEOUT_S."""
    data = b""
    deadline = time.monotonic() + ANSWER_TIMEOUT_S
    while not data.endswith(b"\n"):
        ready, _, _ = select.select([stream], [], [], max(0.0, deadline - time.monotonic()))
        chunk = os.read(stream.fileno(), 4096) if ready else b""
        if not chunk:
            break
        data += chunk
    return data


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["PYTHONUNBUFFERED", "buffered"])
def test_filter_answers_each_line_before_the_next(unbuffered):
    """A coprocess that sends one line and waits for its record gets it,
    however the interpreter buffers stdout."""
    lines = ["1/3", "-2/7", "1/0"]
    expected = _in_process(["parse-rational"], "".join(f"{x}\n" for x in lines))[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "radival.cli", "parse-rational"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        bufsize=0,
        env=_env(PYTHONUNBUFFERED=unbuffered),
    )
    try:
        answers = []
        for line in lines:
            proc.stdin.write(f"{line}\n".encode())
            answers.append(_read_line(proc.stdout).decode())
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    assert answers == expected.splitlines(keepends=True)


def _straddling_chunk():
    # the two bytes of "é" sit at 8,191 and 8,192, either side of the
    # first read's end
    pad = b"1/3\n" * 2047 + b"22\n"
    assert len(pad) == 8191
    return pad + "é1\n".encode() + b"1/8\n"


# each input with the error handler the interpreter's stdio is set to: the
# strict one, as under a UTF-8 locale, must not stop the filter at a bad byte
STDIN_CASES = {
    "invalid-byte": (b"1/3\n1/\xff3\n\xff\n2/5\n", "surrogateescape"),
    "invalid-byte-strict-stdio": (b"1/3\n\xff\xfe1\n2/5\n", "strict"),
    "lone-cr": (b"1/3\r2\n1\r/4\n5/6\n", "surrogateescape"),
    "crlf": (b"1/3\r\n-4/9\r\n1/0\r\n", "surrogateescape"),
    "no-final-newline": (b"1/3\n7/11", "surrogateescape"),
    "blank-lines": (b"\n1/3\n\n  \n\t\n5/7\n\n", "surrogateescape"),
    "straddles-chunk": (_straddling_chunk(), "surrogateescape"),
    "longer-than-a-read": (b"1/3\n" + b"9" * 20000 + b"/7\n2/9\n", "surrogateescape"),
}


@pytest.mark.parametrize("data, errors", STDIN_CASES.values(), ids=STDIN_CASES.keys())
def test_filter_reads_stdin_as_run_reads_text(data, errors):
    """The process decodes and splits its stdin as cli.run splits the
    same text decoded as UTF-8, an undecodable byte becoming a lone
    surrogate that its line's echo writes back."""
    codec = ("utf-8", "surrogateescape")
    proc = subprocess.run(
        [sys.executable, "-m", "radival.cli", "parse-rational"],
        input=data,
        capture_output=True,
        env=_env(PYTHONIOENCODING=f"utf-8:{errors}"),
        timeout=60,
    )
    status, out = _in_process(["parse-rational"], data.decode(*codec))
    assert (proc.returncode, proc.stderr) == (status, b"")
    assert proc.stdout == out.encode(*codec)


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs Linux /proc/self/io")
def test_filter_writes_in_blocks():
    """A 10,000-line filter run makes far fewer write calls than records,
    even with PYTHONUNBUFFERED set."""
    # the count is read at exit, after main() has flushed stdout
    child = (
        "import atexit, runpy, sys\n"
        "def report():\n"
        "    counts = dict(line.split(': ') for line in open('/proc/self/io'))\n"
        "    sys.stderr.write(counts['syscw'])\n"
        "atexit.register(report)\n"
        "sys.argv = ['radival', 'parse-rational']\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    data = "".join(f"{i}/{i + 7}\n" for i in range(1, 10001))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        input=data,
        capture_output=True,
        text=True,
        env=_env(PYTHONUNBUFFERED="1", PYTHONDONTWRITEBYTECODE="1"),
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == _in_process(["parse-rational"], data)[1]
    assert int(proc.stderr) < 1000


def _run_cli(argv, data=b""):
    return subprocess.run(
        [sys.executable, "-m", "radival.cli", *argv],
        input=data,
        capture_output=True,
        env=_env(),
        timeout=120,
    )


def test_long_filter_matches_run():
    """A 20,000-line filter, whose output is far past a pipe's 64 KiB,
    writes the records cli.run writes and exits 0 with nothing on stderr."""
    text = "".join(f"{i}/{3 * i + 1}\n" for i in range(1, 20001))
    proc = _run_cli(["parse-rational"], text.encode())
    status, out = _in_process(["parse-rational"], text)
    assert len(out) > 64 * 1024
    assert (status, proc.returncode, proc.stderr) == (0, 0, b"")
    assert proc.stdout == out.encode()


@pytest.mark.parametrize(
    "argv, code",
    [(["parse", "1e"], 1), (["parse-rational", "1/0"], 2)],
    ids=["syntax", "domain"],
)
def test_single_shot_error_exit(argv, code):
    """A single-shot failure exits with its class's status and writes its
    error: line, and nothing else, to stderr."""
    proc = _run_cli(argv)
    err = io.StringIO()
    status = cli.run(argv, stdin=io.StringIO(), stdout=io.StringIO(), stderr=err)
    assert (proc.returncode, status) == (code, code)
    assert proc.stdout == b""
    assert proc.stderr.decode() == err.getvalue()
    assert proc.stderr.startswith(b"error: ")


def test_check_failure_exits_3():
    """A process whose oracle disagrees exits 3 with its check failed: line."""
    child = (
        "import runpy, sys\n"
        "from radival import oracle\n"
        "oracle.decimal_reference = lambda *args: None\n"
        "sys.argv = ['radival', 'parse', '--check', '0.1']\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=_env(), timeout=60
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "check failed: interval disagrees with the reference enclosure for '0.1'\n"


@pytest.mark.parametrize(
    "argv, text",
    [(["parse-rational"], "".join(f"{i}/7\n" for i in range(1, 2001))), (["parse", "0.1"], "")],
    ids=["filter", "single-shot"],
)
def test_atexit_handler_sees_every_record(tmp_path, argv, text):
    """An atexit handler registered before the launch still runs, and by
    then every record has reached the file stdout writes to."""
    child = (
        "import atexit, os, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(str(os.fstat(1).st_size)))\n"
        f"sys.argv = ['radival', *{argv!r}]\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    with open(tmp_path / "out", "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-c", child],
            input=text.encode(),
            stdout=out,
            stderr=subprocess.PIPE,
            env=_env(),
            timeout=60,
        )
    expected = _in_process(argv, text)[1].encode()
    assert proc.returncode == 0
    assert (tmp_path / "out").read_bytes() == expected
    assert proc.stderr == str(len(expected)).encode()
