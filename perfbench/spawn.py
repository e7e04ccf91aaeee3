"""Run one command and report its wall time and its own peak RSS.

    python3 -S perfbench/spawn.py LIMIT_S PROGRAM [ARG...]

The command inherits stdin, stdout and stderr. When it has ended, a last
stderr line reads "<MARKER> <wall seconds> <peak RSS in KiB>", and the exit
status is the command's (128 + signal number when a signal ended it). A
command still running after LIMIT_S seconds is killed.

Linux charges a child, at exec, with the resident size of the process that
spawned it, so the child of a large benchmark process would report that
process's size. This launcher is a bare interpreter, smaller than any
radival process, so the figure it reports is the command's own.
"""

import os
import signal
import sys
import time

MARKER = "perfbench-spawn"


def main() -> int:
    limit, program, *args = sys.argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawnp(program, [program, *args], os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(max(1, round(float(limit))))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    sys.stderr.write(f"\n{MARKER} {wall!r} {usage.ru_maxrss}\n")
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
