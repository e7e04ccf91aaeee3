"""Traced in-process run of radival.cli.run, attributing time to layers.

Started by run.py as its own process, with the working tree's src/ on
PYTHONPATH, the corpus on stdin and the CLI arguments after "--":

    python3 perfbench/tracer.py --seconds 20 -- parse --format binary64

It alternates untraced and traced passes over the corpus until the time is
up, then writes one JSON object to stdout: the CLI output of the passes,
whether they all agreed, the time of each pass of both kinds, and for each
traced function its call count, self time and per-call duration percentiles.

The spans come from wrappers installed here, around the public functions
of the layers, under every name they are bound to in a radival module; no
file under src/ changes. A function that is missing from the tree (renamed
or folded away) reports zero calls.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import math
import sys
import time
from array import array

TRACED = (
    "parse.parse_numeral",
    "parse.Rational.from_text",
    "parse.decimal_to_interval",
    "parse.rational_to_interval",
    "render.float_to_exact_decimal",
    "render.interval_to_decimal",
    "render.truncate_directed",
    "render.plain_decimal",
    "render.bracket_notation",
    "render.hex_significand_rendering",
    "oracle.exact_value",
    "oracle.rational_value",
    "oracle.float_exact_value",
    "oracle.narrowest_interval_reference",
    "floatkit.from_bits",
    "floatkit.next_up",
    "digitstring.DigitString.as_text",
)


class Tracer:
    """Wrappers that record a span per call: its duration and, through a
    stack of child-time accumulators, its self time (duration minus the
    time its traced children took). The bottom of the stack collects the
    time spent inside outermost traced calls."""

    def __init__(self, names: tuple[str, ...]):
        self.calls = [0] * len(names)
        self.self_ns = [0] * len(names)
        self.durations = [array("q") for _ in names]
        self.stack = [0]
        self._patches: list[tuple[object, str, object, object]] = []
        for fid, name in enumerate(names):
            self._plan(fid, name)

    def _plan(self, fid: int, name: str) -> None:
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"radival.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = owner.__dict__[path[-1]]
        except (ImportError, AttributeError, KeyError):
            return
        if isinstance(owner, type):
            # a method or classmethod: patching the class reaches every caller
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(fid, original.__func__))
            else:
                wrapped = self._wrap(fid, original)
            self._patches.append((owner, path[-1], original, wrapped))
            return
        wrapped = self._wrap(fid, original)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "radival"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapped))

    def _wrap(self, fid: int, fn):
        stack, calls, self_ns, durations = self.stack, self.calls, self.self_ns, self.durations[fid]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                calls[fid] += 1
                self_ns[fid] += duration - children
                durations.append(duration)

        return span

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def _percentile(values: array, q: float) -> int:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _pass(run, argv: list[str], text: str) -> tuple[int, str, int]:
    out = io.StringIO()
    start = time.perf_counter_ns()
    status = run(argv, io.StringIO(text), out, sys.stderr)
    return status, out.getvalue(), time.perf_counter_ns() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    text = sys.stdin.read()

    from radival.cli import run

    tracer = Tracer(TRACED)
    status, output, _ = _pass(run, argv, text)  # warm-up: imports, caches
    outputs = {output}
    statuses = {status}
    untraced_ns, traced_ns, passes = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        status, output, elapsed = _pass(run, argv, text)
        untraced_ns.append(elapsed)
        outputs.add(output)
        statuses.add(status)
        tracer.install()
        try:
            status, output, elapsed = _pass(run, argv, text)
        finally:
            tracer.remove()
        traced_ns.append(elapsed)
        outputs.add(output)
        statuses.add(status)
        passes += 1

    json.dump(
        {
            "status": sorted(statuses),
            "output": output,
            "outputs_agree": len(outputs) == 1,
            "passes": passes,
            "untraced_ns": untraced_ns,
            "traced_ns": traced_ns,
            "outside_ns": sum(traced_ns) - tracer.stack[0],
            "functions": {
                name: {
                    "calls": tracer.calls[fid],
                    "self_ns": tracer.self_ns[fid],
                    "p50_ns": _percentile(tracer.durations[fid], 0.50),
                    "p99_ns": _percentile(tracer.durations[fid], 0.99),
                }
                for fid, name in enumerate(TRACED)
            },
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
