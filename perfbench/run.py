"""radival benchmark: the CLI line filter on seeded corpora.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Untraced (--trace 0), each round starts `python -m radival.cli <subcommand>`
as a subprocess, with the working tree's src/ first on PYTHONPATH, pipes
the whole corpus through it and waits for it; rounds repeat until --seconds
have passed. Before each round the same command runs once on empty stdin,
which times start-up. A fixed reference loop runs between launches, and
each launch's wall time is scaled by it to a nominal machine speed, which
keeps the figures steady on a machine whose speed drifts (see REFERENCE_S).
Traced (--trace 1), tracer.py runs radival.cli.run in-process on the same
corpus and attributes line time to the layers.

Every output record is checked by checker.py, which imports no radival
code. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With no --workload and no --trace, every
workload runs both ways and the metrics are keyed <workload>.<metric>.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checker
import corpus
import selftest
import spawn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_LAUNCHES = 9
# The shared machine's speed swings by up to 1.6x within seconds, so wall
# times are scaled to a nominal speed: the duration of reference_loop() at
# which scaled and wall-clock figures coincide. 0.04 s is its typical
# duration on the 2-vCPU Xeon (2.1 GHz) box behind perfbench/README.md.
REFERENCE_S = 0.04
# A round takes about two seconds; one that runs past this is killed and
# all its lines count as failed, so a hang cannot stall the benchmark.
ROUND_LIMIT_S = 60.0
PERCENTILE_FUNCTIONS = (
    "parse.parse_numeral",
    "parse.decimal_to_interval",
    "parse.rational_to_interval",
    "render.float_to_exact_decimal",
    "render.interval_to_decimal",
)


@dataclass
class Launch:
    wall_s: float
    maxrss_mb: float
    status: int
    stdout: bytes
    stderr: str


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _launch(cmd: list[str], data: bytes, limit_s: float = ROUND_LIMIT_S) -> Launch:
    """Run cmd through spawn.py with data on stdin, for its wall time and
    its own peak RSS."""
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "spawn.py"), str(limit_s), *cmd],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_env(), cwd=ROOT,
    )
    err: list[bytes] = []

    def feed() -> None:
        try:
            proc.stdin.write(data)
        except BrokenPipeError:
            pass
        finally:
            proc.stdin.close()

    threads = [
        threading.Thread(target=feed),
        threading.Thread(target=lambda: err.append(proc.stderr.read())),
    ]
    for t in threads:
        t.start()
    out = proc.stdout.read()
    for t in threads:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    status = proc.wait()
    stderr, marker, report = err[0].decode(errors="replace").rpartition(f"\n{spawn.MARKER} ")
    if not marker:
        raise RuntimeError(f"launcher failed: {err[0].decode(errors='replace')[-2000:]}")
    wall, maxrss_kb = report.split()
    return Launch(float(wall), int(maxrss_kb) / 1024, status, out, stderr)


@dataclass
class Result:
    attempted: int
    failed: int
    wrong: list[str]
    errors: Counter
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def _judge(w: corpus.Workload, lines, outputs: list[tuple[int, str]]) -> tuple[int, int, list, Counter]:
    """Check each pass's (exit status, output); identical outputs are checked
    once. A pass that exits other than 0, or 3 with an ERR record from a
    failed --check, counts every line as failed."""
    verdicts: dict[str, checker.Verdict] = {}
    failed, wrong, errors = 0, [], Counter()
    for status, output in outputs:
        if output not in verdicts:
            verdicts[output] = checker.check_output(w, lines, output)
            wrong.extend(verdicts[output].wrong)
        v = verdicts[output]
        if status == 0 or (status == 3 and v.failed):
            failed += v.failed
            errors += v.errors
        else:
            failed += len(lines)
            errors[f"exit status {status}"] += len(lines)
    return len(lines) * len(outputs), failed, wrong, errors


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.6g}..{q3:.6g}"


def _stdin(lines: list[corpus.Line]) -> bytes:
    return "".join(line.text + "\n" for line in lines).encode()


def reference_loop() -> int:
    """Fixed pure-Python work in the style of the program under test: big
    integers through str and back, divmod by powers of ten, Fraction
    arithmetic, digit tuples. Its duration measures the machine's speed."""
    acc = 0
    for k in range(1, 1500):
        n = 3 ** (k % 700) * 5 ** (k % 60)
        text = str(n)
        acc ^= int(text[::-1].lstrip("0") or "0") % 1000003
        acc ^= divmod(n << 80, 10 ** (k % 40 + 1))[1] & 0xFFFF
        acc ^= hash(Fraction(n, 7 ** (k % 30) + 1) + Fraction(1, k)) & 0xFF
        acc ^= len(format(n, "x")) + len(tuple(b - 48 for b in text[:300].encode()))
    return acc


def _reference_s() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class SpeedScale:
    """Scales a launch's wall time to the nominal machine speed.

    The reference loop runs before the first launch and after every launch;
    a launch's wall time is multiplied by REFERENCE_S over the mean of the
    two reference durations around it. On a machine whose speed holds
    steady at the nominal value the scaled time equals the wall time.
    """

    def __init__(self) -> None:
        self.reference = [_reference_s()]

    def __call__(self, wall_s: float) -> float:
        self.reference.append(_reference_s())
        return wall_s * REFERENCE_S / ((self.reference[-2] + self.reference[-1]) / 2)


def filter_run(w: corpus.Workload, lines: list[corpus.Line], seconds: float) -> Result:
    cmd = [sys.executable, "-m", "radival.cli", *w.argv]
    data = _stdin(lines)
    _launch(cmd, b"")  # writes the bytecode caches the timed launches read
    scale = SpeedScale()
    setup: list[float] = []
    setup_scaled: list[float] = []
    rounds: list[Launch] = []
    rounds_scaled: list[float] = []
    outputs: dict[bytes, bytes] = {}

    def start_up() -> None:
        setup.append(_launch(cmd, b"").wall_s)
        setup_scaled.append(scale(setup[-1]))

    deadline = time.perf_counter() + seconds
    # start-up launches alternate with the rounds, so both sample the same
    # stretch of time on a shared machine
    while not rounds or time.perf_counter() < deadline:
        start_up()
        r = _launch(cmd, data)
        rounds_scaled.append(scale(r.wall_s))
        r.stdout = outputs.setdefault(r.stdout, r.stdout)  # keep one copy of each output
        rounds.append(r)
    while len(setup) < MIN_SETUP_LAUNCHES:
        start_up()
    texts = {out: out.decode("utf-8", "replace") for out in outputs}
    attempted, failed, wrong, errors = _judge(w, lines, [(r.status, texts[r.stdout]) for r in rounds])
    rates = [len(lines) / t for t in rounds_scaled]
    wall_rates = [len(lines) / r.wall_s for r in rounds]
    rss = [r.maxrss_mb for r in rounds]
    notes = [
        f"{len(rounds)} rounds of {len(lines)} lines",
        f"lines_per_s median of {len(rates)}{_quartiles(rates)}",
        f"setup_s median of {len(setup)}{_quartiles(setup_scaled)}",
        f"peak_rss_mb median of {len(rss)}{_quartiles(rss)}",
        f"unscaled wall clock: {statistics.median(wall_rates):.6g} lines/s{_quartiles(wall_rates)}; "
        f"start-up {statistics.median(setup):.6g} s{_quartiles(setup)}",
        f"reference loop: median {statistics.median(scale.reference):.6g} s over "
        f"{len(scale.reference)} runs{_quartiles(scale.reference)} (nominal {REFERENCE_S} s)",
    ]
    notes += [f"stderr: {r.stderr[-300:]}" for r in rounds[:1] if r.stderr]
    metrics = {
        "lines_per_s": (statistics.median(rates), "lines/s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return Result(attempted, failed, wrong, errors, metrics, notes)


def traced_run(w: corpus.Workload, lines: list[corpus.Line], seconds: float) -> Result:
    cmd = [sys.executable, str(HERE / "tracer.py"), "--seconds", str(seconds), "--", *w.argv]
    launch = _launch(cmd, _stdin(lines), seconds + ROUND_LIMIT_S)
    if launch.status != 0:
        raise RuntimeError(f"traced run failed: {launch.stderr[-2000:]}")
    trace = json.loads(launch.stdout)
    passes = 2 * trace["passes"] + 1  # untraced, traced, and the warm-up
    status = max(trace["status"])
    outputs = [(status, trace["output"])] * passes
    attempted, failed, wrong, errors = _judge(w, lines, outputs)
    if not trace["outputs_agree"]:
        wrong.append("passes of the traced run disagree")
    per_line = len(lines) * trace["passes"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, f in trace["functions"].items():
        metrics[f"{name}.calls_per_line"] = (f["calls"] / per_line, "count")
        metrics[f"{name}.self_us_per_line"] = (f["self_ns"] / per_line / 1e3, "us")
    for name in PERCENTILE_FUNCTIONS:
        f = trace["functions"][name]
        metrics[f"{name}.us_per_call_p50"] = (f["p50_ns"] / 1e3, "us")
        metrics[f"{name}.us_per_call_p99"] = (f["p99_ns"] / 1e3, "us")
    traced, untraced = sum(trace["traced_ns"]), sum(trace["untraced_ns"])
    metrics["cli.self_us_per_line"] = (trace["outside_ns"] / per_line / 1e3, "us")
    metrics["trace.us_per_line"] = (traced / per_line / 1e3, "us")
    metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    notes = [f"{trace['passes']} traced and {trace['passes']} untraced passes of {len(lines)} lines"]
    return Result(attempted, failed, wrong, errors, metrics, notes)


def _report(w: corpus.Workload, traced: bool, seed: int, r: Result) -> None:
    print(f"== {w.name} ({' '.join(w.argv)}), seed {seed}, {'traced' if traced else 'untraced'}")
    for note in r.notes:
        print(f"   {note}")
    print(f"   attempted {r.attempted} lines, failed {r.failed}")
    for message, count in r.errors.most_common():
        print(f"   failed x{count}: {message}")
    for problem in r.wrong[:10]:
        print(f"   WRONG {problem}")
    for name, (value, unit) in r.metrics.items():
        print(f"   {name:52} {value:14.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description="radival CLI filter benchmark")
    parser.add_argument("--workload", choices=[*corpus.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 for the traced run; both when left off")
    args = parser.parse_args()

    if not (SRC / "radival" / "cli.py").is_file():
        print(f"error: no radival sources under {SRC}", file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        for problem in problems:
            print(f"error: checker self-test: {problem}", file=sys.stderr)
        return 1
    # Only this process, which runs no radival code, reads numerals past
    # CPython's 4300-digit int/str limit.
    sys.set_int_max_str_digits(0)

    print(f"machine: {platform.platform()}, {platform.machine()}, {os.cpu_count()} CPUs")
    print(f"python: {platform.python_implementation()} {platform.python_version()}")
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    single = len(names) == 1 and len(modes) == 1
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        w = corpus.WORKLOADS[name]
        lines = corpus.build(w, args.seed)
        for traced in modes:
            r = (traced_run if traced else filter_run)(w, lines, args.seconds)
            _report(w, traced, args.seed, r)
            attempted += r.attempted
            failed += r.failed
            correct = correct and not r.wrong
            for metric, (value, unit) in r.metrics.items():
                metrics[metric if single else f"{name}.{metric}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
