"""Write tests/data/cli_transcript.json, the golden command-line transcript.

Each value subcommand filters a seeded corpus in both formats, and a set of
single-shot invocations covers the labelled layouts and the error exits.
The file records argv, stdin, stdout, stderr and exit status of each run;
tests/test_cli_transcript.py replays them. Rewrite it only for a change of
behaviour that is meant:

    PYTHONPATH=src python tests/write_cli_transcript.py
"""

import io
import json
import pathlib
import random
import struct

from radival import cli

TRANSCRIPT = pathlib.Path(__file__).parent / "data" / "cli_transcript.json"
FORMATS = ("binary32", "binary64")
BITS_WIDTH = {"binary32": 8, "binary64": 16}
STRUCT_CODE = {"binary32": ">f", "binary64": ">d"}

# the special patterns of each format: zero, negative zero, the smallest
# subnormal, the largest finite value, both infinities and a quiet NaN
SPECIAL_BITS = {
    "binary32": [
        "00000000",
        "80000000",
        "00000001",
        "7f7fffff",
        "7f800000",
        "ff800000",
        "7fc00000",
    ],
    "binary64": [
        "0000000000000000",
        "8000000000000000",
        "0000000000000001",
        "7fefffffffffffff",
        "7ff0000000000000",
        "fff0000000000000",
        "7ff8000000000000",
    ],
}


def _numeral(rng, fmt):
    digits = str(rng.randint(1, 10 ** rng.randint(1, 20)))
    span = 50 if fmt == "binary32" else 40
    text = f"{digits[0]}.{digits[1:]}e{rng.randint(-span, span)}" if len(digits) > 1 else digits
    return ("-" if rng.random() < 0.5 else "") + text


def parse_corpus(rng, fmt):
    fixed = [
        "0", "-0.000", "0e999", "0.1", "-.5", "5.", "00012.5000", "1.5e+3", "1e39", "-1e39",
        "1e309", "1e400", "1e-40", "-1e-40", "1e-46", "4e-320", "1e-330",
        "9" * 30 + "e-10", "1\t2", "1/3", "abc", "1e", ".", "+", "1..2", "0x10", "1e+-3",
    ]
    return fixed + [_numeral(rng, fmt) for _ in range(14)]


def ratio_corpus(rng, fmt):
    fixed = [
        "1/3", "-3/7", "5", "0/9", "-0/1", "1/11", "+2/4", "1/0", "abc", "1/", "/3", "1/3/4",
        "1\t/3", "3 /7", "1/1" + "0" * 50, "1" + "0" * 400 + "/1", "1/1" + "0" * 330,
        "-1/1" + "0" * 39,
    ]
    rows = []
    for _ in range(22):
        sign = rng.choice(["", "-", "+"])
        p = rng.getrandbits(rng.randint(1, 64))
        q = rng.getrandbits(rng.randint(1, 64)) + 1
        rows.append(f"{sign}{p}/{q}")
    return fixed + rows


def _bits(rng, fmt):
    return "bits:" + format(rng.getrandbits(4 * BITS_WIDTH[fmt]), f"0{BITS_WIDTH[fmt]}x")


def print_corpus(rng, fmt):
    fixed = ["bits:" + b for b in SPECIAL_BITS[fmt]] + [
        "0.5", "-2", "1e3", "0", "0.1", "1e39", "1e-45", "bits:zz", "bits:123", "BITS:0",
        "1\t2", "abc",
    ]
    return fixed + [_bits(rng, fmt) for _ in range(21)]


def print_interval_corpus(rng, fmt):
    width = BITS_WIDTH[fmt]
    special = ["bits:" + b for b in SPECIAL_BITS[fmt]]
    fixed = [
        "1 2", "2 1", "1", "1 2 3", "0.1 1", "0 0", "-1 1", "-0.5 0.5", "1\t2",
        f"{special[5]} {special[4]}", f"{special[1]} {special[2]}", f"{special[6]} 1",
        f"{special[3]} {special[4]}", f"{special[0]} {special[3]}",
    ]
    rows = []
    for _ in range(26):
        # a float between 1e-18 and 1e19 in magnitude and its upward neighbour
        x = rng.choice([-1, 1]) * rng.uniform(1, 10) * 10.0 ** rng.randint(-18, 18)
        pattern = int.from_bytes(struct.pack(STRUCT_CODE[fmt], x), "big")
        rows.append(f"bits:{pattern:0{width}x} bits:{pattern + (-1 if x < 0 else 1):0{width}x}")
    return fixed + rows


def filter_cases():
    """(argv without --check, corpus text) for every filter case."""
    rng = random.Random(20070401)
    cases = []
    for fmt in FORMATS:
        for command, corpus in (
            ("parse", parse_corpus),
            ("parse-rational", ratio_corpus),
            ("print", print_corpus),
            ("print-interval", print_interval_corpus),
        ):
            lines = corpus(rng, fmt)
            cases.append(([command, "--format", fmt], "\n".join(lines) + "\n\n  \n"))
        cases.append((["print-interval", "--format", fmt, "--digits", "17"], cases[-1][1]))
    return cases


SINGLE_SHOT = [
    ["parse", "0.1"],
    ["parse", "--check", "--", "-1e39"],
    ["parse", "--format", "binary64", "--check", "4e-320"],
    ["parse", "1/3"],
    ["parse", ""],
    ["parse-rational", "3/7", "--check"],
    ["parse-rational", "1/0"],
    ["parse-rational", "--format", "binary64", "--", "-1/11"],
    ["print", "bits:7fc00000"],
    ["print", "0.1"],
    ["print", "bits:zz"],
    ["print", "--check", "bits:ff800000"],
    ["print", "--format", "binary64", "--check", "0.125"],
    ["print", "--format", "binary64", "--check", "bits:0000000000000001"],
    ["print-interval", "1"],
    ["print-interval", "bits:3eaaaaaa", "bits:3eaaaaab", "--digits", "8", "--check"],
    ["print-interval", "2", "1"],
    ["print-interval", "--check", "bits:ff800000", "bits:7f800000"],
    ["print-interval", "--format", "binary64", "--", "-0.5", "bits:0000000000000001"],
    ["print-interval", "0.1", "1"],
    ["table"],
    ["table", "--check"],
]


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


def write_transcript():
    filters = []
    for argv, stdin in filter_cases():
        result = run_cli(argv, stdin)
        if run_cli(argv + ["--check"], stdin) != result:
            raise SystemExit(f"--check changed the transcript of {argv}")
        filters.append({"argv": argv, "stdin": stdin, "result": result})
    singles = [{"argv": argv, "result": run_cli(argv)} for argv in SINGLE_SHOT]
    with TRANSCRIPT.open("w") as out:
        json.dump({"filter": filters, "single_shot": singles}, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    write_transcript()
