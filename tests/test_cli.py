"""End-to-end command line behaviour through cli.run with captured streams."""

import collections
import io
import os
import pathlib
import random
import struct
import subprocess
import sys
import time

import pytest

import radival
from builders import float_one
from radival import cli, floatkit, oracle, render
from radival.floatkit import BINARY32
from radival.parse import parse_numeral
from radival.value import ZERO, Value, infinity

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_TABLE = DATA / "reference_table.txt"

# parse filter records for subnormal, zero and infinite bounds, one per
# line behind the format name: numeral, lb hex, lb decimal, ub hex, ub
# decimal, bracket
EDGE_RECORDS = {
    fields[1]: (fields[0], fields[1:])
    for fields in (
        line.split("\t") for line in (DATA / "edge_records.txt").read_text().splitlines()
    )
}

# digit counts past CPython's default 4300-digit int/str conversion limit
LONG = 5000


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def run_program(argv):
    """Status, stdout and stderr of `python -m radival.cli` on empty stdin."""
    src = pathlib.Path(radival.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "radival.cli", *argv],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env,
    )
    return result.returncode, result.stdout, result.stderr


class TestParse:
    def test_tenth_binary32(self):
        status, out, err = run_cli(["parse", "0.1"])
        assert status == 0
        assert err == ""
        assert out == (
            "lb = 2^(-4) * 1.4ccccc = 0.0999999940395355224609375\n"
            "ub = 2^(-4) * 1.4ccccd = 0.100000001490116119384765625\n"
            "bracket = [0.0999999940395355224609375,"
            "0.100000001490116119384765625]\n"
        )

    def test_tenth_binary64(self):
        status, out, _ = run_cli(["parse", "0.1", "--format", "binary64"])
        assert status == 0
        assert out == (
            "lb = 2^(-4) * 1.9999999999999"
            " = 0.09999999999999999167332731531132594682276248931884765625\n"
            "ub = 2^(-4) * 1.999999999999a"
            " = 0.1000000000000000055511151231257827021181583404541015625\n"
            "bracket = [0.09999999999999999167332731531132594682276248931884765625,"
            "0.1000000000000000055511151231257827021181583404541015625]\n"
        )

    def test_exact_value_shows_empty_brackets(self):
        status, out, _ = run_cli(["parse", "0.5"])
        assert status == 0
        assert out.endswith("bracket = 0.5[,]\n")

    def test_check_passes(self):
        status, _, err = run_cli(["parse", "0.1", "--check"])
        assert status == 0
        assert err == ""

    def test_overflowing_numeral(self):
        status, out, _ = run_cli(["parse", "1e39"])
        assert status == 0
        lines = out.splitlines()
        assert lines[0].startswith("lb = 2^(127) * 1.7fffff = ")
        assert lines[1] == "ub = inf = inf"
        assert lines[2].startswith("bracket = [3402823")
        assert lines[2].endswith(",inf]")

    def test_syntax_error(self):
        status, out, err = run_cli(["parse", "1..2"])
        assert status == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_batch_mode(self):
        status, out, _ = run_cli(["parse"], stdin_text="0.5\n\nbogus\n")
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "\t".join(
            [
                "0.5",
                "2^(-1) * 1.000000",
                "0.5",
                "2^(-1) * 1.000000",
                "0.5",
                "0.5[,]",
            ]
        )
        parts = lines[1].split("\t")
        assert parts[0] == "bogus"
        assert parts[1] == "ERR"

    def test_numeral_past_int_text_limit(self):
        # --check exits 3 unless the interval is the oracle's
        numeral = "0." + "1234567890" * (LONG // 10)
        status, out, err = run_cli(["parse", "--format", "binary64", "--check", numeral])
        assert (status, err) == (0, "")
        assert out.startswith(
            "lb = 2^(-4) * 1.f9add3746f65f"
            " = 0.12345678901234567736988623209981597028672695159912109375\n"
        )

    def test_exponent_past_int_text_limit(self):
        status, out, err = run_cli(["parse", "1e" + "9" * LONG])
        assert (status, err) == (0, "")
        assert out == run_cli(["parse", "1e39"])[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["1e999999999"],
            ["--format", "binary64", "--", "-1e999999999"],
            ["--format", "binary64", "1e-99999999"],
        ],
    )
    def test_check_settles_extreme_exponents(self, argv):
        start = time.perf_counter()
        status, out, err = run_cli(["parse", "--check", *argv])
        assert time.perf_counter() - start < 1
        assert (status, err) == (0, "")
        assert out == run_cli(["parse", *argv])[1]

    def test_check_reads_a_million_digits_in_bounded_time(self):
        # the oracle reads every digit of the line. On a 2-vCPU VM a million
        # ones took 2.6-4.4 s read one 4000-digit chunk at a time, a cost
        # quadratic in the length, and 0.8-1.3 s read by halves
        line = "0." + "1" * 10**6 + "\n"
        start = time.perf_counter()
        status, out, err = run_cli(["parse", "--check", "--format", "binary64"], line)
        assert time.perf_counter() - start < 2
        assert (status, err) == (0, "")
        assert out == run_cli(["parse", "--format", "binary64"], line)[1]

    def test_check_failure_exit(self, monkeypatch):
        bogus = (tuple(ZERO), tuple(ZERO))
        monkeypatch.setattr(oracle, "decimal_reference", lambda *fields: bogus)
        status, _, err = run_cli(["parse", "0.5", "--check"])
        assert status == 3
        assert err.startswith("check failed: ")

    def test_check_failure_in_batch(self, monkeypatch):
        bogus = (tuple(ZERO), tuple(ZERO))
        monkeypatch.setattr(oracle, "decimal_reference", lambda *fields: bogus)
        status, out, _ = run_cli(["parse", "--check"], stdin_text="0.5\n")
        assert status == 3
        assert "\tERR\t" in out

    @pytest.mark.parametrize("differs", ["lower", "upper"])
    def test_check_compares_both_bounds(self, monkeypatch, differs):
        # a reference that differs from the enclosure [1, 1] in one bound
        # alone fails the check, single-shot and as a filter
        one = tuple(float_one(BINARY32))
        bogus = (tuple(ZERO), one) if differs == "lower" else (one, tuple(infinity(1)))
        monkeypatch.setattr(oracle, "decimal_reference", lambda *fields: bogus)
        status, out, err = run_cli(["parse", "1", "--check"])
        assert (status, out) == (3, "") and err.startswith("check failed: ")
        status, out, _ = run_cli(["parse", "--check"], stdin_text="1\n")
        record = "1\tERR\tinterval disagrees with the reference enclosure for '1'\n"
        assert (status, out) == (3, record)

    def test_check_failure_past_int_text_limit(self, monkeypatch):
        # the failure message must not print the exact value, whose str()
        # past 4300 digits raises and would turn exit 3 into exit 2
        bogus = (tuple(ZERO), tuple(ZERO))
        monkeypatch.setattr(oracle, "decimal_reference", lambda *fields: bogus)
        numeral = "0." + "1234567890" * (LONG // 10)
        status, out, err = run_cli(["parse", "--check", numeral])
        assert (status, out) == (3, "")
        assert err.startswith("check failed: ")
        status, out, _ = run_cli(["parse", "--check"], stdin_text=numeral + "\n")
        assert status == 3
        assert out.split("\t")[:2] == [numeral, "ERR"]

    def test_tab_in_input_echoes_as_space(self):
        status, out, _ = run_cli(["parse"], stdin_text="1\t2\n")
        assert status == 0
        fields = out.rstrip("\n").split("\t")
        assert fields[:2] == ["1 2", "ERR"]
        assert len(fields) == 3


@pytest.mark.parametrize(
    "argv, padded",
    [
        (["parse", "0.1"], ["parse", " 0.1"]),
        (["parse", "--check", "-2.5e-3"], ["parse", "--check", "\t-2.5e-3 "]),
        (["parse-rational", "1/3"], ["parse-rational", " 1/3\t"]),
        (["print", "bits:3f800000"], ["print", " bits:3f800000"]),
        (["print-interval", "0.25", "0.5"], ["print-interval", " 0.25", "0.5 "]),
        (["parse", "x"], ["parse", " x"]),
    ],
    ids=["numeral", "checked", "ratio", "bits", "pair", "syntax-error"],
)
def test_single_shot_value_is_stripped_as_a_line(argv, padded):
    # a value reads as the filter line holding it would: blanks around it go
    status, out, err = run_cli(argv)
    assert run_cli(padded) == (status, out, err)
    assert status in (0, 1) and (out == "") == (status == 1)


# records that convert texts or integers past 640 digits, CPython's least
# int/str digit limit: the exact decimals of subnormal bounds, a long
# numeral with and without --check, a long ratio, and outward rounding of
# the least subnormal to 700 digits
LONG_RECORDS = {
    "subnormal-bounds": (["parse", "--format", "binary64"], ["4e-320"]),
    "subnormal-bounds-checked": (["parse", "--format", "binary64", "--check"], ["4e-320"]),
    "least-subnormal": (["print", "--format", "binary64", "--check"], ["bits:0000000000000001"]),
    "long-numeral": (["parse", "--format", "binary64", "--check"], ["0." + "123456789" * 111]),
    "long-mantissa": (["parse", "--check"], ["1" * 1000 + "e-1000"]),
    "long-ratio": (["parse-rational", "--format", "binary64", "--check"], ["1/" + "7" * 1000]),
    "outward-700-digits": (
        ["print-interval", "--format", "binary64", "--digits", "700", "--check"],
        ["bits:0000000000000001", "bits:0000000000000003"],
    ),
}


@pytest.mark.parametrize("options, values", LONG_RECORDS.values(), ids=list(LONG_RECORDS))
def test_records_under_the_least_int_digit_limit(options, values):
    # the same output, single-shot and filtered, as at the default limit
    runs = [([*options, "--", *values], ""), (options, " ".join(values) + "\n")]
    expected = [run_cli(*run) for run in runs]
    assert [status for status, _, _ in expected] == [0, 0]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [run_cli(*run) for run in runs] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_check_without_the_int_digit_limit_query(monkeypatch):
    """CPython before 3.10.7 has no int/str digit limit and no
    sys.get_int_max_str_digits: the check reads a 5000-digit line as it
    does with the query, and the record is the same."""
    argv, line = ["parse", "--format", "binary64", "--check"], "0." + "3" * 5000 + "\n"
    expected = run_cli(argv, line)
    assert expected[0] == 0 and "ERR" not in expected[1]
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run_cli(argv, line) == expected


def seeded_lines(command: str, count: int) -> list[str]:
    """Numerals of 1 to 17 digits across and past the binary64 range, or
    ratios of terms up to 64 bits, of both signs, zero among them."""
    rng = random.Random(f"{command}:{count}")
    lines = ["0", "-0/3"] if command == "parse-rational" else ["0", "-0.0"]
    while len(lines) < count:
        sign = rng.choice(["", "-"])
        if command == "parse-rational":
            lines.append(f"{sign}{rng.getrandbits(rng.randrange(1, 65))}/{rng.getrandbits(64) | 1}")
        else:
            digits = str(rng.randrange(10 ** rng.randrange(1, 18)))
            lines.append(f"{sign}{digits}e{rng.randrange(-345, 330)}")
    return lines


def count_values(monkeypatch) -> collections.Counter:
    """Count the values built from now on through Value._of, the one fill
    at the end of every checked constructor: by class name, or under
    "oracle" for a value built while an oracle function runs."""
    counts = collections.Counter()
    fill = Value._of.__func__

    def counted(cls, *values):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__") != "radival.oracle":
            frame = frame.f_back
        counts["oracle" if frame else cls.__name__] += 1
        return fill(cls, *values)

    monkeypatch.setattr(Value, "_of", classmethod(counted))
    return counts


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["parse", "--format", "binary64"], ["0.1", "-2.5e-310", "3.14159", "-7e300"]),
        (["parse-rational"], ["1/3", "-2/7", "123456789/1000"]),
    ],
    ids=["parse", "parse-rational"],
)
def test_parse_record_builds_no_float_values(monkeypatch, argv, lines):
    """A parse record goes from the grid floor to its text on integer pairs:
    no value is built, and no bound is decomposed, for finite, zero,
    subnormal and infinite bounds alike."""
    from radival import value

    calls = []
    real = value.decompose

    def counted(*args):
        calls.append("decompose")
        return real(*args)

    # every module that binds the function by name calls the counter
    for module in (value, cli, render, radival.parse):
        if getattr(module, "decompose", None) is real:
            monkeypatch.setattr(module, "decompose", counted)
    built = count_values(monkeypatch)
    lines = lines + seeded_lines(argv[0], 200)
    status, out, _ = run_cli(argv, "\n".join(lines) + "\n")
    assert status == 0 and "ERR" not in out
    assert out.count("\n") == len(lines)
    assert (calls, built) == ([], {})


def seeded_pairs(fmt: str, count: int) -> list[tuple[str, str]]:
    """Ordered pairs of bits:HEX tokens of the format: random patterns, one
    in four with its successor, among them both zeros, both infinities and
    the subnormal/normal boundary."""
    rng = random.Random(f"{fmt}:{count}")
    width, code, t = (8, "<f", 23) if fmt == "binary32" else (16, "<d", 52)
    sign, inf = 1 << (4 * width - 1), {8: 0x7F800000, 16: 0x7FF0000000000000}[width]
    patterns = [0, sign, inf, sign | inf, (1 << t) - 1, 1 << t, sign | 1]
    while len(patterns) < count:
        pattern = rng.getrandbits(4 * width)
        if pattern & inf != inf:
            patterns.append(pattern)

    def value(pattern):
        return struct.unpack(code, pattern.to_bytes(width // 2, "little"))[0]

    pairs = []
    for k, a in enumerate(patterns):
        b = a + 1 if k % 4 == 0 and (a + 1) & inf != inf else patterns[k - 1]
        low, high = sorted([a, b], key=value)
        pairs.append((f"bits:{low:0{width}x}", f"bits:{high:0{width}x}"))
    return pairs


@pytest.mark.parametrize(
    "argv",
    [
        ["print", "--format", "binary32"],
        ["print", "--format", "binary64", "--check"],
        ["print-interval", "--format", "binary32", "--digits", "3"],
        ["print-interval", "--format", "binary64", "--digits", "17", "--check"],
        ["parse", "--format", "binary64"],
        ["parse-rational"],
        ["parse", "--format", "binary64", "--check"],
        ["parse-rational", "--check"],
    ],
    ids=[
        "print", "print-check", "print-interval", "print-interval-check", "parse",
        "parse-rational", "parse-check", "parse-rational-check",
    ],
)
def test_filter_records_build_no_values(monkeypatch, argv):
    """A filter record goes from its tokens to its text on integer pairs:
    over 200 seeded lines no value is built, by the converter or, under
    --check, by the oracle, which answers in bound fields."""
    counts = count_values(monkeypatch)
    command, fmt = argv[0], "binary64" if "binary64" in argv else "binary32"
    if command.startswith("parse"):
        lines = seeded_lines(command, 200)
    else:
        pairs = seeded_pairs(fmt, 200)
        lines = [low for low, _ in pairs] if command == "print" else [" ".join(p) for p in pairs]
    status, out, _ = run_cli(argv, "\n".join(lines) + "\n")
    assert (status, out.count("\n"), out.count("\tERR\t")) == (0, len(lines), 0)
    assert counts == {}


@pytest.mark.parametrize(
    "argv, value, ub_hex",
    [
        (["parse"], "1.99999999", "2^(1) * 1.000000"),
        (["parse-rational"], "2147483647/1073741824", "2^(1) * 1.000000"),
        (["parse"], "3.4028235e38", "inf"),
        (["parse-rational", "--format", "binary64"], "18446744073709551615/9223372036854775808",
         "2^(1) * 1.0000000000000"),
    ],
    ids=["numeral", "ratio", "past-max", "ratio-binary64"],
)
def test_check_covers_the_carry(argv, value, ub_hex):
    # the upper bound carries into the next binade or past max finite, and
    # --check compares the interval of the floor and carry that is printed
    for sign, bound in (("", "ub"), ("-", "lb")):
        status, out, err = run_cli([*argv, "--check", sign + value])
        assert (status, err) == (0, "")
        assert f"{bound} = {sign}{ub_hex} = " in out
        status, out, err = run_cli([*argv, "--check"], sign + value + "\n")
        assert (status, err) == (0, "") and "ERR" not in out


class TestParseRational:
    def test_three_sevenths_checked(self):
        status, out, err = run_cli(["parse-rational", "3/7", "--check"])
        assert status == 0
        assert err == ""
        assert out == (
            "lb = 2^(-2) * 1.5b6db6 = 0.428571403026580810546875\n"
            "ub = 2^(-2) * 1.5b6db7 = 0.4285714328289031982421875\n"
            "bracket = 0.4285714[03026580810546875,328289031982421875]\n"
        )

    def test_eleventh_is_exactly_enclosed(self):
        # the emitted interval is the true narrowest enclosure of 1/11
        status, out, _ = run_cli(["parse-rational", "1/11", "--check"])
        assert status == 0
        assert out.splitlines()[0] == (
            "lb = 2^(-4) * 1.3a2e8b = 0.090909086167812347412109375"
        )

    def test_ratio_past_int_text_limit(self):
        ratio = "7" * LONG + "/" + "3" * (LONG + 1)
        status, out, err = run_cli(["parse-rational", "--format", "binary64", "--check", ratio])
        assert (status, err) == (0, "")
        assert out.startswith(
            "lb = 2^(-3) * 1.ddddddddddddd"
            " = 0.2333333333333333092785011331216082908213138580322265625\n"
        )

    def test_zero_denominator(self):
        status, _, err = run_cli(["parse-rational", "1/0"])
        assert status == 2
        assert "denominator" in err

    def test_malformed_ratio(self):
        status, _, _ = run_cli(["parse-rational", "7/"])
        assert status == 1

    def test_batch_mode_keeps_going(self):
        status, out, _ = run_cli(["parse-rational"], stdin_text="1/2\n1/0\n")
        assert status == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[5] == "0.5[,]"
        assert lines[1].split("\t")[1] == "ERR"


class TestPrint:
    def test_bits_token(self):
        status, out, _ = run_cli(["print", "bits:3dcccccd"])
        assert status == 0
        assert out == "0.100000001490116119384765625\n"

    def test_exact_literal(self):
        status, out, _ = run_cli(["print", "0.5"])
        assert status == 0
        assert out == "0.5\n"

    def test_binary64_one(self):
        status, out, _ = run_cli(
            ["print", "bits:3ff0000000000000", "--format", "binary64"]
        )
        assert status == 0
        assert out == "1\n"

    def test_infinity_pattern(self):
        status, out, _ = run_cli(["print", "bits:7f800000"])
        assert status == 0
        assert out == "inf\n"

    def test_negative_zero_pattern(self):
        status, out, _ = run_cli(["print", "bits:80000000"])
        assert status == 0
        assert out == "0\n"

    def test_off_grid_literal(self):
        status, out, err = run_cli(["print", "0.1"])
        assert status == 2
        assert out == ""
        assert "does not land exactly on the format grid" in err

    def test_nan_pattern(self):
        status, _, err = run_cli(["print", "bits:7fc00000"])
        assert status == 2
        assert err.startswith("error: ")

    def test_wrong_hex_width(self):
        status, _, err = run_cli(["print", "bits:3dccccc"])
        assert status == 1
        assert "need exactly 8 hex digits" in err

    @pytest.mark.parametrize("token", ["bits:0x3f8000", "bits:3f80_000", "bits:3f80000g"])
    def test_non_hex_digits(self, token):
        status, _, err = run_cli(["print", token])
        assert status == 1
        assert err == f"error: need exactly 8 hex digits at position 5 in {token!r}\n"

    def test_check_round_trip(self):
        status, _, _ = run_cli(["print", "bits:00000001", "--check"])
        assert status == 0

    def test_check_reads_the_printed_text(self, monkeypatch):
        # a fault in the exact digits, last digit changed and exponent
        # shifted, prints a wrong numeral that --check reads back
        real = floatkit._exact_digits

        def faulty(m, e):
            digits, exponent = real(m, e)
            return digits[:-1] + "7", exponent - 2

        argv = ["print", "--check"]
        tokens = ["bits:3dcccccd", "bits:bf400000", "0.5", "bits:00000001"]
        for token in tokens:
            assert run_cli([*argv, token])[0] == 0
        monkeypatch.setattr(floatkit, "_exact_digits", faulty)
        for token in tokens:
            status, out, err = run_cli([*argv, token])
            assert (status, out) == (3, "")
            assert err == f"check failed: exact decimal differs from the value of {token!r}\n"
        status, out, err = run_cli(argv, stdin_text="".join(t + "\n" for t in tokens))
        assert (status, err) == (3, "")
        assert out == "".join(
            f"{t}\tERR\texact decimal differs from the value of {t!r}\n" for t in tokens
        )

    def test_batch_mode(self):
        status, out, _ = run_cli(["print"], stdin_text="bits:3f800000\n0.1\n")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "bits:3f800000\t1"
        assert lines[1].split("\t")[:2] == ["0.1", "ERR"]


class TestPrintInterval:
    def test_digit_budget(self):
        status, out, _ = run_cli(["print-interval", "0.25", "0.5", "--digits", "3"])
        assert status == 0
        assert out == "lo = 0.25\nhi = 0.5\nbracket = [0.25,0.5]\n"

    def test_outward_rounding(self):
        status, out, _ = run_cli(
            ["print-interval", "bits:3eaaaaaa", "bits:3eaaaaab", "--digits", "5"]
        )
        assert status == 0
        assert out == "lo = 0.33333\nhi = 0.33334\nbracket = 0.3333[3,4]\n"

    def test_check_containment(self):
        status, _, _ = run_cli(
            ["print-interval", "bits:3eaaaaaa", "bits:3eaaaaab", "--check"]
        )
        assert status == 0

    @pytest.mark.parametrize(
        "index, step, which", [(0, 1, "lower"), (1, -1, "upper")], ids=["lower", "upper"]
    )
    def test_check_failure_on_containment(self, monkeypatch, index, step, which):
        # one printed bound moved a unit of its last digit inward: the exact
        # bounds -0.5 and 0.75 pass the check as they are and fail it once moved
        real = cli.outward_fields

        def one_unit_inward(low, high, digits):
            fields = list(real(low, high, digits))
            d = parse_numeral(fields[index])
            text = d.mantissa.text
            moved = parse_numeral(f"{d.sign * int(text) + step}e{d.exponent - len(text)}")
            fields[index] = render.plain_decimal(moved)
            return tuple(fields)

        argv = ["print-interval", "--format", "binary64", "--digits", "17", "--check"]
        assert run_cli([*argv, "-0.5", "0.75"])[0] == 0
        monkeypatch.setattr(cli, "outward_fields", one_unit_inward)
        status, out, err = run_cli([*argv, "-0.5", "0.75"])
        assert (status, out) == (3, "")
        assert err == f"check failed: {which} bound fails containment\n"
        line = "bits:3fb999999999999a bits:3fb999999999999b"
        status, out, err = run_cli(argv, stdin_text=line + "\n")
        assert (status, err) == (3, "")
        assert out == f"{line}\tERR\t{which} bound fails containment\n"

    def test_infinite_upper_bound(self):
        status, out, _ = run_cli(
            ["print-interval", "bits:7f7fffff", "bits:7f800000", "--digits", "4"]
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "lo = 340200000000000000000000000000000000000"
        assert lines[1] == "hi = inf"
        assert lines[2].endswith(",inf]")

    @pytest.mark.parametrize(
        "fmt, low, high, digits",
        [
            ("binary32", "bits:00000001", "bits:00000002", "5000"),
            ("binary64", "bits:0000000000000001", "bits:0000000000000002", "5000"),
            ("binary64", "bits:3ff0000000000000", "bits:3ff0000000000001", "4301"),
            ("binary32", "bits:ff7fffff", "bits:7f800000", str(10**9)),
        ],
        ids=["binary32-subnormal", "binary64-subnormal", "binary64-one", "binary32-range"],
    )
    @pytest.mark.parametrize("check", [[], ["--check"]], ids=["plain", "check"])
    def test_budget_past_exact_length(self, fmt, low, high, digits, check):
        # a budget past each bound's digit count prints the bounds exactly
        argv = ["print-interval", "--format", fmt, "--digits", digits, *check]
        expected = []
        for token in (low, high):
            status, out, err = run_cli(["print", "--format", fmt, token])
            assert (status, err) == (0, "")
            expected.append(out.rstrip("\n"))
        status, out, err = run_cli([*argv, low, high])
        assert (status, err) == (0, "")
        assert out.splitlines()[:2] == [f"lo = {expected[0]}", f"hi = {expected[1]}"]
        status, out, err = run_cli(argv, stdin_text=f"{low} {high}\n")
        assert (status, err) == (0, "")
        assert out.split("\t")[1:3] == expected

    @pytest.mark.parametrize("digits", ["0", "-2"])
    def test_digit_budget_below_one(self, digits):
        status, out, err = run_cli(["print-interval", "0.25", "0.5", "--digits", digits])
        assert status == 1
        assert out == ""
        assert "need at least one digit" in err

    def test_disordered_bounds(self):
        status, _, err = run_cli(["print-interval", "0.5", "0.25"])
        assert status == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["binary32", "binary64"])
    @pytest.mark.parametrize("check", [[], ["--check"]], ids=["plain", "check"])
    def test_disordered_bounds_name_the_inputs(self, fmt, check):
        argv = ["print-interval", "--format", fmt, *check]
        status, out, err = run_cli([*argv, "2", "1"])
        assert (status, out) == (2, "")
        assert err == "error: bounds out of order: '2' > '1'\n"
        status, out, err = run_cli(argv, stdin_text="2 1\n0.5 -0.25\n")
        assert (status, err) == (0, "")
        assert out == (
            "2 1\tERR\tbounds out of order: '2' > '1'\n"
            "0.5 -0.25\tERR\tbounds out of order: '0.5' > '-0.25'\n"
        )

    def test_missing_second_value(self):
        status, _, err = run_cli(["print-interval", "0.25"])
        assert status == 1
        assert "expected two values" in err

    def test_batch_mode(self):
        status, out, _ = run_cli(
            ["print-interval", "--digits", "3"],
            stdin_text="0.25 0.5\nlonely\n",
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "0.25 0.5\t0.25\t0.5\t[0.25,0.5]"
        assert lines[1].split("\t")[1] == "ERR"

    def test_tab_between_values_echoes_as_space(self):
        status, out, _ = run_cli(
            ["print-interval", "--digits", "3"], stdin_text="0.25\t0.5\n"
        )
        assert status == 0
        assert out == "0.25 0.5\t0.25\t0.5\t[0.25,0.5]\n"


class TestEdgeBounds:
    """Subnormal, zero and infinite bounds, byte for byte."""

    @pytest.mark.parametrize(
        "numeral, lb_hex, ub_hex",
        [
            ("1e-40", "2^(-126) * 0.0116c2", "2^(-126) * 0.0116c3"),
            ("-1e-40", "-2^(-126) * 0.0116c3", "-2^(-126) * 0.0116c2"),
            ("1e-46", "0", "2^(-126) * 0.000001"),
            ("1e39", "2^(127) * 1.7fffff", "inf"),
            ("4e-320", "2^(-1022) * 0.0000000001fa0", "2^(-1022) * 0.0000000001fa1"),
        ],
    )
    def test_single_shot(self, numeral, lb_hex, ub_hex):
        fmt, (_, lb_field, lo, ub_field, hi, bracket) = EDGE_RECORDS[numeral]
        assert (lb_field, ub_field) == (lb_hex, ub_hex)
        status, out, err = run_cli(["parse", "--format", fmt, "--", numeral])
        assert (status, err) == (0, "")
        assert out == f"lb = {lb_hex} = {lo}\nub = {ub_hex} = {hi}\nbracket = {bracket}\n"

    @pytest.mark.parametrize("fmt", ["binary32", "binary64"])
    def test_filter_records(self, fmt):
        records = [fields for f, fields in EDGE_RECORDS.values() if f == fmt]
        stdin_text = "".join(fields[0] + "\n" for fields in records)
        status, out, _ = run_cli(["parse", "--format", fmt], stdin_text=stdin_text)
        assert status == 0
        assert out == "".join("\t".join(fields) + "\n" for fields in records)


class TestTable:
    def test_matches_reference_layout(self):
        status, out, err = run_cli(["table"])
        assert status == 0
        assert err == ""
        assert out == GOLDEN_TABLE.read_text()

    def test_check_passes(self):
        status, out, _ = run_cli(["table", "--check"])
        assert status == 0
        assert out == GOLDEN_TABLE.read_text()

    def test_check_failure_still_writes_the_table(self, monkeypatch):
        # every row is written before the disagreements are reported
        monkeypatch.setattr(oracle, "rational_reference", lambda *fields: (tuple(ZERO),) * 2)
        status, out, err = run_cli(["table", "--check"])
        assert (status, out) == (3, GOLDEN_TABLE.read_text())
        rows = ", ".join(f"1/{i}" for i in range(2, 12))
        assert err == f"check failed: computed intervals disagree for {rows}\n"

    def test_layout_shape(self):
        _, out, _ = run_cli(["table"])
        lines = out.splitlines()
        assert len(lines) == 14
        assert lines[3] == "-" * 56
        assert lines[4].startswith("1/2 ")
        assert lines[13].startswith("1/11")


class TestArgumentHandling:
    def test_help_exits_zero(self):
        status, _, _ = run_cli(["--help"])
        assert status == 0

    def test_subcommand_help(self):
        status, _, _ = run_cli(["parse", "--help"])
        assert status == 0

    def test_unknown_subcommand(self):
        status, _, _ = run_cli(["frobnicate"])
        assert status == 1

    def test_no_arguments(self):
        status, _, _ = run_cli([])
        assert status == 1

    def test_bad_format_name(self):
        status, _, _ = run_cli(["parse", "0.1", "--format", "binary128"])
        assert status == 1

    @pytest.mark.parametrize(
        "command, values, options",
        [
            ("parse", ["-1e39"], []),
            ("parse", ["-1e-40"], ["--check"]),
            ("parse-rational", ["-1/3"], []),
            ("parse-rational", ["-2/3"], ["--format", "binary64"]),
            ("print", ["-1e10"], ["--check"]),
            ("print", ["-5e-1"], ["--format", "binary64"]),
            ("print-interval", ["-1e10", "-1e9"], ["--check"]),
            ("print-interval", ["-1e22", "-1.5e0"], ["--format", "binary64", "--digits", "3"]),
        ],
    )
    def test_negative_values_need_no_separator(self, command, values, options):
        # a value with a minus sign is read as a value, not as an option,
        # and means what it means after "--"
        status, out, err = run_cli([command, *values, *options])
        assert (status, err) == (0, "")
        assert (status, out, err) == run_cli([command, *options, "--", *values])

    def test_negative_values_off_the_grid(self):
        status, out, err = run_cli(["print-interval", "-1e-40", "-1e-45", "--format", "binary32"])
        assert (status, out) == (2, "")
        assert err == "error: '-1e-40' does not land exactly on the format grid\n"

    def test_deterministic_output(self):
        first = run_cli(["table"])
        second = run_cli(["table"])
        assert first == second

    def test_equals_form(self):
        status, out, err = run_cli(["parse", "--format=binary64", "0.1"])
        assert (status, err) == (0, "")
        assert (status, out, err) == run_cli(["parse", "--format", "binary64", "0.1"])

    @pytest.mark.parametrize(
        "short, full",
        [
            (["parse", "--fo", "binary64", "0.1"], ["parse", "--format", "binary64", "0.1"]),
            (["parse", "0.1", "--ch"], ["parse", "0.1", "--check"]),
            (
                ["print-interval", "--dig", "3", "0.25", "0.5"],
                ["print-interval", "--digits", "3", "0.25", "0.5"],
            ),
            (
                ["print-interval", "--dig=17", "bits:3eaaaaaa", "bits:3eaaaaab", "--fo=binary32"],
                ["print-interval", "--digits", "17", "bits:3eaaaaaa", "bits:3eaaaaab"],
            ),
        ],
        ids=["format", "check", "digits", "digits-equals"],
    )
    def test_unique_prefixes(self, short, full):
        status, out, err = run_cli(short)
        assert (status, err) == (0, "")
        assert (status, out, err) == run_cli(full)

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "--bogus", "0.1"],
            ["parse", "0.1", "--formats", "binary64"],
            ["parse", "--check=1", "0.1"],
            ["print-interval", "--digit-budget", "3", "0.25", "0.5"],
            ["--x", "parse"],
            ["table", "--format", "binary64"],
            ["table", "--digits", "3"],
            ["parse", "0.1", "0.2"],
            ["parse-rational", "1/3", "1/4"],
            ["print", "1", "2"],
            ["print-interval", "1", "2", "3"],
            ["table", "x"],
            ["print-interval", "--digits", "x", "0.25", "0.5"],
            ["print-interval", "0.25", "0.5", "--digits"],
            ["parse", "--format"],
            ["parse", "--format="],
        ],
        ids=[
            "unknown", "longer-than-option", "flag-with-value", "unknown-digits", "before-command",
            "table-format", "table-digits", "extra-numeral", "extra-ratio", "extra-value",
            "extra-bound", "table-value", "digits-not-int", "digits-missing", "format-missing",
            "format-empty",
        ],
    )
    def test_argument_errors(self, argv):
        # each goes to stderr as a usage line and an error line; nothing runs
        status, out, err = run_cli(argv)
        assert (status, out) == (1, "")
        assert err.startswith("usage: radival")
        assert "error: " in err

    @pytest.mark.parametrize("command", [[], ["parse"]], ids=["top", "parse"])
    def test_help_refuses_a_value(self, command):
        # the program's help option is read by the rules of a subcommand's
        status, out, err = run_cli([*command, "--help=x"])
        assert (status, out) == (1, "")
        assert err.endswith("error: argument --help: ignored explicit argument 'x'\n")

    @pytest.mark.parametrize("command", [[], ["parse"]], ids=["top", "parse"])
    def test_unknown_option_is_named_without_its_value(self, command):
        status, out, err = run_cli([*command, "--bogus=x"])
        assert (status, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --bogus\n")

    def test_digits_error_names_the_value(self):
        _, _, err = run_cli(["print-interval", "--digits", "x", "0.25", "0.5"])
        assert "'x'" in err

    def test_bad_format_name_lists_the_choices(self):
        status, out, err = run_cli(["parse", "0.1", "--format", "binary128"])
        assert (status, out) == (1, "")
        assert err.startswith("usage: radival parse")
        assert "'binary128'" in err and "binary32" in err and "binary64" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "--format", "binary64", "--format", "binary32", "0.1"],
            ["print-interval", "--digits", "3", "--digits", "5", "bits:3eaaaaaa", "bits:3eaaaaab"],
        ],
        ids=["format", "digits"],
    )
    def test_last_repeated_option_wins(self, argv):
        last = argv[:1] + argv[3:]
        status, out, err = run_cli(argv)
        assert (status, err) == (0, "")
        assert (status, out, err) == run_cli(last)

    # every name each help lists: the subcommands at the top level, and a
    # subcommand's options, format choices and value names
    HELP_NAMES = {
        "": ["--help", "parse", "parse-rational", "print", "print-interval", "table"],
        "parse": ["--help", "--format", "binary32", "binary64", "--check", "numeral"],
        "parse-rational": ["--help", "--format", "binary32", "binary64", "--check", "ratio"],
        "print": ["--help", "--format", "binary32", "binary64", "--check", "value"],
        "print-interval": [
            "--help", "--digits", "--format", "binary32", "binary64", "--check", "low", "high",
        ],
        "table": ["--help", "--check"],
    }

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", HELP_NAMES, ids=lambda c: c or "top")
    def test_help_lists_every_name(self, command, flag):
        status, out, err = run_program([command, flag] if command else [flag])
        assert (status, err) == (0, "")
        assert out.startswith(f"usage: radival {command}".rstrip())
        assert [name for name in self.HELP_NAMES[command] if name not in out] == []
        assert "-h" in out

    @pytest.mark.parametrize("argv", [["parse-rational", "-/3"], ["parse-rational", "--", "-/3"]])
    def test_dash_token_reaches_the_value_reader(self, argv):
        # a token that is neither -h nor --... is a value, with or without --
        status, out, err = run_cli(argv)
        assert (status, out) == (1, "")
        assert err == "error: expected digits at position 1 in '-/3'\n"

    def test_values_around_options(self):
        status, out, err = run_cli(["print-interval", "0.25", "--digits", "3", "0.5"])
        assert (status, err) == (0, "")
        assert (status, out, err) == run_cli(["print-interval", "--digits", "3", "0.25", "0.5"])

    # two help texts in full: every option's help starts in column 24, and
    # a line it wraps onto starts there too
    HELP_TEXTS = {
        "print-interval": """\
usage: radival print-interval [-h] [--digits DIGITS] [--format {binary32,binary64}] [--check] [low] [high]

outward-rounded decimal interval of a float pair

positional arguments:
  low                   lower bound (literal or bits:HEX)
  high                  upper bound (literal or bits:HEX)

options:
  -h, --help            show this help message and exit
  --digits DIGITS       digit budget per bound (default 6)
  --format {binary32,binary64}
                        target format (default binary32)
  --check               revalidate results against the independent reference;
                        exit 3 on disagreement
""",
        "table": """\
usage: radival table [-h] [--check]

print the unit-fraction demonstration table

options:
  -h, --help            show this help message and exit
  --check               revalidate results against the independent reference;
                        exit 3 on disagreement
""",
    }

    @pytest.mark.parametrize("command", HELP_TEXTS)
    def test_help_text(self, command):
        assert run_cli([command, "--help"]) == (0, self.HELP_TEXTS[command], "")

    def test_help_goes_to_the_given_stdout(self):
        status, out, err = run_cli(["print-interval", "--help"])
        assert (status, err) == (0, "")
        assert out == run_program(["print-interval", "--help"])[1]

    def test_ambiguous_prefix(self):
        # no two options of one subcommand share a prefix, so the reader's
        # refusal is shown on names of its own
        names = ("--format", "--forward", "--for")
        assert cli._option_name("--for", names, "parse") == "--for"
        assert cli._option_name("--form", names, "parse") == "--format"
        with pytest.raises(cli._ArgumentError, match="ambiguous option: --fo could match"):
            cli._option_name("--fo", names, "parse")

    @pytest.mark.parametrize(
        "argv", [["parse", "0.1", "--help"], ["print-interval", "1", "--he"], ["--he"]]
    )
    def test_help_anywhere_runs_nothing(self, argv):
        status, out, err = run_program(argv)
        assert (status, err) == (0, "")
        assert out.startswith("usage: radival")
        assert "lb = " not in out and "lo = " not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "0.1"],
        ["parse-rational", "3/7"],
        ["print", "bits:3f800000"],
        ["print-interval", "0.25", "0.5"],
        ["table"],
    ],
)
def test_clean_stderr_on_success(argv):
    status, _, err = run_cli(argv)
    assert status == 0
    assert err == ""


def test_closed_pipe_exits_quietly(tmp_path):
    """A reader that stops early, as with `| head -1`, gets no traceback."""
    feed = tmp_path / "numerals.txt"
    feed.write_text("".join(f"{i}\n" for i in range(1, 200001)))
    src = pathlib.Path(radival.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    with feed.open() as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "radival.cli", "parse", "--format", "binary64"],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
    assert first.startswith(b"1\t2^(0) * 1.0000000000000\t1\t")
    assert err == b""
    assert proc.returncode == 1
