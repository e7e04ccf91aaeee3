"""Mutation checks: each mutant is one small edit to the package that a
named subset of the tests must catch.

Run from anywhere:  python tests/mutants.py [name ...]

For each mutant, one at a time, the script copies src/ to a temporary
directory, applies the mutant's (file, old, new) edit to the copy and runs
pytest on the mutant's tests with the copy first on PYTHONPATH. The mutant
is killed when a test fails or the edited package no longer imports. Each
test subset first runs once on an unedited copy, where it must pass. The
script prints killed or survived per mutant and exits 1 if any survived,
or 2 if a subset fails unedited or an edit's old text is not in its file
exactly once. Pytest does not collect this file.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # a module of src/radival
    old: str
    new: str
    tests: tuple[str, ...]


OUTWARD = (
    "tests/test_render.py::TestOutwardRounding",
    "tests/test_render.py::TestOutwardRoundingAgainstLibmpdec",
)
LIBMPDEC = ("tests/test_render.py::TestOutwardRoundingAgainstLibmpdec",)
PREFIX = (
    "tests/test_render.py::TestBracketNotation",
    "tests/test_render.py::test_shared_prefix_length_against_commonprefix",
)
CANONICAL = ("tests/test_floatkit.py::TestFormatCanonical",)
STEP_WALK = ("tests/test_small_formats.py::test_next_up_steps_every_pattern",)
ORACLE_HYGIENE = ("tests/test_hygiene.py::test_oracle_imports_no_converter_function",)
ORDER = ("tests/test_render.py::TestBracketNotation::test_order_against_exact_values",)
CONTAINMENT = ("tests/test_cli.py::TestPrintInterval::test_check_failure_on_containment",)
STAGED = (
    "tests/test_parse.py::TestBinarize",
    "tests/test_parse.py::TestNormalize",
    "tests/test_parse.py::TestBitStreams",
    "tests/test_acceptance.py::test_criterion_04_staged_binarization",
    "tests/test_acceptance.py::test_criterion_05_three_sevenths_bits",
)
# the oracle's one import line, after which a mutant adds a forbidden import
ORACLE_FLOATKIT_IMPORT = (
    "from .floatkit import KIND_INFINITE, KIND_NORMAL, KIND_SUBNORMAL, KIND_ZERO, FloatFormat\n"
)

MUTANTS = [
    # outward n-digit rounding and the bracket prefix
    Mutant(
        "no-one-digit-correction", "kernels.py",
        "    if q < _pow5(n - 1) << (n - 1):\n", "    if False:\n", OUTWARD,
    ),
    Mutant("no-carry", "kernels.py", "        if not digits:\n", "        if False:\n", OUTWARD),
    Mutant(
        "away-from-zero-ignores-sign", "kernels.py",
        '    if inexact and (direction == "up") == (sign > 0):\n',
        '    if inexact and direction == "up":\n',
        OUTWARD,
    ),
    Mutant(
        "step-outward-ignores-exactness", "kernels.py",
        '    if inexact and (direction == "up") == (sign > 0):\n',
        '    if (direction == "up") == (sign > 0):\n',
        ("tests/test_acceptance.py::test_criterion_08_outward_truncation",),
    ),
    Mutant(
        "floored-exponent-estimate", "kernels.py",
        "    exponent = math.ceil((m.bit_length() + e) * _LOG10_2)\n",
        "    exponent = math.floor((m.bit_length() + e) * _LOG10_2)\n",
        OUTWARD,
    ),
    Mutant(
        "shortened-prefix", "kernels.py",
        "else _shared_prefix_length(lo_text, hi_text)\n",
        "else max(_shared_prefix_length(lo_text, hi_text) - 1, 0)\n",
        PREFIX,
    ),
    Mutant(
        "carry-keeps-exponent", "kernels.py",
        '            return "1", exponent + 1\n', '            return "1", exponent\n', LIBMPDEC,
    ),
    Mutant(
        "prefix-bytes-off-by-one", "kernels.py",
        "    return w - (x.bit_length() + 7) // 8\n",
        "    return w - (x.bit_length() + 8) // 8\n",
        ("tests/test_render.py::test_shared_prefix_length_against_commonprefix",),
    ),
    Mutant(
        "prefix-window-never-widens", "kernels.py",
        "        w *= 4\n", "        break\n",
        ("tests/test_render.py::test_shared_prefix_length_against_commonprefix",),
    ),
    # the memo of powers of five under every kernel
    Mutant(
        "pow5-memo-off-by-one", "kernels.py",
        "        power = _POW5[k] = 5**k\n", "        power = _POW5[k] = 5 ** (k + 1)\n",
        ("tests/test_render.py::test_pow5_against_direct_powers",),
    ),
    Mutant(
        "pow5-memo-grows-a-list", "kernels.py",
        "_POW5: dict[int, int] = {}\n\n\ndef _pow5(k: int) -> int:\n",
        "_POW5: list[int] = []\n\n\ndef _pow5(k: int) -> int:\n"
        "    if k <= _POW5_CAP:\n"
        "        while len(_POW5) <= k:\n"
        "            _POW5.append(5 ** len(_POW5))\n"
        "        return _POW5[k]\n",
        ("tests/test_hygiene.py::test_pow5_memo_is_written_only_by_its_idempotent_store",),
    ),
    # kernel fields the checked constructors refuse, or a value canonical
    # in no format that only decompose refuses
    Mutant(
        "trailing-zero-outward", "kernels.py",
        '    return digits.rstrip("0"), exponent\n', "    return digits, exponent\n",
        ("tests/test_render.py::TestTruncateDirected::test_trailing_zeros_restrip",),
    ),
    Mutant(
        "trailing-zero-exact-decimal", "kernels.py",
        '    return text.rstrip("0"), (len(text) + e if e < 0 else len(text))\n',
        "    return text, (len(text) + e if e < 0 else len(text))\n",
        ("tests/test_render.py::test_carries_and_trailing_zeros_occur",),
    ),
    Mutant(
        "trailing-zero-parse-numeral", "kernels.py",
        '    return -1 if sign == "-" else 1, digits.rstrip("0"), exponent\n',
        '    return -1 if sign == "-" else 1, digits, exponent\n',
        ("tests/test_parse.py::TestParseNumeral::test_trailing_zeros_drop",),
    ),
    Mutant(
        "reversed-enclosure", "kernels.py",
        "    return (high, low) if sign < 0 else (low, high)\n",
        "    return (low, high) if sign < 0 else (high, low)\n",
        ("tests/test_parse.py::TestDecimalToInterval::test_tenth_binary32",),
    ),
    Mutant(
        "reversed-negation", "value.py",
        "        return FloatInterval(-self.ub, -self.lb)\n",
        "        return FloatInterval(-self.lb, -self.ub)\n",
        ("tests/test_floatkit.py::TestInterval::test_negation_swaps",),
    ),
    Mutant(
        "wrong-kind-on-grid", "floatkit.py",
        "KIND_NORMAL if m >> (p - 1) else KIND_SUBNORMAL", "KIND_NORMAL", CANONICAL,
    ),
    Mutant(
        "normal-pattern-without-leading-bit", "floatkit.py",
        "(field > 0) << t | trailing", "trailing", CANONICAL,
    ),
    # the grid packer, the step and the float order
    Mutant(
        "on-grid-no-carry", "floatkit.py", "    if m == 1 << p:\n", "    if False:\n", STEP_WALK,
    ),
    Mutant(
        "on-grid-no-renormalising-shift", "floatkit.py",
        "        m, e = m >> 1, e + 1\n", "",
        ("tests/test_oracle.py::test_binade_tops_against_the_converter",),
    ),
    Mutant(
        "borrow-at-least-exponent", "value.py",
        "    if m == 1 << (fmt.significand_bits - 1) and e > fmt.least_exponent:\n",
        "    if m == 1 << (fmt.significand_bits - 1):\n",
        STEP_WALK,
    ),
    Mutant(
        "float-value-without-significand-check", "value.py",
        "            if significand <= 0:\n"
        '                raise ValueError("finite nonzero value needs a positive significand")\n',
        "            pass\n",
        ("tests/test_values.py::test_float_value_checks_its_fields",),
    ),
    Mutant(
        "unreduced-hash", "value.py",
        "            m, e = m >> shift, e + shift\n", "",
        ("tests/test_floatkit.py::TestOrderingAndEquality",),
    ),
    Mutant(
        "second-grid-packer-in-render", "kernels.py",
        "def _hex(", "def _grid_fields(sign, m, e, fmt):\n    return None\n\n\ndef _hex(",
        ("tests/test_hygiene.py::test_one_definition_per_function_name",),
    ),
    # the text of enclosures
    Mutant(
        "cut-without-infinity-guard", "kernels.py",
        "    if lo_lead is None or lo_lead != hi_lead:\n", "    if lo_lead != hi_lead:\n",
        ("tests/test_render.py::TestEnclosureFields",),
    ),
    Mutant(
        "lead-without-exponent", "kernels.py",
        "    lead = sign, e, digits[:1]\n", "    lead = sign, digits[:1]\n",
        ("tests/test_render.py::TestBracketNotation::test_fallback_on_exponent_mismatch",),
    ),
    # the order test of decimal bounds
    Mutant(
        "order-ignores-sign", "render.py",
        "    return x > y if ra > 0 else x < y\n", "    return x > y\n", ORDER,
    ),
    Mutant(
        "zero-ranked-positive", "render.py",
        "else 0 if a.is_zero else a.sign\n    rb = 2 * b.sign if isinstance(b, DecimalInfinity) "
        "else 0 if b.is_zero else b.sign\n",
        "else 1 if a.is_zero else a.sign\n    rb = 2 * b.sign if isinstance(b, DecimalInfinity) "
        "else 1 if b.is_zero else b.sign\n",
        ORDER,
    ),
    # the oracle and --check
    Mutant(
        "decimal-float-order-ge", "oracle.py",
        "    return (x > y) - (x < y)\n", "    return (x >= y) - (x < y)\n",
        ("tests/test_oracle.py::test_decimal_float_comparison_against_fraction", *CONTAINMENT),
    ),
    # the oracle's reader of printed text and its own memo of powers of five
    Mutant(
        "oracle-memo-off-by-one", "oracle.py",
        "        power = _FIVES[k] = 5**k\n", "        power = _FIVES[k] = 5 ** (k + 1)\n",
        ("tests/test_oracle.py::test_decimal_ratio_on_both_sides_of_the_memo_cap",),
    ),
    Mutant(
        "positional-scale-without-zero-run", "oracle.py",
        "        f = len(zeros) + len(tail)\n", "        f = len(tail)\n",
        ("tests/test_oracle.py::test_positional_reader_edge_texts",),
    ),
    Mutant(
        "positional-shift-on-wrong-side", "oracle.py",
        "        if k >= 0:\n            x <<= k\n        else:\n            y <<= -k\n",
        "        if k >= 0:\n            y <<= k\n        else:\n            x <<= -k\n",
        ("tests/test_oracle.py::test_positional_reader_against_fraction_on_outward_texts",),
    ),
    Mutant(
        "lower-containment-unchecked", "cli.py",
        "            if order(fields[0], lb) not in (-1, 0):\n",
        "            if False:\n",
        CONTAINMENT,
    ),
    Mutant(
        "upper-containment-unchecked", "cli.py",
        "            if order(fields[1], ub) not in (0, 1):\n",
        "            if False:\n",
        CONTAINMENT,
    ),
    Mutant(
        "check-compares-lower-bound-only", "cli.py",
        "            if reference(sign, a, b, fmt) != (lower, upper):\n",
        "            if reference(sign, a, b, fmt)[0] != lower:\n",
        ("tests/test_cli.py::TestParse::test_check_compares_both_bounds",),
    ),
    Mutant(
        "exact-digits-last-digit-and-exponent", "kernels.py",
        '    return text.rstrip("0"), (len(text) + e if e < 0 else len(text))\n',
        '    return text.rstrip("0")[:-1] + "7", (len(text) + e if e < 0 else len(text)) - 2\n',
        ("tests/test_cli.py::TestPrint::test_check_reads_the_printed_text",),
    ),
    *(
        Mutant(
            f"oracle-imports-{label}", "oracle.py",
            ORACLE_FLOATKIT_IMPORT,
            f"{ORACLE_FLOATKIT_IMPORT}{statement}\n",
            ORACLE_HYGIENE,
        )
        for label, statement in (
            ("next-up", "from .value import next_up"),
            ("next-up-absolute", "from radival.value import next_up"),
            ("render", "from . import render"),
            ("parse-module", "import radival.parse"),
        )
    ),
    # the command line against the host's float and decimal
    Mutant(
        "print-interval-one-digit-more", "cli.py",
        "        fields = outward_fields(lb, ub, args.digits)\n",
        "        fields = outward_fields(lb, ub, args.digits + 1)\n",
        ("tests/test_host_witness.py",),
    ),
    # the command line's standard streams
    # the argument reader, and what a launch loads
    Mutant(
        "no-prefix-abbreviations", "cli.py",
        "    matches = [name for name in names if name.startswith(token)]\n",
        "    matches = [name for name in names if name == token]\n",
        ("tests/test_cli.py::TestArgumentHandling::test_unique_prefixes",),
    ),
    Mutant(
        "ambiguous-prefix-takes-first-match", "cli.py",
        "    if len(matches) == 1:\n", "    if matches:\n",
        ("tests/test_cli.py::TestArgumentHandling::test_ambiguous_prefix",),
    ),
    Mutant(
        "launch-loads-the-value-layer", "cli.py",
        "from types import SimpleNamespace\n",
        "from types import SimpleNamespace\n\nfrom . import render\n",
        ("tests/test_hygiene.py::test_launch_leaves_the_value_layer_unloaded",),
    ),
    Mutant(
        "launch-loads-the-help", "cli.py",
        "from types import SimpleNamespace\n",
        "from types import SimpleNamespace\n\nfrom . import cliextra\n",
        ("tests/test_hygiene.py::test_filter_launch_loads_only_the_record_path",),
    ),
    Mutant(
        "launch-loads-the-float-values", "floatkit.py",
        "max(field, 1) - fmt.emax - t\n",
        "max(field, 1) - fmt.emax - t\n\n\nfrom . import value\n",
        ("tests/test_hygiene.py::test_filter_launch_loads_only_the_record_path",),
    ),
    Mutant(
        "exit-without-freeze", "cli.py", "    gc.freeze()\n", "",
        ("tests/test_hygiene.py::test_launch_heap_is_frozen_at_exit",),
    ),
    Mutant(
        "read-without-flush", "cli.py", "        self._output.flush()\n", "",
        ("tests/test_cli_streams.py::test_filter_answers_each_line_before_the_next",),
    ),
    Mutant(
        "universal-newlines-on-stdin", "cli.py", 'newline="\\n")', "newline=None)",
        ("tests/test_cli_streams.py::test_filter_reads_stdin_as_run_reads_text[lone-cr]",),
    ),
    Mutant(
        "degenerate-parse-enclosure", "cli.py",
        "        lower, upper = _bounds(sign, m, e, rem, fmt)\n",
        "        lower, upper = _bounds(sign, m, e, 0, fmt)\n",
        ("tests/test_host_witness.py::test_parse_encloses_the_host_float",),
    ),
    # the grid packer's carry under the parse records' writer, and the digit cut
    Mutant(
        "shared-carry-stays-in-binade", "floatkit.py",
        "        m, e = m >> 1, e + 1\n", "        m, e = m >> 1, e\n",
        (
            "tests/test_render.py::TestFloorFields::test_carry_into_the_next_binade",
            "tests/test_cli.py::test_check_covers_the_carry",
        ),
    ),
    Mutant(
        "oracle-log2-floor-boundary", "oracle.py",
        "(a << -E < den)", "(a << -E <= den)",
        ("tests/test_oracle.py::TestNarrowestReference::test_exact_point",),
    ),
    Mutant(
        "oracle-carry-stays-in-binade", "oracle.py",
        "    if m >> p:\n", "    if False:\n",
        (
            "tests/test_oracle.py::test_binade_tops_against_the_converter",
            "tests/test_cli.py::test_check_covers_the_carry",
        ),
    ),
    # the numeral reader: one match of the grammar's pattern, whose group
    # ends place each refusal
    Mutant(
        "numeral-exponent-sign-dropped", "kernels.py",
        '    if exp_sign == "-":\n', "    if False:\n",
        ("tests/test_parse.py::TestParseNumeral::test_contract_on_a_seeded_draw",),
    ),
    Mutant(
        "numeral-stray-character-at-fraction-end", "kernels.py",
        'match.end(), "unexpected character"', 'match.end(3), "unexpected character"',
        ("tests/test_parse.py::TestParseNumeral::test_errors_carry_position",),
    ),
    Mutant(
        "numeral-missing-digit-at-match-end", "kernels.py",
        'match.end(3), "expected a digit"', 'match.end(), "expected a digit"',
        ("tests/test_parse.py::TestParseNumeral::test_errors_carry_position",),
    ),
    # the ratio reader takes its text as given: the command line strips it
    Mutant(
        "ratio-strips-blanks", "kernels.py",
        '    sign = -1 if text[:1] == "-" else 1\n',
        '    text = text.strip()\n    sign = -1 if text[:1] == "-" else 1\n',
        ("tests/test_parse.py::test_readers_take_the_text_as_given",),
    ),
    # the numeral's own digits as an exact bound's decimal
    Mutant(
        "numeral-digits-on-inexact-floor", "kernels.py",
        "    if lower != upper:\n        return enclosure_fields(lower, upper, fmt)\n",
        "    if False:\n        return enclosure_fields(lower, upper, fmt)\n",
        ("tests/test_render.py::TestFloorFields::test_matches_the_public_route",),
    ),
    Mutant(
        "numeral-digits-exponent-off-by-one", "kernels.py",
        "    text, lead = _positional(sign, digits, exponent)\n",
        "    text, lead = _positional(sign, digits, exponent + 1)\n",
        ("tests/test_render.py::TestFloorFields::test_matches_the_public_route",),
    ),
    Mutant(
        "decimal-cut-one-digit-early", "kernels.py",
        '        text = text[:keep] + "5"\n', '        text = text[:keep - 1] + "5"\n',
        ("tests/test_parse.py::TestDecimalCut::test_against_the_oracle",),
    ),
    # the bit decoder under the print and print-interval records, and the
    # order test of their bounds
    Mutant(
        "negative-zero-pattern-unfolded", "floatkit.py",
        "    if not field | trailing:\n        return _ZERO_FIELDS\n",
        "    if not field | trailing:\n        return KIND_ZERO, sign, 0, 0\n",
        ("tests/test_render.py::TestOutwardFields::test_matches_the_public_route",),
    ),
    Mutant(
        "subnormal-pattern-exponent-off-by-one", "floatkit.py",
        "max(field, 1) - fmt.emax - t", "max(field, 0) - fmt.emax - t", CANONICAL,
    ),
    # the binade of a ratio, and the doubling loop of a digit string
    *(
        Mutant(
            f"log2-floor-{label}", "kernels.py", old, old.replace(" < ", " <= "),
            ("tests/test_parse.py::TestScale::test_worked_examples",),
        )
        for label, old in (
            ("exact-power-drops-a-binade", "(p < q << E)"),
            ("exact-power-below-one-drops-a-binade", "(p << -E < q)"),
        )
    ),
    Mutant(
        "double-integer-drops-its-carry", "digitstring.py",
        "    return DigitString([carry, *out] if carry else out, INTEGER)\n",
        "    return DigitString(out, INTEGER)\n",
        ("tests/test_digitstring.py::TestDoubleInteger::test_carry_grows",),
    ),
    # the paper's staged route, off the record path
    Mutant(
        "binarize-halves-once-too-often", "staged.py",
        "    K = _log2_floor(N * 10**dec_exp, 10**n) + 1\n",
        "    K = _log2_floor(N * 10**dec_exp, 10**n) + 2\n",
        STAGED,
    ),
    Mutant(
        "binarize-doubles-to-one-digit-more", "staged.py",
        "10 ** (n - dec_exp - 1))", "10 ** (n - dec_exp))", STAGED,
    ),
    Mutant(
        "normalize-doubles-once-too-few", "staged.py",
        "    K = -1 - _log2_floor(N, 10**n)\n", "    K = -_log2_floor(N, 10**n)\n", STAGED,
    ),
    Mutant(
        "leading-bits-one-short", "staged.py",
        "    acc = (num << count) // den\n", "    acc = (num << (count - 1)) // den\n", STAGED,
    ),
    Mutant(
        "order-ranks-infinity-by-kind-alone", "floatkit.py",
        "        return (sign if kind == KIND_INFINITE else 0) < (\n",
        "        return (1 if kind == KIND_INFINITE else 0) < (\n",
        ("tests/test_floatkit.py::TestOrderingAndEquality::test_fields_order_against_fractions",),
    ),
]


def run_tests(src: pathlib.Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for the tests, importing radival from src."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    return subprocess.run(argv, cwd=ROOT, env=env, **quiet).returncode


def fresh_copy(workdir: pathlib.Path) -> pathlib.Path:
    """A copy of src/ under workdir, replacing any earlier one."""
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for m in chosen:
        count = (ROOT / "src" / "radival" / m.file).read_text().count(m.old)
        if count != 1:
            print(f"{m.name}: the edit's old text occurs {count} times in {m.file}")
            return 2
    survived = []
    with tempfile.TemporaryDirectory() as workdir:
        workdir = pathlib.Path(workdir)
        src = fresh_copy(workdir)
        for tests in dict.fromkeys(m.tests for m in chosen):
            if run_tests(src, tests) != 0:
                print(f"fails unedited: {' '.join(tests)}")
                return 2
        for m in chosen:
            src = fresh_copy(workdir)
            path = src / "radival" / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            # 1: a test failed; 2: collection stopped, as on an import error
            status = run_tests(src, m.tests)
            if status not in (0, 1, 2):
                print(f"{m.name}: pytest exited {status}")
                return 2
            print(f"{m.name}: {'survived' if status == 0 else 'killed'}", flush=True)
            if status == 0:
                survived.append(m.name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
