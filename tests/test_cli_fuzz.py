"""Differential fuzz over cli.run: a filter record and a single-shot run of
the same text agree.

For a stripped, tab-free line, when the filter writes `line ERR <msg>` the
single-shot run exits 1, 2 or 3 with empty stdout and `error: <msg>` on
stderr, or `check failed: <msg>` with exit 3. Otherwise it exits 0 and
prints the same fields in its labelled layout. A single-shot value padded
with blanks reads as the value itself, as the line holding it would.
Exponents run to 10^9, so --check must settle them without building the
power of ten.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import run_cli

INTERVAL_LAYOUT = "lb = {0} = {1}\nub = {2} = {3}\nbracket = {4}\n"
LAYOUT = {
    "parse": INTERVAL_LAYOUT,
    "parse-rational": INTERVAL_LAYOUT,
    "print": "{0}\n",
    "print-interval": "lo = {0}\nhi = {1}\nbracket = {2}\n",
}

signs = st.sampled_from(["", "+", "-"])
digit_runs = st.text("0123456789", max_size=25)
extremes = st.sampled_from([-(10**9), 10**9])
exponents = st.integers(-400, 400) | st.integers(-(10**9), 10**9) | extremes
numerals = st.builds(
    lambda sign, whole, point, frac, marker, e: (
        f"{sign}{whole}{point}{frac}" + (f"{marker}{e:+d}" if marker else "")
    ),
    signs,
    digit_runs,
    st.sampled_from(["", "."]),
    digit_runs,
    st.sampled_from(["", "e", "E"]),
    exponents,
)
# dyadic literals land on the format grid, so print accepts them
dyadics = st.builds(
    lambda m, k: f"{m * 5**k}e-{k}" if k > 0 else str(m),
    st.integers(-(2**30), 2**30),
    st.integers(0, 40),
)
ratios = st.builds(
    lambda sign, p, q: f"{sign}{p}/{q}",
    signs,
    st.integers(0, 2**80),
    st.integers(0, 2**80),
)
bit_tokens = st.builds(
    lambda width, pattern: f"bits:{pattern & (16**width - 1):0{width}x}",
    st.sampled_from([8, 16, 7]),
    st.integers(0, 2**64 - 1),
)
junk = st.text("0123456789.eE+-/:xabits٣é", min_size=1, max_size=14)
tokens = numerals | dyadics | ratios | bit_tokens | junk
formats = st.sampled_from(["binary32", "binary64"])
blanks = st.text(" \t", max_size=2)
pads = st.tuples(blanks, blanks)


def assert_modes_agree(command, options, values, pad):
    line = " ".join(values)
    argv = [command, *options]
    status, out, err = run_cli(argv, line + "\n")
    fields = out[:-1].split("\t")
    assert (err, out[-1:], fields[0]) == ("", "\n", line)
    single = run_cli([*argv, "--", *values])
    left, right = pad
    assert run_cli([*argv, "--", *(left + value + right for value in values)]) == single
    if fields[1] == "ERR":
        assert len(fields) == 3
        if single[0] == 3:
            assert single[1:] == ("", f"check failed: {fields[2]}\n")
            assert status == 3
        else:
            assert single[0] in (1, 2)
            assert single[1:] == ("", f"error: {fields[2]}\n")
            assert status == 0
    else:
        layout = LAYOUT[command]
        assert len(fields) - 1 == layout.count("{")
        assert single == (0, layout.format(*fields[1:]), "")
        assert status == 0


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["parse", "parse-rational"]),
    numerals | ratios | junk,
    formats,
    st.booleans(),
    pads,
)
def test_parse_modes_agree(command, text, fmt, check, pad):
    text = text.strip()
    if text:
        assert_modes_agree(command, ["--format", fmt] + ["--check"] * check, [text], pad)


@settings(max_examples=150, deadline=None)
@given(dyadics | bit_tokens | numerals | junk, formats, st.booleans(), pads)
def test_print_modes_agree(text, fmt, check, pad):
    text = text.strip()
    if text:
        assert_modes_agree("print", ["--format", fmt] + ["--check"] * check, [text], pad)


@settings(max_examples=150, deadline=None)
@given(
    tokens.filter(bool),
    tokens.filter(bool),
    formats,
    st.booleans(),
    st.sampled_from([1, 6, 17]),
    pads,
)
def test_print_interval_modes_agree(low, high, fmt, check, digits, pad):
    options = ["--format", fmt, "--digits", str(digits)] + ["--check"] * check
    assert_modes_agree("print-interval", options, [low, high], pad)

