"""Inputs built to sit where a reader decides, rather than drawn at random.

Named inputs with a history: numerals that hung or misled other readers,
and the halfway points at the top of each format's finite range. Each is
read by `parse --check`, single-shot and as a filter line, and the
round-to-nearest float of its value must be a bound of the enclosure.
For binary64 that float is the host's own float(text); for binary32 it is
the oracle's nearest_float, since the host's text -> binary32 path
(float, then a float32 cast) rounds twice.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from test_cli import run_cli

from radival import oracle
from radival.floatkit import BINARY32
from radival.kernels import exact_field

HISTORICAL = {
    "binary64": [
        # these two hung PHP's and Java's readers in 2011
        "2.2250738585072011e-308",
        "2.2250738585072012e-308",
        # nearest to the smallest normal, and to the smallest subnormal
        "2.2250738585072014e-308",
        "4.9406564584124654e-324",
        # just under and just over half the smallest subnormal
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
        # 2^53 + 1, halfway between two integers of the top binade
        "9007199254740993",
        # the halfway point above max finite, and one under it
        str(2**1024 - 2**970),
        str(2**1024 - 2**970 - 1),
    ],
    "binary32": [
        # the halfway point above max finite
        str(2**128 - 2**103),
        # the smallest normal to 9 digits
        "1.17549435e-38",
        # read through binary64 first, this one lands one ulp high
        "7.038531e-26",
    ],
}
CASES = [(name, text) for name, texts in HISTORICAL.items() for text in texts]


@pytest.mark.parametrize("name, text", CASES, ids=[f"{n}-{t[:24]}" for n, t in CASES])
def test_historical_input(name, text):
    argv = ["parse", "--format", name, "--check"]
    status, out, err = run_cli([*argv, text])
    assert (status, err) == (0, "")
    lb, ub, bracket = (line.split(" = ")[-1] for line in out.splitlines())
    status, out, err = run_cli(argv, f"{text}\n")
    assert (status, err) == (0, "")
    _, _, lb_text, _, ub_text, bracket_text = out.rstrip("\n").split("\t")
    assert (lb_text, ub_text, bracket_text) == (lb, ub, bracket)
    if name == "binary64":
        assert Decimal(lb) <= Decimal(float(text)) <= Decimal(ub)
    else:
        assert exact_field(oracle.nearest_float(Fraction(text), BINARY32)) in (lb, ub)
