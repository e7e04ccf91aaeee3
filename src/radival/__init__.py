"""Correct decimal/binary conversion with narrowest enclosing intervals.

A decimal numeral rarely lands on a binary float, but it always lands
between two adjacent ones. This package parses numerals and rationals
into that narrowest enclosing interval (binary32 or binary64), prints
floats back as exact decimals, rounds interval bounds outward to a digit
budget, and renders intervals in a shared-prefix bracket notation. All
arithmetic is exact; an independent integer-ratio oracle cross-checks
every conversion in the tests and behind the --check flag of the CLI.
"""

from .digitstring import (
    FRACTION,
    INTEGER,
    DigitString,
    div2,
    double_integer,
    mul2,
)
from .floatkit import (
    BINARY32,
    BINARY64,
    KIND_INFINITE,
    KIND_NORMAL,
    KIND_SUBNORMAL,
    KIND_ZERO,
    ZERO,
    DomainError,
    FloatFormat,
    FloatInterval,
    FloatValue,
    NotRepresentable,
    as_py_float,
    decompose,
    from_bits,
    infinity,
    next_up,
    to_bits,
)
from .parse import (
    DECIMAL_ZERO,
    DecimalScientific,
    NumeralSyntaxError,
    Rational,
    binarize_exponent,
    decimal_to_interval,
    mantissa_bits,
    normalize_mantissa,
    parse_numeral,
    rational_to_interval,
)
from .render import (
    BracketRendering,
    DecimalInfinity,
    bracket_notation,
    float_to_exact_decimal,
    hex_significand_bracket,
    hex_significand_rendering,
    interval_to_decimal,
    plain_decimal,
    truncate_directed,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY32",
    "BINARY64",
    "BracketRendering",
    "DECIMAL_ZERO",
    "DecimalInfinity",
    "DecimalScientific",
    "DigitString",
    "DomainError",
    "FRACTION",
    "FloatFormat",
    "FloatInterval",
    "FloatValue",
    "INTEGER",
    "KIND_INFINITE",
    "KIND_NORMAL",
    "KIND_SUBNORMAL",
    "KIND_ZERO",
    "NotRepresentable",
    "NumeralSyntaxError",
    "Rational",
    "ZERO",
    "as_py_float",
    "binarize_exponent",
    "bracket_notation",
    "decimal_to_interval",
    "decompose",
    "div2",
    "double_integer",
    "float_to_exact_decimal",
    "from_bits",
    "hex_significand_bracket",
    "hex_significand_rendering",
    "infinity",
    "interval_to_decimal",
    "mantissa_bits",
    "mul2",
    "next_up",
    "normalize_mantissa",
    "parse_numeral",
    "plain_decimal",
    "rational_to_interval",
    "to_bits",
    "truncate_directed",
]
