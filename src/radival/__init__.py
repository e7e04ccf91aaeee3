"""Correct decimal/binary conversion with narrowest enclosing intervals.

A decimal numeral rarely lands on a binary float, but it always lands
between two adjacent ones. This package parses numerals and rationals
into that narrowest enclosing interval (binary32 or binary64), prints
floats back as exact decimals, rounds interval bounds outward to a digit
budget, and renders intervals in a shared-prefix bracket notation. All
arithmetic is exact; an independent integer-ratio oracle cross-checks
every conversion in the tests and behind the --check flag of the CLI.

Each name below, and each module by its own name, loads its module on
first use (PEP 562), so importing the package, or running its command
line, loads only what is asked for.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "digitstring": ("FRACTION", "INTEGER", "DigitString", "div2", "double_integer", "mul2"),
    "floatkit": (
        "BINARY32",
        "BINARY64",
        "KIND_INFINITE",
        "KIND_NORMAL",
        "KIND_SUBNORMAL",
        "KIND_ZERO",
        "DomainError",
        "FloatFormat",
        "NotRepresentable",
        "NumeralSyntaxError",
    ),
    "parse": (
        "DECIMAL_ZERO",
        "DecimalScientific",
        "Rational",
        "decimal_to_interval",
        "parse_numeral",
        "rational_to_interval",
    ),
    "render": (
        "BracketRendering",
        "DecimalInfinity",
        "bracket_notation",
        "float_to_exact_decimal",
        "hex_significand_bracket",
        "hex_significand_rendering",
        "interval_to_decimal",
        "plain_decimal",
        "truncate_directed",
    ),
    "staged": ("binarize_exponent", "fraction_bits", "mantissa_bits", "normalize_mantissa"),
    "value": (
        "ZERO",
        "FloatInterval",
        "FloatValue",
        "as_py_float",
        "decompose",
        "from_bits",
        "infinity",
        "next_up",
        "to_bits",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

# every module of the package, each of which the hook also resolves by name
_MODULES = {*_EXPORTS, "cli", "cliextra", "oracle"}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    module = name if name in _MODULES else _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # the import binds a module here, and an exported name is bound below,
    # so later lookups of either find it without this hook
    value = import_module(f".{module}", __name__)
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value
