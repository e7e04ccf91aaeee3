"""Binary float formats and every rule a filter record runs, from its
text to its fields to its text.

A format is the triple (significand bits, minimum exponent, maximum
exponent); a datum is sign * m * 2^e with m and e plain Python integers,
carried as the fields (kind, sign, m, e) that a FloatValue is, and
ordered by _below. A record reads its text to fields (a numeral's sign,
digits and exponent, a ratio's sign, p and q, each by one match of its
grammar's pattern, _NUMERAL or _RATIO; a float's by _float_fields, from
bits:HEX through _bits_fields or from an on-grid literal), floors the
value onto the format's grid with one division, packs the two bounds as
fields, and writes each bound's text from them: its hex significand, its
exact decimal or its n-digit outward rounding, and the bracket of both,
with no value built. A parse record's five fields come from one pass of
enclosure_fields over the two bounds, which calls each text rule where it
lives: _hex for the hex layout, _exact_digits for a bound's exact digits
(one str() of m * 5^-e, split by _text_from_int only past CPython's
int/str digit limit), _positional for the positional layout and _cut for
the bracket, whose shared prefix is found in a window of leading bytes
that grows only while the bounds agree across it. Every power these steps
need is 5^k or 10^k = 5^k * 2^k, taken from one memo of powers of five
(_pow5) that fills as records ask, so a record raises no power an earlier
one has raised. All of it is exact integer arithmetic but the host float
_LOG10_2, which estimates a decimal exponent. The value classes (value),
the staged API (staged) and the public renderers (parse, render) build on
these rules, so each text rule has one home; this module imports none of
them at its top, so a filter launch loads it and cli alone.
"""

import math
import re

KIND_ZERO = "zero"
KIND_SUBNORMAL = "subnormal"
KIND_NORMAL = "normal"
KIND_INFINITE = "infinity"


class DomainError(ValueError):
    """Input outside an operation's domain (NaN patterns, zero denominators)."""


class NotRepresentable(DomainError):
    """An exact value the requested format cannot hold."""


class NumeralSyntaxError(ValueError):
    """Numeral text rejected, with the offending position."""

    def __init__(self, text: str, position: int, why: str):
        super().__init__(f"{why} at position {position} in {text!r}")
        self.text = text
        self.position = position


class FloatFormat:
    """Binary format parameters: p significand bits, exponents in [emin, emax].

    The integer constants are computed when the format is built and kept
    in slots, the fastest attribute read for the records. The two value
    constants, max_finite and smallest_subnormal, are FloatValues, which no
    record reads: both are built on the first read of either and then
    kept, so the same object answers every later read. Equality, hash,
    repr and pickling follow the three parameters."""

    _fields = ("significand_bits", "emin", "emax")
    __slots__ = _fields + (
        "least_exponent", "exponent_field_bits", "bit_width", "_params", "_extremes",
    )

    def __new__(cls, significand_bits: int, emin: int, emax: int) -> "FloatFormat":
        if significand_bits < 2:
            raise ValueError("need at least two significand bits")
        if emin >= 0 or emax <= 0:
            raise ValueError(f"unusable exponent range [{emin}, {emax}]")
        p = significand_bits
        least = emin - p + 1  # the scaled exponent shared by all subnormals
        field_bits = (emax + 1).bit_length()
        width = 1 + field_bits + p - 1  # sign + exponent field + trailing significand field
        self = super().__new__(cls)
        values = (p, emin, emax, least, field_bits, width, (p, emin, emax), None)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    # properties, not __getattr__: a class with __getattr__ loses the
    # interpreter's fast path for reading its slots
    @property
    def max_finite(self) -> "FloatValue":
        return (self._extremes or self._build_extremes())[0]

    @property
    def smallest_subnormal(self) -> "FloatValue":
        return (self._extremes or self._build_extremes())[1]

    def _build_extremes(self) -> "tuple[FloatValue, FloatValue]":
        from .value import FloatValue

        p, _, emax = self._params
        extremes = (
            FloatValue(KIND_NORMAL, 1, (1 << p) - 1, emax - p + 1),
            FloatValue(KIND_SUBNORMAL, 1, 1, self.least_exponent),
        )
        object.__setattr__(self, "_extremes", extremes)
        return extremes

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self._params == other._params

    def __hash__(self) -> int:
        return hash(self._params)

    def __repr__(self) -> str:
        return "FloatFormat(significand_bits=%r, emin=%r, emax=%r)" % self._params

    def __reduce__(self) -> tuple:
        return FloatFormat, self._params  # copy and pickle rebuild through __new__

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


def _below(a: tuple, b: tuple) -> bool:
    """Whether the float with the fields a = (kind, sign, m, e), a FloatValue
    or its bare tuple, lies below the one with the fields b."""
    (kind, sign, m, e), (other_kind, other_sign, n, f) = a, b
    if kind == KIND_INFINITE or other_kind == KIND_INFINITE:
        # an infinity ranks by its sign against 0 for any finite value
        return (sign if kind == KIND_INFINITE else 0) < (
            other_sign if other_kind == KIND_INFINITE else 0
        )
    # signed significands compared at the common exponent
    if e >= f:
        return sign * m << (e - f) < other_sign * n
    return sign * m < other_sign * n << (f - e)


BINARY32 = FloatFormat(24, -126, 127)
BINARY64 = FloatFormat(53, -1022, 1023)

_ZERO_FIELDS = (KIND_ZERO, 1, 0, 0)


def _bits_fields(pattern: int, fmt: FloatFormat) -> tuple[str, int, int, int]:
    """from_bits as the fields (kind, sign, m, e), with no value built."""
    t, top = fmt.significand_bits - 1, (1 << fmt.exponent_field_bits) - 1
    if not 0 <= pattern < 1 << fmt.bit_width:
        raise ValueError(f"pattern out of range for a {fmt.bit_width}-bit format")
    sign = -1 if pattern >> (fmt.bit_width - 1) else 1
    field, trailing = (pattern >> t) & top, pattern & ((1 << t) - 1)
    if field == top:
        if trailing:
            raise DomainError("NaN patterns have no value")
        return KIND_INFINITE, sign, 0, 0
    if not field | trailing:
        return _ZERO_FIELDS
    # the inverse of to_bits: a subnormal has field 0 and no leading bit
    kind = KIND_NORMAL if field else KIND_SUBNORMAL
    return kind, sign, (field > 0) << t | trailing, max(field, 1) - fmt.emax - t


# binary64's least exponent, the largest k for which a binary32 or binary64
# record raises 5^k; the full memo holds about 240 KB. A binary128 power
# (k up to 16,494, where the memo would grow to about 40 MB) is raised
# afresh each time instead.
_POW5_CAP = 1074
_POW5: dict[int, int] = {}


def _pow5(k: int) -> int:
    """5^k for k >= 0, memoized up to _POW5_CAP; 10^k is _pow5(k) << k.

    The memo is filled only by storing 5^k under k, which gives the same
    entry whichever thread stores it first."""
    try:
        return _POW5[k]
    except KeyError:
        if k > _POW5_CAP:
            return 5**k
        power = _POW5[k] = 5**k
        return power


def _int_from_digits(text: str) -> int:
    """Read a text of ASCII digits of any length as an integer, 0 if empty.

    A text past 4000 digits, or past the digit limit of CPython's int()
    (4300 by default, as low as 640), splits in half and recombines."""
    if len(text) <= 4000:
        try:
            return int(text or "0")
        except ValueError:
            pass
    half = len(text) // 2
    low = text[half:]
    return (_int_from_digits(text[:half]) * _pow5(len(low)) << len(low)) + _int_from_digits(low)


def _text_from_int(N: int, width: int = 0) -> str:
    """Decimal text of N >= 0, padded with leading zeros to width digits.

    CPython's str() refuses integers past its digit limit, which may be as
    low as 640 digits, so one past 2126 bits (2^2126 < 10^640) splits at a
    power of ten about halfway and renders each half."""
    if N.bit_length() <= 2126:
        return str(N).rjust(width, "0")
    low = N.bit_length() * 3 // 20
    high, rest = divmod(N, _pow5(low) << low)
    return _text_from_int(high, width - low) + _text_from_int(rest, low)


# The ratio grammar, [sign] digits [/ digits]. Its groups are the sign and
# the numerator and denominator digits, None with no slash.
_RATIO = re.compile(r"([+-]?)([0-9]*)(?:/([0-9]*))?")


def _ratio(text: str) -> tuple[int, int, int]:
    """Rational.from_text as the fields (sign, p, q), with no value built,
    read from the text as given by one match of _RATIO (the command line
    strips it beforehand). A refusal sits at a group's end, as in _numeral."""
    match = _RATIO.match(text)
    sign, num, den = match.groups()
    if not num:
        raise NumeralSyntaxError(text, match.end(2), "expected digits")
    if den == "":
        raise NumeralSyntaxError(text, match.end(3), "expected digits")
    if match.end() != len(text):
        raise NumeralSyntaxError(text, match.end(), "unexpected character")
    q = 1 if den is None else _int_from_digits(den)
    if q == 0:
        raise DomainError("zero denominator")
    return -1 if sign == "-" else 1, _int_from_digits(num), q


# The numeral grammar, [sign] digits [. digits] [e [sign] digits] with a
# digit on a side of the point. Its groups are the sign, the integer and
# fraction digits, and the exponent's sign and digits, None with no marker.
_NUMERAL = re.compile(r"([+-]?)([0-9]*)\.?([0-9]*)(?:[eE]([+-]?)([0-9]*))?")


def _numeral(text: str) -> tuple[int, str, int]:
    """parse_numeral as the fields (sign, mantissa digits, exponent), with
    no value built; zero is (1, "", 0). A refusal sits at a group's end:
    the fraction digits' when neither digit run holds a digit, the exponent
    digits' when a marker has none, the match's when it stops short of the
    text."""
    match = _NUMERAL.match(text)
    sign, int_digits, frac_digits, exp_sign, exp_digits = match.groups()
    if not int_digits and not frac_digits:
        raise NumeralSyntaxError(text, match.end(3), "expected a digit")
    if exp_digits == "":
        raise NumeralSyntaxError(text, match.end(5), "expected an exponent digit")
    if match.end() != len(text):
        raise NumeralSyntaxError(text, match.end(), "unexpected character")
    # the value is digits * 10^(marker_exp - len(frac_digits)), and the
    # leading zeros that drop carry none of it
    digits = (int_digits + frac_digits).lstrip("0")
    if not digits:
        return 1, "", 0
    marker_exp = 0 if exp_digits is None else _int_from_digits(exp_digits)
    if exp_sign == "-":
        marker_exp = -marker_exp
    exponent = marker_exp + len(digits) - len(frac_digits)
    # digits opens with a nonzero, so it is canonical once its trailing zeros go
    return -1 if sign == "-" else 1, digits.rstrip("0"), exponent


def _log2_floor(p: int, q: int) -> int:
    """floor(log2(p/q)) for positive p and q.

    The bit lengths put p/q in (2^(d-1), 2^(d+1)) for their difference d,
    so one comparison of p with q * 2^d settles which binade it is."""
    E = p.bit_length() - q.bit_length()
    if (p < q << E) if E >= 0 else (p << -E < q):
        E -= 1
    return E


def _floor(sign: int, num: int, den: int, fmt: FloatFormat) -> tuple[int, int, int, int]:
    """The grid floor (sign, m, e, rem) of sign * num/den: one division
    floors num/den onto the format's grid at its binade (the subnormal grid
    below the normal range) as m * 2^e, and a nonzero remainder puts the
    value strictly inside the next ulp. Magnitudes beyond the finite range
    clamp to the top value and those under the subnormal grid to zero, both
    with a remainder."""
    if num == 0:
        return sign, 0, 0, 0
    p = fmt.significand_bits
    E = _log2_floor(num, den)
    if E > fmt.emax:
        return sign, (1 << p) - 1, fmt.emax - p + 1, 1
    e = max(E - (p - 1), fmt.least_exponent)
    m, rem = divmod(num, den << e) if e >= 0 else divmod(num << -e, den)
    return sign, m, e, rem


def _bounds(sign: int, m: int, e: int, rem: int, fmt: FloatFormat) -> tuple[tuple, tuple]:
    """The fields (kind, sign, m, e) of the lower and upper bound of the
    narrowest enclosing interval of the value with this grid floor. A
    nonzero rem steps the floor one unit away from zero, the one home of
    that step: past the top of a binade it carries into the next, past
    the top finite value into an infinity."""
    p = fmt.significand_bits
    # a grid floor's m is below 2^p, so unlike the step it never carries
    low = (KIND_NORMAL if m >> (p - 1) else KIND_SUBNORMAL, sign, m, e) if m else _ZERO_FIELDS
    if not rem:
        return low, low
    m += 1
    if not m >> p:
        high = KIND_NORMAL if m >> (p - 1) else KIND_SUBNORMAL, sign, m, e
    elif e < fmt.emax - p + 1:
        high = KIND_NORMAL, sign, m >> 1, e + 1
    else:
        high = KIND_INFINITE, sign, 0, 0
    return (high, low) if sign < 0 else (low, high)


def _decimal_floor(sign: int, text: str, e: int, fmt: FloatFormat) -> tuple[int, int, int, int]:
    """The grid floor of sign * 0.text * 10^e, a numeral's fields, as
    decimal_to_interval says."""
    if e > 0 and 3 * (e - 1) >= fmt.emax + 1:
        return _floor(sign, 2 << fmt.emax, 1, fmt)
    if e < 0 and 3 * e <= fmt.least_exponent:
        return _floor(sign, 1, 2 << -fmt.least_exponent, fmt)
    keep = e - fmt.least_exponent
    if len(text) > keep:
        text = text[:keep] + "5"
    # |k| is at most the kept digits plus the format's decimal exponent range
    k = e - len(text)
    N = _int_from_digits(text)
    if k >= 0:
        return _floor(sign, N * _pow5(k) << k, 1, fmt)
    return _floor(sign, N, _pow5(-k) << -k, fmt)


# int(body, 16) alone would also take "0x" and "_"
_HEX_DIGITS = re.compile("[0-9a-fA-F]*")


def _float_fields(text: str, fmt: FloatFormat) -> tuple[str, int, int, int]:
    """The fields (kind, sign, m, e) of a float written as bits:HEX or as a
    literal exactly on the format grid, whose enclosure has equal bounds."""
    if text.startswith("bits:"):
        body = text[5:]
        width = fmt.bit_width // 4
        if len(body) != width or not _HEX_DIGITS.fullmatch(body):
            raise NumeralSyntaxError(text, 5, f"need exactly {width} hex digits")
        return _bits_fields(int(body, 16), fmt)
    lower, upper = _bounds(*_decimal_floor(*_numeral(text), fmt), fmt)
    if lower != upper:
        raise NotRepresentable(f"{text!r} does not land exactly on the format grid")
    return lower


# b * log10(2) stays more than 1e-6 away from every integer for
# 0 < |b| < 10^5, far beyond any format's binades, so the float product
# lands on the same side of each integer as the exact one
_LOG10_2 = math.log10(2)

_BRACKET = "%s[%s,%s]"

# the first window _shared_prefix_length compares
_PREFIX_WINDOW = 32


def _infinity_text(sign: int) -> str:
    return "inf" if sign > 0 else "-inf"


def _exact_digits(m: int, e: int) -> tuple[str, int]:
    """Canonical mantissa digits and decimal exponent of m * 2^e, m > 0: one
    conversion to text of m * 5^-e (m * 2^e is that over 10^-e when e < 0).
    str() converts it, and _text_from_int only past CPython's int/str digit
    limit, where str() raises."""
    N = m << e if e >= 0 else m * _pow5(-e)
    try:
        text = str(N)
    except ValueError:
        text = _text_from_int(N)
    # m > 0, so the text opens with a nonzero digit
    return text.rstrip("0"), (len(text) + e if e < 0 else len(text))


def _step_outward(
    sign: int, digits: str, inexact: int, exponent: int, direction: str
) -> tuple[str, int]:
    """Canonical digits and exponent of sign * 0.digits * 10^exponent, the
    digits the first n of a value (opening nonzero), rounded toward the named
    direction: when digits were dropped (inexact nonzero) and the direction
    points away from zero, trailing nines go and the digit before them rises,
    and n nines carry to 0.1 * 10^(exponent + 1)."""
    if inexact and (direction == "up") == (sign > 0):
        digits = digits.rstrip("9")
        if not digits:
            return "1", exponent + 1
        digits = digits[:-1] + chr(ord(digits[-1]) + 1)
    return digits.rstrip("0"), exponent


def _outward_digits(sign: int, m: int, e: int, n: int, direction: str) -> tuple[str, int]:
    """Canonical digits and decimal exponent of sign * m * 2^e, m > 0, whole
    when n is None, else rounded to n digits toward the named direction.

    With x = m * 2^e in [2^(b-1), 2^b), b = bitlen(m) + e, the decimal
    exponent E of x = 0.d1d2... * 10^E is ceil(b * log10 2) or one less,
    so one divmod of x * 10^(n-E) by the estimate yields n digits or, when
    the estimate was one too high, n - 1 of them and a remainder from
    which one more digit follows. A nonzero final remainder means digits
    were dropped, and only then does rounding away from zero add one.
    The exact expansion has at most E - min(e, 0) digits, so a larger
    budget gives that expansion itself."""
    if n is None:
        return _exact_digits(m, e)
    exponent = math.ceil((m.bit_length() + e) * _LOG10_2)
    # n > max(E, E - e), tested without calls on the per-bound path
    if n > exponent and n > exponent - e:
        return _exact_digits(m, e)
    num, den = (m << e, 1) if e >= 0 else (m, 1 << -e)
    shift = n - exponent
    if shift >= 0:
        num *= _pow5(shift) << shift
    else:
        den *= _pow5(-shift) << -shift
    q, r = divmod(num, den)
    if q < _pow5(n - 1) << (n - 1):
        exponent -= 1
        digit, r = divmod(10 * r, den)
        q = 10 * q + digit
    # 10^(n-1) <= q < 10^n, so the text opens with a nonzero digit
    return _step_outward(sign, _text_from_int(q), r, exponent, direction)


def outward_fields(low: tuple, high: tuple, n: int) -> tuple[str, str, str]:
    """What interval_to_decimal and bracket_notation give for the float
    interval from low to high, each bound the fields (kind, sign, m, e) of
    a format value: lo, hi and bracket, with no value built."""
    if n < 1:
        raise ValueError("need at least one digit")
    lo, lo_lead = _decimal_text(low, n, "down")
    hi, hi_lead = _decimal_text(high, n, "up")
    return lo, hi, _BRACKET % _cut(lo, hi, lo_lead, hi_lead)


def exact_field(bound: tuple) -> str:
    """plain_decimal of float_to_exact_decimal for a bound as outward_fields takes it."""
    return _decimal_text(bound, None, "")[0]


def _decimal_text(bound: tuple, n: int | None, direction: str) -> tuple:
    """Positional text and lead of a bound, rounded toward the named
    direction to n digits, or whole when n is None."""
    kind, sign, m, e = bound
    if kind == KIND_INFINITE:
        return _infinity_text(sign), None
    digits, exponent = _outward_digits(sign, m, e, n, direction) if m else ("", 0)
    return _positional(sign, digits, exponent)


def _positional(sign: int, digits: str, e: int) -> tuple[str, tuple[int, int, str]]:
    """Positional text of sign * 10^e * 0.digits, canonical digits, and its
    lead, what two finite bounds must share for a bracket prefix: sign,
    decimal exponent and opening digit. Zero's lead is (sign, 0, "")."""
    lead = sign, e, digits[:1]
    if not digits:
        return "0", lead
    sign = "" if sign > 0 else "-"
    if e <= 0:
        return f"{sign}0.{'0' * -e}{digits}", lead
    if e >= len(digits):
        return f"{sign}{digits}{'0' * (e - len(digits))}", lead
    return f"{sign}{digits[:e]}.{digits[e:]}", lead


def _cut(lo_text: str, hi_text: str, lo_lead: object, hi_lead: object) -> tuple[str, str, str]:
    """Prefix and tails of the bracket of two bounds' texts, the one choice
    between the prefix form and the plain pair. An infinite bound has the
    lead None and shares no prefix, even with the same infinity. Bounds
    with the same lead split at their common prefix, so equal texts go
    whole into the prefix, and any other pair keeps its texts whole as
    the tails."""
    if lo_lead is None or lo_lead != hi_lead:
        return "", lo_text, hi_text
    k = len(lo_text) if lo_text == hi_text else _shared_prefix_length(lo_text, hi_text)
    return lo_text[:k], lo_text[k:], hi_text[k:]


def _shared_prefix_length(a: str, b: str) -> int:
    """Length of the longest common prefix of two ASCII texts.

    Read as big-endian integers, the first w bytes of each differ first in
    the highest byte their XOR sets, so the bytes below it count what
    follows the prefix: one XOR at C speed, with no Python step per
    character. The window w starts at _PREFIX_WINDOW bytes, where two
    adjacent floats' texts have parted unless a run of zeros leads them,
    and grows fourfold while the texts agree across it.
    """
    n = len(a) if len(a) < len(b) else len(b)
    w = _PREFIX_WINDOW
    while w < n and a[:w] == b[:w]:
        w *= 4
    if w > n:
        w = n
    x = int.from_bytes(a[:w].encode(), "big") ^ int.from_bytes(b[:w].encode(), "big")
    return w - (x.bit_length() + 7) // 8


def _hex(sign: int, m: int, e: int, fmt: FloatFormat) -> str:
    """Hex significand text of the canonical pair sign * m * 2^e."""
    if m == 0:
        return "0"
    t = fmt.significand_bits - 1
    sign = "" if sign > 0 else "-"
    # the leading bit m >> t is 1 for a normal and 0 for a subnormal, whose
    # exponent e + t is emin
    return "%s2^(%d) * %d.%0*x" % (sign, e + t, m >> t, (t + 3) // 4, m & ((1 << t) - 1))


def enclosure_fields(lower: tuple, upper: tuple, fmt: FloatFormat) -> tuple[str, ...]:
    """The text of the enclosure from lower to upper, each bound the fields
    (kind, sign, m, e) of a format value as _bounds gives them: each
    bound's hex significand and exact decimal, as hex_significand_rendering
    and float_to_exact_decimal give them, then their bracket_notation, with
    no value built. One pass over both bounds calls each text rule where
    it lives, with no wrapper between; equal bounds are written once."""
    kind, sign, m, e = lower
    if kind == KIND_INFINITE:
        lb_hex = lo = _infinity_text(sign)
        lo_lead = None
    else:
        digits, exponent = _exact_digits(m, e) if m else ("", 0)
        lb_hex = _hex(sign, m, e, fmt)
        lo, lo_lead = _positional(sign, digits, exponent)
    if upper == lower:
        ub_hex, hi, hi_lead = lb_hex, lo, lo_lead
    else:
        kind, sign, m, e = upper
        if kind == KIND_INFINITE:
            ub_hex = hi = _infinity_text(sign)
            hi_lead = None
        else:
            digits, exponent = _exact_digits(m, e) if m else ("", 0)
            ub_hex = _hex(sign, m, e, fmt)
            hi, hi_lead = _positional(sign, digits, exponent)
    return lb_hex, lo, ub_hex, hi, _BRACKET % _cut(lo, hi, lo_lead, hi_lead)


def numeral_fields(numeral: tuple, lower: tuple, upper: tuple, fmt: FloatFormat) -> tuple[str, ...]:
    """enclosure_fields of the bounds of a numeral's fields (sign, digits,
    exponent). Equal bounds are the numeral's value, so the numeral's
    canonical digits are its one bound's exact decimal and none are made."""
    if lower != upper:
        return enclosure_fields(lower, upper, fmt)
    _, sign, m, e = lower
    bound_hex = _hex(sign, m, e, fmt)
    sign, digits, exponent = numeral
    text, lead = _positional(sign, digits, exponent)
    return bound_hex, text, bound_hex, text, _BRACKET % _cut(text, text, lead, lead)
