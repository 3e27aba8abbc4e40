"""Exact rational scalars: coercion, parsing, formatting.

Every quantity in this package (bids, payments, rule values, certificate
multipliers) is an arbitrary-precision rational backed by the standard
library's :class:`fractions.Fraction`: immutable, always in lowest terms
with a positive denominator, exact field arithmetic.  No floating point
is used anywhere.

The external text encoding is ``"p/q"`` with the denominator omitted when
it equals 1, e.g. ``"-5/4"``, ``"10"``.  It is used in all JSON files and
CLI output.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

_DIGITS = "0123456789"


class RationalParseError(ValueError):
    """Malformed rational literal; records the offending position."""

    def __init__(self, text: str, position: int, reason: str):
        super().__init__(f"invalid rational {text!r}: {reason} at position {position}")
        self.text = text
        self.position = position


def parse_rational(text: str) -> Fraction:
    """Parse ``[-]digits`` or ``[-]digits/digits`` into a Fraction."""
    if not isinstance(text, str):
        raise RationalParseError(repr(text), 0, "not a string")
    pos = 0
    if pos < len(text) and text[pos] == "-":
        pos += 1
    num_start = pos
    while pos < len(text) and text[pos] in _DIGITS:
        pos += 1
    if pos == num_start:
        raise RationalParseError(text, pos, "expected digits")
    numerator = int(text[:pos])
    if pos == len(text):
        return Fraction(numerator)
    if text[pos] != "/":
        raise RationalParseError(text, pos, "expected '/' or end of input")
    pos += 1
    den_start = pos
    while pos < len(text) and text[pos] in _DIGITS:
        pos += 1
    if pos == den_start:
        raise RationalParseError(text, pos, "expected digits after '/'")
    if pos != len(text):
        raise RationalParseError(text, pos, "trailing characters")
    denominator = int(text[den_start:pos])
    if denominator == 0:
        raise ValueError("zero denominator")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Render as ``p/q``, omitting the denominator when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def ensure_rational(value) -> Fraction:
    """Coerce an int, ``p/q`` string, or Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"exact rational expected, got {type(value).__name__}")
    return Fraction(value)
