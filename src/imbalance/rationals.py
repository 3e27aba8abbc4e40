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

import re
from fractions import Fraction

# ASCII digits only: ``\d`` would also match digits that ``int`` reads in
# other scripts.
_RATIONAL = re.compile(r"(?P<sign>-?)(?P<num>[0-9]*)(?:/(?P<den>[0-9]*))?")


class RationalParseError(ValueError):
    """Malformed rational literal; records the offending position."""

    def __init__(self, text: str, position: int, reason: str):
        super().__init__(f"invalid rational {text!r}: {reason} at position {position}")
        self.text = text
        self.position = position


def parse_rational(text: str) -> Fraction:
    """Parse ``[-]digits`` or ``[-]digits/digits`` into a Fraction.

    One anchored match reads the longest prefix of that shape; each error
    position is the end of one of its groups or of the whole match.
    """
    if not isinstance(text, str):
        raise RationalParseError(repr(text), 0, "not a string")
    match = _RATIONAL.match(text)
    sign, num, den = match.group("sign", "num", "den")  # den is None without a '/'
    if not num:
        raise RationalParseError(text, match.end("num"), "expected digits")
    if den == "":
        raise RationalParseError(text, match.end(), "expected digits after '/'")
    if match.end() != len(text):
        reason = "expected '/' or end of input" if den is None else "trailing characters"
        raise RationalParseError(text, match.end(), reason)
    if den is None:
        return Fraction(int(sign + num))
    if int(den) == 0:
        raise ValueError("zero denominator")
    return Fraction(int(sign + num), int(den))


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
