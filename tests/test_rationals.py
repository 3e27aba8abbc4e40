from fractions import Fraction

import pytest
from hypothesis import given

from conftest import rationals
from imbalance import (
    RationalParseError,
    ensure_rational,
    format_rational,
    parse_rational,
)


def test_make_reduces():
    r = ensure_rational("4/6")
    assert r == Fraction(2, 3)
    assert r.numerator == 2 and r.denominator == 3


def test_make_normalizes_sign():
    r = ensure_rational("-3/9")
    assert r == Fraction(-1, 3)
    assert r.denominator == 3 and r.numerator == -1


def test_make_zero():
    r = ensure_rational("0/5")
    assert r.numerator == 0 and r.denominator == 1


def test_make_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        ensure_rational("1/0")


def test_parse_examples():
    assert parse_rational("-5/4") == Fraction(-5, 4)
    assert parse_rational("10") == Fraction(10)
    assert parse_rational("4/6") == Fraction(2, 3)


def test_format_examples():
    assert format_rational(Fraction(-5, 4)) == "-5/4"
    assert format_rational(Fraction(10)) == "10"
    assert format_rational(Fraction(0)) == "0"


@pytest.mark.parametrize(
    "text, position",
    [("", 0), ("-", 1), ("abc", 0), ("1/", 2), ("1/2/3", 3), ("2.5", 1), (" 3", 0), ("1/-2", 2),
     # ASCII digits only: an Arabic-Indic digit and a plus sign are rejected
     ("\u0661", 0), ("1/\u0662", 2), ("+1", 0)],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(RationalParseError) as exc:
        parse_rational(text)
    assert exc.value.position == position


def test_parse_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_ensure_rejects_floats():
    with pytest.raises(TypeError):
        ensure_rational(0.5)
    with pytest.raises(TypeError):
        ensure_rational(True)


@given(rationals)
def test_parse_format_round_trip(a):
    assert parse_rational(format_rational(a)) == a


@given(rationals)
def test_normalization_idempotent(a):
    assert ensure_rational(a) is a
    again = ensure_rational(format_rational(a))
    assert again.numerator == a.numerator and again.denominator == a.denominator
