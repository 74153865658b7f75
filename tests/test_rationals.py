from fractions import Fraction

import pytest

from arborkit import INFINITE, Infinite, ceil_value, format_value, is_infinite, parse_fraction


def test_infinite_is_a_singleton():
    assert Infinite() is INFINITE


def test_infinite_ordering():
    assert INFINITE > 10**12
    assert INFINITE > Fraction(10**12, 7)
    assert INFINITE >= INFINITE
    assert INFINITE <= INFINITE
    assert not INFINITE < Fraction(5)
    assert not INFINITE > INFINITE
    # reflected comparisons against stdlib numbers
    assert 5 < INFINITE
    assert Fraction(7, 2) < INFINITE
    assert not 5 > INFINITE
    # each of the four operators, both ways round
    for x in (5, Fraction(7, 2)):
        assert INFINITE > x and x < INFINITE
        assert INFINITE >= x and x <= INFINITE
        assert not INFINITE < x and not x > INFINITE
        assert not INFINITE <= x and not x >= INFINITE
    assert not INFINITE < INFINITE
    assert INFINITE == INFINITE


def test_infinite_equality():
    assert INFINITE == Infinite()
    assert INFINITE != 3
    assert hash(INFINITE) == hash(Infinite())


def test_is_infinite():
    assert is_infinite(INFINITE)
    assert not is_infinite(Fraction(3, 2))
    assert not is_infinite(2)


def test_ceil_value():
    assert ceil_value(Fraction(6, 5)) == 2
    assert ceil_value(Fraction(2)) == 2
    assert ceil_value(Fraction(-3, 2)) == -1
    assert ceil_value(Fraction(-6, 3)) == -2
    assert ceil_value(Fraction(0)) == 0
    assert ceil_value(0) == 0
    assert ceil_value(7) == 7
    assert ceil_value(10**30) == 10**30
    assert is_infinite(ceil_value(INFINITE))


def test_format_value():
    assert format_value(Fraction(3, 2)) == "3/2"
    assert format_value(Fraction(8, 4)) == "2"
    assert format_value(Fraction(-3, 2)) == "-3/2"
    assert format_value(Fraction(-6, 3)) == "-2"
    assert format_value(Fraction(0)) == "0"
    assert format_value(7) == "7"
    assert format_value(10**30) == "1" + "0" * 30
    assert format_value(INFINITE) == "INFINITE"


def test_parse_fraction_roundtrip():
    assert parse_fraction("3/2") == Fraction(3, 2)
    assert parse_fraction("2") == Fraction(2)
    assert parse_fraction("10/4") == Fraction(5, 2)
    assert parse_fraction(" 6/5 ") == Fraction(6, 5)


@pytest.mark.parametrize("bad", ["", "3/0", "3/-1", "a/b", "1.5", "1/2/3"])
def test_parse_fraction_rejects(bad):
    if bad in ("3/0", "3/-1"):
        expected = f"denominator must be positive in {bad!r}"
    else:
        expected = f"not a rational literal: {bad!r}"
    with pytest.raises(ValueError) as err:
        parse_fraction(bad)
    assert str(err.value) == expected
