"""Exact values: "p/q" formatting and the INFINITE sentinel.

Every quantity the toolkit reports is either an int, a fractions.Fraction,
or INFINITE. Floats never appear in results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering


@total_ordering
class Infinite:
    """Sentinel strictly above every finite value.

    Kept as a distinct singleton rather than a large integer so that reports
    can compare against it without inventing magnitudes.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinite)

    def __hash__(self) -> int:
        return hash("arborkit.INFINITE")

    def __lt__(self, other) -> bool:
        return False


INFINITE = Infinite()


def is_infinite(value) -> bool:
    return isinstance(value, Infinite)


def ceil_value(value):
    """Ceiling of a Fraction or int; INFINITE passes through."""
    if is_infinite(value):
        return INFINITE
    return math.ceil(value)


def format_value(value) -> str:
    """Render as "p/q", a bare integer string, or "INFINITE"."""
    if is_infinite(value):
        return "INFINITE"
    return str(Fraction(value))


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact Fraction."""
    num, slash, den = text.strip().partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"not a rational literal: {text!r}") from None
    if den <= 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(num, den)
