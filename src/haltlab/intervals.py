"""Closed rational intervals used as certificates for series values.

An Interval is a pair of Fractions lo <= hi asserting that the true value lies
inside. The analyses build the endpoints from exact Fractions, so nothing
is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from haltlab.errors import digit_limit_error


def as_fraction(value: Rational | int | str) -> Fraction:
    """Coerce ints, Fractions, and "num/den" strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_fraction(value: Fraction) -> str:
    """Render as "num/den" (always with a denominator, also for integers)."""
    f = Fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:
        raise digit_limit_error() from exc


@dataclass(frozen=True)
class Interval:
    """Certified enclosure [lo, hi] of an exact rational quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def exact(cls, value: Rational | int | str) -> "Interval":
        v = as_fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo
