"""Closed rational intervals used as certificates for series values.

An Interval is a pair of Fractions lo <= hi asserting that the true value lies
inside. The analyses build the endpoints from exact Fractions, so nothing
is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from haltlab.errors import digit_limit_error
from haltlab.value import Value


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


class Interval(Value):
    """Certified enclosure [lo, hi] of an exact rational quantity."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Rational | int | str, hi: Rational | int | str) -> None:
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, value: Rational | int | str) -> "Interval":
        v = as_fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo
