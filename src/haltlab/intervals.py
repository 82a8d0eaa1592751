"""Closed rational intervals used as certificates for series values.

An Interval is a pair of Fractions lo <= hi asserting that the true value lies
inside. It takes ints or Fractions and refuses anything else, floats and
strings included; the analyses build the endpoints from exact Fractions, so
nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction

from haltlab.value import Value


def format_fraction(value: Fraction) -> str:
    """Render as "num/den", also an integer; a part past the digit limit raises ValueError."""
    return f"{value.numerator}/{value.denominator}"


class Interval(Value):
    """Certified enclosure [lo, hi] of an exact rational quantity."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction | int, hi: Fraction | int) -> None:
        for value in (lo, hi):
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"not an exact rational: {value!r}")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, value: Fraction | int) -> "Interval":
        return cls(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo
