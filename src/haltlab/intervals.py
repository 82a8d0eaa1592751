"""Closed rational intervals used as certificates for series values.

An Interval is a pair of Fractions lo <= hi asserting that the true value lies
inside. Arithmetic is the usual monotone endpoint arithmetic; nothing here
ever rounds, so a chain of operations yields another honest certificate.
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

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other: "Interval | Rational | int") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        v = as_fraction(other)
        return Interval(self.lo + v, self.hi + v)

    __radd__ = __add__

    def scale(self, factor: Rational | int) -> "Interval":
        """Multiply by an exact scalar (sign-aware)."""
        f = as_fraction(factor)
        if f >= 0:
            return Interval(self.lo * f, self.hi * f)
        return Interval(self.hi * f, self.lo * f)

    def reciprocal(self) -> "Interval":
        """1/x for an interval strictly above zero."""
        if self.lo <= 0:
            raise ZeroDivisionError(f"reciprocal of interval touching 0: {self}")
        return Interval(1 / self.hi, 1 / self.lo)

    def contains(self, value: Rational | int) -> bool:
        v = as_fraction(value)
        return self.lo <= v <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def cap_hi(self, bound: Rational | int) -> "Interval":
        """Tighten the upper endpoint with an independently certified bound."""
        b = as_fraction(bound)
        if b < self.lo:
            raise ValueError(f"bound {b} below certified lower endpoint {self.lo}")
        return Interval(self.lo, min(self.hi, b))

    def to_strings(self) -> dict[str, str]:
        return {"lo": format_fraction(self.lo), "hi": format_fraction(self.hi)}

    def __str__(self) -> str:
        if self.is_point:
            return format_fraction(self.lo)
        return f"[{format_fraction(self.lo)}, {format_fraction(self.hi)}]"
