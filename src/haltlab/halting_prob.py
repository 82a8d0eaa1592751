"""Halting probability as a function of program length.

The curve point at length N is the fraction of the 2^N programs of that
length that halt. Summing the fractions over lengths gives the total Kraft
weight of the observed halting set; on a prefix-free machine that weight
stays below 1 no matter how far the curve is extended.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from haltlab.errors import ConfigError
from haltlab.machine import Machine, ToyVM, check_budget
from haltlab.sweep import _scan, check_enum_cap


class ProbCurvePoint(NamedTuple):
    """Halting census for one program length."""

    length: int
    halting: int
    total: int
    exact: bool  # False: halting is only a lower bound (budget ran out)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.halting, self.total)


class ProbCurve(NamedTuple):
    """Per-length halting fractions for lengths 1..max."""

    points: tuple[ProbCurvePoint, ...]


def domain_prob_curve(
    machine: Machine,
    max_len: int,
    budget: int | None = None,
) -> ProbCurve:
    """Halting fraction per length, exact when the machine is transparent."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    check_budget(machine, budget)
    check_enum_cap(max_len)
    points = []
    for length in range(1, max_len + 1):
        if type(machine) is ToyVM and machine.loop_free:
            count = 2**length  # every program of the loop-free plain VM halts
        else:  # only counted: no stop time is kept
            count = sum(1 for _ in _scan(machine, 2**length, 2 ** (length + 1), budget))
        points.append(
            ProbCurvePoint(
                length=length, halting=count, total=2**length, exact=budget is None
            )
        )
    return ProbCurve(points=tuple(points))
