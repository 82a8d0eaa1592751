"""Exhaustive halting histories over fixed-length program spaces.

A sweep observes every length-N program, in index order, and records the stop
times of those seen halting. With a step horizon T it runs each program for at
most T steps; with no horizon it reads a transparent machine exactly. sweep()
is the package's one enumeration of a program length, so every per-length
census also goes through its enumeration cap.

For a sweep with horizon T the associated product space is {0,1}^N x {1..T}
with the uniform measure 2^-N * 1/T; prob_exact and prob_by are measures of
"stops exactly at its recorded time" and "has stopped by the sampled time"
there, so they need a horizon. All probabilities are Fractions; nothing is
ever rounded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from haltlab.errors import ConfigError, ResourceLimitError, UndefinedConditionalError
from haltlab.machine import Machine, observe

DEFAULT_ENUM_CAP_BITS = 24
ENUM_CAP_ENV = "HALTLAB_ENUM_CAP"
# history_to_matrix builds one cell per (program, time), about 100 bytes each
MATRIX_CELL_CAP = 2**20


def enum_cap_bits() -> int:
    """Largest program length an exhaustive 2^N enumeration may use."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP_BITS
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc


def check_enum_cap(length: int) -> None:
    cap = enum_cap_bits()
    if length > cap:
        raise ResourceLimitError(
            f"enumerating 2^{length} programs exceeds the cap of 2^{cap}; "
            f"set {ENUM_CAP_ENV} to allow it"
        )


@dataclass(frozen=True)
class HaltingHistory:
    """Result of one sweep: stop times of all halting length-N programs, in
    index order. horizon None marks an exact sweep of a transparent machine."""

    length: int
    horizon: int | None
    stops: Mapping[str, int]

    @property
    def space_size(self) -> int:
        return 2**self.length


def all_programs(length: int) -> list[str]:
    if length == 0:
        return [""]
    return [format(v, f"0{length}b") for v in range(2**length)]


def sweep(machine: Machine, length: int, horizon: int | None) -> HaltingHistory:
    """Observe all 2^length programs, within horizon steps or exactly when
    horizon is None, and record their stop times in index order."""
    if length < 0:
        raise ConfigError(f"length must be >= 0, got {length}")
    if horizon is not None and horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    check_enum_cap(length)
    stops = {}
    for program in all_programs(length):
        hit = observe(machine, program, horizon)
        if hit is not None:
            stops[program] = hit[0]
    return HaltingHistory(length=length, horizon=horizon, stops=stops)


# ---------------------------------------------------------------------------
# product-space measures

def _horizon(history: HaltingHistory) -> int:
    if history.horizon is None:
        raise ConfigError("an exact sweep has no horizon, so it has no product space")
    return history.horizon


def prob_exact(history: HaltingHistory) -> Fraction:
    """Measure of {(p, t) : p stops exactly at t} in the product space."""
    return Fraction(len(history.stops), history.space_size * _horizon(history))


def prob_by(history: HaltingHistory) -> Fraction:
    """Measure of {(p, t) : p has stopped by t} in the product space."""
    horizon = _horizon(history)
    weight = sum(horizon - t + 1 for t in history.stops.values())
    return Fraction(weight, history.space_size * horizon)


def eventual_fraction(history: HaltingHistory) -> Fraction:
    """Fraction of programs observed halting within the horizon."""
    return Fraction(len(history.stops), history.space_size)


@dataclass(frozen=True)
class ConditionalReport:
    """Halting statistics conditioned on surviving past t0."""

    t0: int
    t1: int | None
    survivors: int
    eventual_given_not_by: Fraction
    not_by_and_eventual: Fraction
    by_t1_given_not_by: Fraction | None


def conditional_probs(history: HaltingHistory, t0: int, t1: int | None = None) -> ConditionalReport:
    """Conditioning on "not stopped by t0" within the recorded horizon."""
    horizon = _horizon(history)
    if not 0 <= t0 <= horizon:
        raise ConfigError(f"t0 must be in [0, {horizon}], got {t0}")
    if t1 is not None and not t0 < t1 <= horizon:
        raise ConfigError(f"t1 must be in ({t0}, {horizon}], got {t1}")
    survivors = history.space_size - sum(1 for t in history.stops.values() if t <= t0)
    if survivors == 0:
        raise UndefinedConditionalError(
            f"every program stopped by t0={t0}; the conditional is undefined"
        )
    later = sum(1 for t in history.stops.values() if t > t0)
    by_t1 = None
    if t1 is not None:
        by_t1 = Fraction(sum(1 for t in history.stops.values() if t0 < t <= t1), survivors)
    return ConditionalReport(
        t0=t0,
        t1=t1,
        survivors=survivors,
        eventual_given_not_by=Fraction(later, survivors),
        not_by_and_eventual=Fraction(later, history.space_size),
        by_t1_given_not_by=by_t1,
    )


# ---------------------------------------------------------------------------
# exports

def history_to_csv(history: HaltingHistory) -> str:
    """One row per program in index order; running programs marked RUNNING."""
    lines = ["program,stop_time"]
    for program in all_programs(history.length):
        stop = history.stops.get(program)
        lines.append(f"{program},{stop if stop is not None else 'RUNNING'}")
    return "\n".join(lines) + "\n"


def check_matrix_cells(length: int, horizon: int) -> None:
    """Refuse a matrix of more than MATRIX_CELL_CAP cells, 2^length x horizon."""
    if length >= 0 and horizon > MATRIX_CELL_CAP >> length:
        raise ResourceLimitError(
            f"a matrix of 2^{length} programs x {horizon} times exceeds "
            f"{MATRIX_CELL_CAP} cells; use the csv or json format"
        )


def history_to_matrix(history: HaltingHistory) -> dict:
    """Grid form: cell (p, t) holds "h" once p has stopped by t."""
    horizon = _horizon(history)
    check_matrix_cells(history.length, horizon)
    rows = []
    for program in all_programs(history.length):
        stop = history.stops.get(program)
        cells = [
            "h" if stop is not None and t >= stop else ""
            for t in range(1, horizon + 1)
        ]
        rows.append({"program": program, "cells": cells})
    return {
        "length": history.length,
        "horizon": horizon,
        "times": list(range(1, horizon + 1)),
        "rows": rows,
    }

