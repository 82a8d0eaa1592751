"""Density of random stop times inside dyadic windows.

A time t >= 2 counts as random when no index at or below
short_index_cap(|code(t)|) produces its code (see complexity). Two families
of results live here, both at the exponent m = 2*length + 2c + 1 with c the
wrapper overhead:

* exclusion: stop times of length-n programs at or past 2^m are never
  random, because the timing wrapper compresses them. exclusion_report
  checks this for any lengths, with or without an upper end to the times,
  asking complexity.find_witness for a witness to each stop: a stop without
  one is a violation when read exactly and unresolved under a budget;
* window density: within [2^m, T] the non-random times are so sparse that
  the random fraction provably exceeds 1 - 5/(m+s-1), where s is the number
  of doublings the window spans.

Counting is exact on transparent machines. On opaque machines witnesses
found within the budget are sound, so the random fraction is reported as an
upper bound and the density claim is left unverified.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.complexity import (
    _check_witness_cap,
    find_witness,
    min_index_map,
    short_index_cap,
    stop_time_bound_holds,
)
from haltlab.errors import ConfigError, InvariantViolation, ResourceLimitError
from haltlab.machine import TIME_WRAP_EXTRA_BITS, Machine, TableMachine, check_budget
from haltlab.runtime_dist import WEIGHT_BIT_LIMIT
from haltlab.sweep import check_enum_cap, sweep

# the most strata stratum_average sums: s + 1 exact terms, time quadratic in s
STRATA_LIMIT = 10**4


def stratum_average(m: int, s: int) -> Fraction:
    """Exact weighted average of 1/(m+i) over s+1 strata, weights 2^i, s <= STRATA_LIMIT."""
    if m < 1 or s < 1:
        raise ConfigError(f"need m >= 1 and s >= 1, got m={m}, s={s}")
    if s > STRATA_LIMIT:
        raise ResourceLimitError(f"averaging over more than {STRATA_LIMIT} strata is refused")
    total = sum((Fraction(2**i, m + i) for i in range(s + 1)), Fraction(0))
    return total / (2**s - 1)


def stratum_average_bound(m: int, s: int) -> Fraction:
    """Closed-form bound for stratum_average: 5/(m+s-1)."""
    if m < 1 or s < 1:
        raise ConfigError(f"need m >= 1 and s >= 1, got m={m}, s={s}")
    return Fraction(5, m + s - 1)


def power_gap_holds(n: int, t: int) -> bool:
    """Whether 2^len exceeds 2^n * len for len = |code(t)|, t >= 2^(2n-1)."""
    if n < 4:
        raise ConfigError(f"the gap statement needs n >= 4, got {n}")
    if t >> (2 * n - 1) < 1:  # t < 2^(2n-1), also for a negative t
        raise ConfigError(f"t must be >= 2^(2n-1) = 2^{2 * n - 1}, got t < 2^{t.bit_length()}")
    length = t.bit_length() - 1
    return length - n >= length.bit_length()  # 2^len > 2^n * len, as len >= 1


def _exponent(length: int) -> int:
    """m = 2*length + 2c + 1, where the late stops of this length start."""
    if length < 0:
        raise ConfigError(f"length must be >= 0, got {length}")
    return 2 * length + 2 * TIME_WRAP_EXTRA_BITS + 1


def exclusion_threshold(length: int) -> int:
    """2^m: stop times at or above it are provably non-random at this length."""
    return 1 << _exponent(length)


class ExclusionReport(NamedTuple):
    """Randomness verdicts for stop times past the exclusion threshold."""

    candidates: tuple[tuple[str, int], ...]
    violations: tuple[tuple[str, int], ...]  # provably random (should be empty)
    unresolved: tuple[tuple[str, int], ...]  # opaque, no witness within budget

    @property
    def holds(self) -> bool:
        return not self.violations


def exclusion_report(
    machine: Machine,
    lengths: Iterable[int],
    horizon: int | None = None,
    budget: int | None = None,
) -> ExclusionReport:
    """Sweep each length n, keep the stop times in [2^m, horizon], m =
    2n + 2c + 1 (no upper end when horizon is None), and check that each one
    is non-random: find_witness, given the program, at the time's cap."""
    if horizon is not None and horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    check_budget(machine, budget)
    # only lengths whose late stops can reach the horizon are swept; refuse
    # the longest of them before the first sweep runs
    swept = [n for n in lengths if horizon is None or _exponent(n) < horizon.bit_length()]
    check_enum_cap(max(swept, default=0))
    candidates: list[tuple[str, int]] = []
    end = None if horizon is None else horizon + 1
    for length in swept:
        candidates.extend(sweep(machine, length, budget).pairs(exclusion_threshold(length), end))
    violations, unresolved = [], []
    for program, stop in candidates:
        code = bits_of_index(stop)
        if find_witness(machine, code, short_index_cap(len(code)), budget, program) is None:
            # no witness: provably random when read exactly, unknown under a budget
            (violations if budget is None else unresolved).append((program, stop))
    return ExclusionReport(tuple(candidates), tuple(violations), tuple(unresolved))


class DensityReport(NamedTuple):
    """Random-time census over the window [2^m, horizon]."""

    m: int
    s: int
    window_start: int
    horizon: int
    window_size: int
    nonrandom_count: int
    random_fraction: Fraction
    rare_bound: Fraction  # certified cap on the non-random fraction
    exact: bool  # False: fraction is only an upper bound (opaque machine)
    holds: bool | None  # random_fraction > 1 - rare_bound; None when not exact

    @property
    def random_count(self) -> int:
        return self.window_size - self.nonrandom_count


def density_report(
    machine: Machine,
    length: int,
    horizon: int,
    budget: int | None = None,
) -> DensityReport:
    """Count non-random times in [2^m, horizon] for m = 2*length + 2c + 1.

    Non-random times are found by inverting the least-producing-index map:
    each map entry is one candidate time, so the scan costs one lookup per
    witness rather than one per time in the window.
    """
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    check_budget(machine, budget)
    m = _exponent(length)
    s = (horizon + 1).bit_length() - 1 - m
    if s < 1:
        raise ConfigError(
            f"horizon {horizon} spans no full doubling past 2^{m}; "
            f"need horizon >= 2^{m + 1} - 1"
        )
    window_start = 1 << m
    window_size = horizon - window_start + 1
    # every non-random t in the window has its witness at or below the cap of
    # the longest code, m + s bits
    _check_witness_cap(machine, m + s)
    witness_map = min_index_map(machine, short_index_cap(m + s), budget)
    nonrandom = sum(
        1
        for output, index in witness_map.items()
        if window_start <= index_of_bits(output) <= horizon
        and index <= short_index_cap(len(output))
    )
    fraction = Fraction(window_size - nonrandom, window_size)
    bound = stratum_average_bound(m, s)
    holds: bool | None
    if budget is None:  # the machine is transparent
        holds = fraction > 1 - bound
        if not holds:
            raise InvariantViolation(
                f"random fraction {fraction} not above 1 - {bound} "
                f"on [{window_start}, {horizon}]"
            )
    else:
        holds = None
    return DensityReport(
        m=m,
        s=s,
        window_start=window_start,
        horizon=horizon,
        window_size=window_size,
        nonrandom_count=nonrandom,
        random_fraction=fraction,
        rare_bound=bound,
        exact=budget is None,
        holds=holds,
    )


def _check_margin(length: int, k: int) -> None:
    """Refuse k < 0, and a window that starts past the margin: 5*2^k + 2 <= m."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    m = _exponent(length)
    if k < m.bit_length() and 5 * 2**k + 2 <= m:  # builds no 2^k past m
        raise ConfigError(f"window at length {length} already starts past the 2^-{k} margin")


def required_horizon(length: int, k: int) -> int:
    """Smallest horizon whose window certifies a random fraction above 1 - 2^-k;
    a horizon of more than WEIGHT_BIT_LIMIT bits is refused before it is built."""
    _check_margin(length, k)
    if 5 * 2 ** min(k, 64) + 2 > WEIGHT_BIT_LIMIT:
        raise ResourceLimitError(f"the horizon of k = {k} needs over {WEIGHT_BIT_LIMIT} bits")
    return (1 << (5 * 2**k + 2)) - 1


def density_with_margin(
    machine: Machine, length: int, k: int, budget: int | None = None
) -> DensityReport:
    """Density report at the smallest horizon giving rare_bound <= 2^-k; its
    witnesses, bar a finite domain's, meet the cap before 2^L is built, L = 5*2^k + 2."""
    _check_margin(length, k)
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    check_budget(machine, budget)
    _check_witness_cap(machine, 5 * 2 ** min(k, 64) + 2)  # past k = 64 no 2^L fits in memory
    horizon = required_horizon(length, k)
    report = density_report(machine, length, horizon, budget)
    if report.rare_bound > Fraction(1, 2**k):
        raise InvariantViolation(
            f"rare bound {report.rare_bound} exceeds 2^-{k} at horizon {horizon}"
        )
    return report


def stop_code_violations(machine: TableMachine) -> tuple[str, ...]:
    """Programs in a finite table whose stop-time code lacks a producing
    index at or below 2^(len+c+1); an empty result lints the table clean."""
    if not isinstance(machine, TableMachine):
        raise ConfigError("the stop-code lint applies to finite tables only")
    return tuple(
        program
        for program, stop, _ in machine.entries
        if not stop_time_bound_holds(machine, program, None).holds
    )
