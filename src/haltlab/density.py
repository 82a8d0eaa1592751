"""Density of random stop times inside dyadic windows.

A time t >= 2 counts as random when no producing index sits below
2^len / len for its code (see complexity.time_randomness). Two families of
results live here:

* exclusion: stop times of short programs that exceed an exponential
  threshold are never random, because the timing wrapper compresses them;
* window density: within [2^m, T] the non-random times are so sparse that
  the random fraction provably exceeds 1 - 5/(m+s-1), where s is the number
  of doublings the window spans.

Counting is exact on transparent machines. On opaque machines witnesses
found within the budget are sound, so the random fraction is reported as an
upper bound and the density claim is left unverified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.complexity import (
    RANDOM,
    UNKNOWN,
    min_index_map,
    randomness_threshold,
    time_randomness,
)
from haltlab.errors import ConfigError, InvariantViolation, ResourceLimitError
from haltlab.machine import (
    Machine,
    PrefixFreeVM,
    TableMachine,
    TIME_WRAP_EXTRA_BITS,
    TIME_WRAP_STEP_OVERHEAD,
    ToyVM,
    check_budget,
    is_transparent,
    observe,
    time_wrap,
)
from haltlab.sweep import sweep

HORIZON_CAP = 2**26


def stratum_average(m: int, s: int) -> Fraction:
    """Weighted average of 1/(m+i) over s+1 strata with weights 2^i (exact)."""
    if m < 1 or s < 1:
        raise ConfigError(f"need m >= 1 and s >= 1, got m={m}, s={s}")
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
    if t < 2 ** (2 * n - 1):
        raise ConfigError(f"t must be >= 2^(2n-1) = {2 ** (2 * n - 1)}, got {t}")
    length = len(bits_of_index(t))
    return 2**length > 2**n * length


def exclusion_threshold(length: int) -> int:
    """Stop times at or above this are provably non-random for programs
    of the given length: 2^(2*length + 2c + 1) with c the wrapper overhead."""
    if length < 0:
        raise ConfigError(f"length must be >= 0, got {length}")
    return 2 ** (2 * length + 2 * TIME_WRAP_EXTRA_BITS + 1)


def _wrapper_witness(
    machine: Machine, program: str, stop: int, budget: int | None
) -> int | None:
    """Index of the timing wrapper when it certifies code(stop), else None."""
    if not isinstance(machine, (ToyVM, PrefixFreeVM)):
        return None
    wrapped = time_wrap(program)
    index = index_of_bits(wrapped)
    if Fraction(index) >= randomness_threshold(stop):
        return None
    hit = observe(machine, wrapped, None if budget is None else budget + TIME_WRAP_STEP_OVERHEAD)
    return index if hit is not None and hit[1] == bits_of_index(stop) else None


@dataclass(frozen=True)
class ExclusionReport:
    """Randomness verdicts for over-threshold stop times at one length."""

    length: int
    threshold: int  # candidate stop times are >= this
    candidates: tuple[tuple[str, int], ...]
    violations: tuple[tuple[str, int], ...]  # provably random (should be empty)
    unresolved: tuple[tuple[str, int], ...]  # opaque, no witness within budget

    @property
    def holds(self) -> bool:
        return not self.violations


def random_stop_report(
    machine: Machine,
    length: int,
    budget: int | None = None,
) -> ExclusionReport:
    """Check that every late stop time at this length is non-random."""
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    threshold = exclusion_threshold(length)
    check_budget(machine, budget)
    stops = sweep(machine, length, budget).stops
    candidates = tuple((p, t) for p, t in stops.items() if t >= threshold)
    violations = []
    unresolved = []
    for program, stop in candidates:
        if _wrapper_witness(machine, program, stop, budget) is not None:
            continue
        verdict = time_randomness(machine, stop, budget)
        if verdict == RANDOM:
            violations.append((program, stop))
        elif verdict == UNKNOWN:
            unresolved.append((program, stop))
    return ExclusionReport(
        length=length,
        threshold=threshold,
        candidates=candidates,
        violations=tuple(violations),
        unresolved=tuple(unresolved),
    )


@dataclass(frozen=True)
class DensityReport:
    """Random-time census over the window [2^m, horizon]."""

    length: int
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
    m = 2 * length + 2 * TIME_WRAP_EXTRA_BITS + 1
    s = (horizon + 1).bit_length() - 1 - m
    if s < 1:
        raise ConfigError(
            f"horizon {horizon} spans no full doubling past 2^{m}; "
            f"need horizon >= {2 ** (m + 1) - 1}"
        )
    if horizon > HORIZON_CAP:
        raise ResourceLimitError(
            f"horizon {horizon} exceeds the window cap {HORIZON_CAP}"
        )
    transparent = is_transparent(machine)
    window_start = 2**m
    window_size = horizon - window_start + 1
    # every non-random t in the window has its witness below the cap for the
    # largest threshold the window can reach, 2^(m+s)/(m+s)
    cap = -(-(2 ** (m + s)) // (m + s)) - 1
    witness_map = min_index_map(machine, cap, budget)
    nonrandom = 0
    for output, index in witness_map.items():
        if not output:
            continue  # empty output codes t = 1, never in the window
        t = index_of_bits(output)
        if window_start <= t <= horizon and Fraction(index) < randomness_threshold(t):
            nonrandom += 1
    fraction = Fraction(window_size - nonrandom, window_size)
    bound = Fraction(5, m + s - 1)
    holds: bool | None
    if transparent:
        holds = fraction > 1 - bound
        if not holds:
            raise InvariantViolation(
                f"random fraction {fraction} not above 1 - {bound} "
                f"on [{window_start}, {horizon}]"
            )
    else:
        holds = None
    return DensityReport(
        length=length,
        m=m,
        s=s,
        window_start=window_start,
        horizon=horizon,
        window_size=window_size,
        nonrandom_count=nonrandom,
        random_fraction=fraction,
        rare_bound=bound,
        exact=transparent,
        holds=holds,
    )


def required_horizon(length: int, k: int) -> int:
    """Smallest horizon whose window certifies a random fraction above 1 - 2^-k."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    m = 2 * length + 2 * TIME_WRAP_EXTRA_BITS + 1
    s = 5 * 2**k + 2 - m
    if s < 1:
        raise ConfigError(
            f"window at length {length} already starts past the 2^-{k} margin"
        )
    return 2 ** (m + s) - 1


def density_with_margin(
    machine: Machine,
    length: int,
    k: int,
    budget: int | None = None,
) -> DensityReport:
    """Density report at the smallest horizon giving rare_bound <= 2^-k."""
    horizon = required_horizon(length, k)
    report = density_report(machine, length, horizon, budget)
    if report.rare_bound > Fraction(1, 2**k):
        raise InvariantViolation(
            f"rare bound {report.rare_bound} exceeds 2^-{k} at horizon {horizon}"
        )
    return report


@dataclass(frozen=True)
class ExponentialStops:
    """Late stop times (past the per-length exponential threshold) up to a horizon."""

    max_len: int
    horizon: int
    pairs: tuple[tuple[str, int], ...]
    violations: tuple[tuple[str, int], ...]
    unresolved: tuple[tuple[str, int], ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def exponential_stop_density(
    machine: Machine,
    max_len: int,
    horizon: int,
    budget: int | None = None,
) -> ExponentialStops:
    """Collect stop times t_p <= horizon with t_p >= 2^(2|p|+2c+1) for
    |p| <= max_len and confirm each is non-random."""
    if max_len < 0:
        raise ConfigError(f"max_len must be >= 0, got {max_len}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    check_budget(machine, budget)
    late: list[tuple[str, int]] = []
    for length in range(max_len + 1):
        threshold = exclusion_threshold(length)
        if threshold > horizon:
            continue
        stops = sweep(machine, length, budget).stops
        late.extend((p, t) for p, t in stops.items() if threshold <= t <= horizon)
    violations = []
    unresolved = []
    for program, stop in late:
        if _wrapper_witness(machine, program, stop, budget) is not None:
            continue
        verdict = time_randomness(machine, stop, budget)
        if verdict == RANDOM:
            violations.append((program, stop))
        elif verdict == UNKNOWN:
            unresolved.append((program, stop))
    return ExponentialStops(
        max_len=max_len,
        horizon=horizon,
        pairs=tuple(late),
        violations=tuple(violations),
        unresolved=tuple(unresolved),
    )


def stop_code_violations(machine: TableMachine) -> tuple[str, ...]:
    """Programs in a finite table whose stop-time code lacks a producing
    index at or below 2^(len+c+1); an empty result lints the table clean."""
    if not isinstance(machine, TableMachine):
        raise ConfigError("the stop-code lint applies to finite tables only")
    bad = []
    for program, stop, _ in machine.entries:
        cap = 2 ** (len(program) + TIME_WRAP_EXTRA_BITS + 1)
        witness = min_index_map(machine, cap, None).get(bits_of_index(stop))
        if witness is None:
            bad.append(program)
    return tuple(bad)
