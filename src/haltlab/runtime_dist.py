"""Runtime distributions induced by weighted halting series.

The normalizer is the series sum of w(i)/t_i over halting indices i, with the
default dyadic weights w(i) = 2^-i. Dividing each term by the normalizer
turns stop times into a probability distribution over indices; its tail decay
is what makes "has not stopped by T" quantitatively informative.

Every quantity is an Interval certificate. On transparent machines with a
finite domain the intervals are points; on an infinite transparent domain only
series truncation widens them; on opaque machines unresolved runs contribute
honest [0, w/budget] slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.errors import (
    ConfigError,
    DegenerateDistributionError,
    InvariantViolation,
)
from haltlab.intervals import Interval, as_fraction
from haltlab.machine import Machine, check_budget, finite_domain, is_transparent, observe
from haltlab.sweep import check_enum_cap, sweep

OPAQUE_PRECISION_CAP = 16
DEFAULT_PRECISION_BITS = 8


def floor_log2(value: Fraction) -> int:
    """Largest e with 2^e <= value, for value > 0 (exact)."""
    f = as_fraction(value)
    if f <= 0:
        raise ValueError(f"floor_log2 needs a positive value, got {f}")
    e = f.numerator.bit_length() - f.denominator.bit_length()
    while Fraction(2) ** e > f:
        e -= 1
    while Fraction(2) ** (e + 1) <= f:
        e += 1
    return e


@dataclass(frozen=True)
class DyadicWeights:
    """Default weight system w(i) = 2^-i."""

    kind: str = "upsilon-induced"

    def weight(self, i: int) -> Fraction:
        return Fraction(1, 2**i)

    def tail_bound(self, start: int) -> Fraction:
        """Exact value of the weight tail sum from start on."""
        if start < 1:
            return Fraction(1)
        return Fraction(1, 2 ** (start - 1))


@dataclass(frozen=True)
class GeometricTableWeights:
    """Explicit positive weights continued geometrically past the listed prefix."""

    prefix: tuple[Fraction, ...]
    ratio: Fraction
    kind: str = "user-table"

    def __post_init__(self) -> None:
        if not self.prefix:
            raise ConfigError("user-table weights need at least one entry")
        if any(w < 0 for w in self.prefix) or self.prefix[-1] <= 0:
            raise ConfigError("weights must be >= 0 with a positive final entry")
        if not 0 < self.ratio < 1:
            raise ConfigError(f"tail ratio must be in (0,1), got {self.ratio}")

    def weight(self, i: int) -> Fraction:
        if i < 1:
            raise ConfigError(f"index must be >= 1, got {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.prefix[-1] * self.ratio ** (i - len(self.prefix))

    def tail_bound(self, start: int) -> Fraction:
        start = max(start, 1)
        listed = sum(self.prefix[start - 1 :], Fraction(0))
        n = len(self.prefix)
        if start <= n:
            geometric = self.prefix[-1] * self.ratio / (1 - self.ratio)
        else:
            geometric = self.prefix[-1] * self.ratio ** (start - n) / (1 - self.ratio)
        return listed + geometric


Weights = Union[DyadicWeights, GeometricTableWeights]


def weights_from_dict(data: dict) -> GeometricTableWeights:
    """Parse the user-table weight file format."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind != "user-table":
        raise ConfigError(f"expected kind 'user-table', got {kind!r}")
    raw = data.get("weights")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("user-table needs a non-empty 'weights' list")
    prefix = []
    for pair in raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"weight entries are [num, den] string pairs, got {pair!r}")
        try:
            prefix.append(Fraction(int(pair[0]), int(pair[1])))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad weight {pair!r}: {exc}") from exc
    modulus = data.get("tail_modulus")
    if not isinstance(modulus, dict) or modulus.get("type") != "geometric" or "ratio" not in modulus:
        raise ConfigError("tail_modulus must be {'type': 'geometric', 'ratio': ...}")
    try:
        ratio = Fraction(modulus["ratio"])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad tail ratio {modulus['ratio']!r}: {exc}") from exc
    return GeometricTableWeights(prefix=tuple(prefix), ratio=ratio)


# ---------------------------------------------------------------------------
# the normalizer series

def _weighted_stops(
    machine: Machine, weights: Weights, start: int, count: int, budget: int | None
) -> tuple[Fraction, Fraction]:
    """Over indices start .. start+count-1: the sum of w(i)/t_i for those seen
    halting, and the budget slack sum of w(i)/budget for those still running
    (zero when budget is None, where not halting is certain)."""
    total = Fraction(0)
    slack = Fraction(0)
    for i in range(start, start + count):
        hit = observe(machine, bits_of_index(i), budget)
        if hit is not None:
            total += weights.weight(i) / hit[0]
        elif budget is not None:
            slack += weights.weight(i) / budget
    return total, slack


def _series_certificate(
    machine: Machine,
    weights: Weights,
    precision_bits: int,
    budget: int | None,
) -> Interval:
    """Certified enclosure of sum of w(i)/t_i over halting indices.

    A finite transparent domain gives a point; otherwise series truncation,
    and on opaque machines the per-run budget slack, widen the result.
    """
    if is_transparent(machine) and (domain := finite_domain(machine)) is not None:
        total = sum(
            (weights.weight(index_of_bits(p)) / t for p, t, _ in domain),
            Fraction(0),
        )
        return Interval.exact(total)
    terms = precision_bits + 2
    check_enum_cap(max(0, terms.bit_length() - 1))
    if budget is not None and budget < 2**terms:
        raise ConfigError(
            f"budget {budget} is below 2^(precision+2) = {2**terms}; "
            "the width certificate needs at least that many steps per run"
        )
    lo, slack = _weighted_stops(machine, weights, 1, terms, budget)
    return Interval(lo, lo + slack + weights.tail_bound(terms + 1))


def _run_budget(machine: Machine, precision_bits: int, budget: int | None) -> int | None:
    """Per-run budget of a series: none on a transparent machine; on an opaque
    one the given budget, by default 2^(precision+2)."""
    if budget is None and not is_transparent(machine):
        return 2 ** (precision_bits + 2)
    check_budget(machine, budget)
    return budget


def halting_series(
    machine: Machine,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
    force: bool = False,
) -> Interval:
    """Normalizer certificate with width below 2^-precision_bits."""
    if precision_bits < 1:
        raise ConfigError(f"precision_bits must be >= 1, got {precision_bits}")
    if not is_transparent(machine) and precision_bits > OPAQUE_PRECISION_CAP and not force:
        raise ConfigError(
            f"opaque precision capped at {OPAQUE_PRECISION_CAP} bits "
            f"(cost grows as 2^precision); pass force=True to override"
        )
    budget = _run_budget(machine, precision_bits, budget)
    interval = _series_certificate(machine, DyadicWeights(), precision_bits, budget)
    if interval.width >= Fraction(1, 2**precision_bits):
        raise InvariantViolation(
            f"series certificate width {interval.width} >= 2^-{precision_bits}"
        )
    return interval


# ---------------------------------------------------------------------------
# the distribution object

@dataclass(frozen=True)
class RuntimeDistribution:
    """Normalized stop-time mass per index, with a certified tail modulus."""

    machine: Machine
    weights: Weights
    normalizer: Interval
    precision_bits: int
    budget: int | None

    @property
    def kind(self) -> str:
        return self.weights.kind

    def weight(self, i: int) -> Fraction:
        return self.weights.weight(i)

    def mass(self, i: int) -> Interval:
        """Certificate for the normalized mass at index i."""
        if i < 1:
            raise ConfigError(f"index must be >= 1, got {i}")
        w = self.weights.weight(i)
        lo_n, hi_n = self.normalizer.lo, self.normalizer.hi
        hit = observe(self.machine, bits_of_index(i), self.budget)
        if hit is not None:
            return Interval(w / (hit[0] * hi_n), w / (hit[0] * lo_n))
        if self.budget is None:
            return Interval.exact(0)
        return Interval(Fraction(0), w / (self.budget * lo_n))

    def tail_index(self, k: int) -> int:
        """Least start index with certified tail mass below 2^-k."""
        if k < 0:
            raise ConfigError(f"k must be >= 0, got {k}")
        target = Fraction(1, 2**k)
        n = 1
        while self.weights.tail_bound(n) / self.normalizer.lo >= target:
            n += 1
            if n > 10**6:
                raise InvariantViolation("tail modulus search did not converge")
        return n

    def tail_mass(self, start: int, terms: int | None = None) -> Interval:
        """Certificate for the mass at indices >= start."""
        if start < 1:
            raise ConfigError(f"start must be >= 1, got {start}")
        lo_n, hi_n = self.normalizer.lo, self.normalizer.hi
        cap = self.weights.tail_bound(start) / lo_n
        if is_transparent(self.machine) and (domain := finite_domain(self.machine)) is not None:
            total = sum(
                (
                    self.weights.weight(index_of_bits(p)) / t
                    for p, t, _ in domain
                    if index_of_bits(p) >= start
                ),
                Fraction(0),
            )
            if self.normalizer.is_point:
                return Interval.exact(total / lo_n)
            return Interval(total / hi_n, min(total / lo_n, cap))
        count = terms if terms is not None else self.precision_bits + 2
        sum_lo, slack = _weighted_stops(self.machine, self.weights, start, count, self.budget)
        tail = self.weights.tail_bound(start + count)
        hi = (sum_lo + slack + tail) / lo_n
        return Interval(sum_lo / hi_n, min(hi, cap))

    def total_mass(self) -> Interval:
        return self.tail_mass(1)


def _check_normalizer(normalizer: Interval) -> Interval:
    if normalizer.lo <= 0:
        raise DegenerateDistributionError(
            "no halting program found among the enumerated indices; "
            "the runtime distribution has no certified mass"
        )
    return normalizer


def induced_distribution(
    machine: Machine,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
    force: bool = False,
) -> RuntimeDistribution:
    """Distribution with dyadic weights and the machine's own stop times."""
    budget = _run_budget(machine, precision_bits, budget)
    normalizer = _check_normalizer(halting_series(machine, precision_bits, budget, force))
    return RuntimeDistribution(
        machine=machine,
        weights=DyadicWeights(),
        normalizer=normalizer,
        precision_bits=precision_bits,
        budget=budget,
    )


def user_table_distribution(
    machine: Machine,
    data: dict,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
) -> RuntimeDistribution:
    """Distribution with declared weights and a geometric tail modulus."""
    weights = weights_from_dict(data)
    budget = _run_budget(machine, precision_bits, budget)
    normalizer = _check_normalizer(
        _series_certificate(machine, weights, precision_bits, budget)
    )
    return RuntimeDistribution(
        machine=machine,
        weights=weights,
        normalizer=normalizer,
        precision_bits=precision_bits,
        budget=budget,
    )


# ---------------------------------------------------------------------------
# tail thresholds

def tail_threshold(dist: RuntimeDistribution, k: int) -> int:
    """Least horizon T whose certified tail mass from T on is below 2^-k.

    Computed as the least integer exceeding k - floor_log2(normalizer_lo),
    nudged up in the knife-edge case where that bound is not strict.
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    threshold = k - floor_log2(dist.normalizer.lo) + 1
    target = Fraction(1, 2**k)
    while dist.weights.tail_bound(threshold) / dist.normalizer.lo >= target:
        threshold += 1
    return threshold


def tail_certificate(dist: RuntimeDistribution, horizon: int) -> Fraction:
    """Closed-form upper bound for the tail mass from horizon on."""
    return dist.weights.tail_bound(horizon) / dist.normalizer.lo


# ---------------------------------------------------------------------------
# computable/rare decomposition of the halting set

@dataclass(frozen=True)
class HaltSplit:
    """Partition of observed halting pairs by the per-length stop-time cutoff."""

    k: int
    max_len: int
    budget: int | None
    cutoffs: dict[int, int]  # length -> strict stop-time cutoff
    computable: tuple[tuple[str, int], ...]  # stop_time < cutoff[len]
    residual: tuple[tuple[str, int], ...]  # stop_time >= cutoff[len]
    residual_measure_hi: Fraction
    residual_bound: Fraction


def split_halting_set(
    machine: Machine,
    dist: RuntimeDistribution,
    k: int,
    max_len: int,
    budget: int | None = None,
) -> HaltSplit:
    """Split halting pairs (p, t_p), 1 <= len(p) <= max_len, at the cutoff
    t < 2^b(k + len(p) + 2); the remainder is certified to carry little mass."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    check_budget(machine, budget)
    cutoffs = {n: 2 ** dist.tail_index(k + n + 2) for n in range(1, max_len + 1)}
    pairs: list[tuple[str, int]] = []
    for length in range(1, max_len + 1):
        pairs.extend(sweep(machine, length, budget).stops.items())
    computable = []
    residual = []
    for program, stop in pairs:
        if stop < cutoffs[len(program)]:
            computable.append((program, stop))
        else:
            residual.append((program, stop))
    measure_hi = sum(
        (Fraction(1, 2 ** len(p)) * dist.mass(t).hi for p, t in residual),
        Fraction(0),
    )
    bound = Fraction(1, 2 ** (k + 1))
    if measure_hi >= bound:
        raise InvariantViolation(
            f"residual measure {measure_hi} not below the certified bound {bound}"
        )
    return HaltSplit(
        k=k,
        max_len=max_len,
        budget=budget,
        cutoffs=cutoffs,
        computable=tuple(computable),
        residual=tuple(residual),
        residual_measure_hi=measure_hi,
        residual_bound=bound,
    )
