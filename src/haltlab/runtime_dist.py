"""Runtime distributions induced by weighted halting series.

The normalizer is the series sum of w(i)/t_i over halting indices i, with the
default dyadic weights w(i) = 2^-i: DYADIC, the weight table (1/2) continued
at ratio 1/2. Dividing each term by the normalizer turns stop times into a
probability distribution over indices; its tail decay is what makes "has not
stopped by T" quantitatively informative.

Every quantity is an Interval certificate. On machines with a finite domain
the intervals are points; on an infinite transparent domain only series
truncation widens them; on opaque machines unresolved runs contribute honest
[0, w/budget] slack. The series, the distributions and the split apply the
one budget policy (haltlab.machine.check_budget) themselves, so callers pass
the budget through unchecked: none on a transparent machine, a positive one
on an opaque machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.errors import ConfigError, DegenerateDistributionError, InvariantViolation
from haltlab.errors import ResourceLimitError
from haltlab.intervals import Interval
from haltlab.machine import Machine, check_budget, finite_domain, is_transparent, observe
from haltlab.sweep import check_enum_cap, sweep

OPAQUE_PRECISION_CAP = 16
DEFAULT_PRECISION_BITS = 8
# bits of a tail power ratio^e past which the T(k) search refuses: such a
# power takes about 0.13 s to build, so one search stays within seconds
POWER_BIT_LIMIT = 2**20


@dataclass(frozen=True)
class GeometricTableWeights:
    """Explicit positive weights continued geometrically past the listed prefix."""

    prefix: tuple[Fraction, ...]
    ratio: Fraction

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

    @property
    def horizon_cap(self) -> int:
        """Largest horizon the T(k) search tries: the tail power ratio^e,
        whose denominator has about e*log2(den) bits, fits POWER_BIT_LIMIT."""
        return len(self.prefix) + int(POWER_BIT_LIMIT / math.log2(self.ratio.denominator))

    def tail_bound(self, start: int) -> Fraction:
        """Exact value of the weight tail sum from start on."""
        start = max(start, 1)
        listed = sum(self.prefix[start - 1 :], Fraction(0))
        n = len(self.prefix)
        geometric = self.prefix[-1] * self.ratio ** max(start - n, 1) / (1 - self.ratio)
        return listed + geometric


DYADIC = GeometricTableWeights((Fraction(1, 2),), Fraction(1, 2))


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
        if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(x, str) for x in pair):
            raise ConfigError(f"weight entries are [num, den] string pairs, got {pair!r}")
        try:
            prefix.append(Fraction(int(pair[0]), int(pair[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad weight {pair!r}: {exc}") from exc
    modulus = data.get("tail_modulus")
    if not isinstance(modulus, dict) or modulus.get("type") != "geometric" or "ratio" not in modulus:
        raise ConfigError("tail_modulus must be {'type': 'geometric', 'ratio': ...}")
    text = modulus["ratio"]
    if not isinstance(text, str):
        raise ConfigError(f"the tail ratio is a string like \"1/2\", got {text!r}")
    try:
        ratio = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad tail ratio {text!r}: {exc}") from exc
    return GeometricTableWeights(prefix=tuple(prefix), ratio=ratio)


# ---------------------------------------------------------------------------
# the normalizer series

def _tail_sum(
    machine: Machine, weights: GeometricTableWeights, start: int, count: int, budget: int | None
) -> Interval:
    """Certified enclosure of the sum of w(i)/t_i over halting indices i >= start.

    A finite domain gives the exact sum. Otherwise the indices start ..
    start+count-1 are observed: those seen halting add their terms, those still
    running after budget steps add w(i)/budget of slack (none when budget is
    None, where not halting is certain), and the weight tail from start+count
    on bounds the rest.
    """
    domain = finite_domain(machine)
    if domain is not None:
        total = sum(
            (weights.weight(i) / t for p, t, _ in domain if (i := index_of_bits(p)) >= start),
            Fraction(0),
        )
        return Interval.exact(total)
    check_enum_cap(max(0, (start + count - 1).bit_length() - 1))
    total = slack = Fraction(0)
    for i in range(start, start + count):
        hit = observe(machine, bits_of_index(i), budget)
        if hit is not None:
            total += weights.weight(i) / hit[0]
        elif budget is not None:
            slack += weights.weight(i) / budget
    return Interval(total, total + slack + weights.tail_bound(start + count))


def _series_certificate(
    machine: Machine,
    weights: GeometricTableWeights,
    precision_bits: int,
    budget: int | None,
) -> Interval:
    """Certified enclosure of sum of w(i)/t_i over halting indices, from the
    first precision+2 indices. An opaque machine's budget must reach
    2^(precision+2) so that the slack stays within the truncation tail."""
    if precision_bits < 1:
        raise ConfigError(f"precision_bits must be >= 1, got {precision_bits}")
    check_budget(machine, budget)
    terms = precision_bits + 2
    if budget is not None and budget.bit_length() <= terms:
        raise ConfigError(
            f"budget {budget} is below 2^(precision+2) = 2^{terms}; "
            "the width certificate needs at least that many steps per run"
        )
    return _tail_sum(machine, weights, 1, terms, budget)


def halting_series(
    machine: Machine,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
    force: bool = False,
) -> Interval:
    """Normalizer certificate with width below 2^-precision_bits."""
    if not is_transparent(machine) and precision_bits > OPAQUE_PRECISION_CAP and not force:
        raise ConfigError(
            f"opaque precision capped at {OPAQUE_PRECISION_CAP} bits "
            "(cost grows as 2^precision)"
        )
    interval = _series_certificate(machine, DYADIC, precision_bits, budget)
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
    weights: GeometricTableWeights
    normalizer: Interval
    precision_bits: int
    budget: int | None

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

    def tail_mass(self, start: int) -> Interval:
        """Certificate for the mass at indices >= start."""
        if start < 1:
            raise ConfigError(f"start must be >= 1, got {start}")
        tail = _tail_sum(self.machine, self.weights, start, self.precision_bits + 2, self.budget)
        lo_n, hi_n = self.normalizer.lo, self.normalizer.hi
        cap = self.weights.tail_bound(start) / lo_n
        return Interval(tail.lo / hi_n, min(tail.hi / lo_n, cap))


def _distribution(
    machine: Machine,
    weights: GeometricTableWeights,
    normalizer: Interval,
    precision_bits: int,
    budget: int | None,
) -> RuntimeDistribution:
    if normalizer.lo <= 0:
        raise DegenerateDistributionError(
            "no halting program found among the enumerated indices; "
            "the runtime distribution has no certified mass"
        )
    return RuntimeDistribution(machine, weights, normalizer, precision_bits, budget)


def induced_distribution(
    machine: Machine,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
) -> RuntimeDistribution:
    """Distribution with dyadic weights and the machine's own stop times."""
    normalizer = halting_series(machine, precision_bits, budget)
    return _distribution(machine, DYADIC, normalizer, precision_bits, budget)


def user_table_distribution(
    machine: Machine,
    data: dict,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
) -> RuntimeDistribution:
    """Distribution with declared weights and a geometric tail modulus."""
    weights = weights_from_dict(data)
    normalizer = _series_certificate(machine, weights, precision_bits, budget)
    return _distribution(machine, weights, normalizer, precision_bits, budget)


# ---------------------------------------------------------------------------
# tail thresholds

def tail_certificate(dist: RuntimeDistribution, horizon: int) -> Fraction:
    """Closed-form upper bound for the tail mass from horizon on. It does not
    increase with the horizon."""
    return dist.weights.tail_bound(horizon) / dist.normalizer.lo


def tail_threshold(dist: RuntimeDistribution, k: int) -> int:
    """Least horizon T >= 1 whose certified tail mass from T on is below 2^-k.

    The certificate does not increase with T, so doubling, capped at the
    weights' horizon_cap, brackets the least such T and bisection finds it.
    A T past the cap is refused.
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    target = Fraction(1, 2**k)
    cap = dist.weights.horizon_cap
    # hi meets the target; lo is 0 or a horizon that misses it
    lo, hi = 0, 1
    while tail_certificate(dist, hi) >= target:
        if hi == cap:
            raise ResourceLimitError(
                f"T({k}) lies past horizon {cap}, the last whose tail power "
                f"fits {POWER_BIT_LIMIT} bits"
            )
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail_certificate(dist, mid) < target else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# computable/rare decomposition of the halting set

@dataclass(frozen=True)
class HaltSplit:
    """Partition of observed halting pairs by the per-length stop-time cutoff."""

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
    t < 2^T(k + len(p) + 2) with T = tail_threshold; the remainder is
    certified to carry little mass."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    check_budget(machine, budget)
    check_enum_cap(max_len)  # before any sweep of the shorter lengths
    cutoffs = {n: 2 ** tail_threshold(dist, k + n + 2) for n in range(1, max_len + 1)}
    computable: list[tuple[str, int]] = []
    residual: list[tuple[str, int]] = []
    for length in range(1, max_len + 1):
        for pair in sweep(machine, length, budget).stops.items():
            (computable if pair[1] < cutoffs[length] else residual).append(pair)
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
        cutoffs=cutoffs,
        computable=tuple(computable),
        residual=tuple(residual),
        residual_measure_hi=measure_hi,
        residual_bound=bound,
    )
