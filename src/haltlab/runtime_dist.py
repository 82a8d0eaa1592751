"""Runtime distributions induced by weighted halting series.

The normalizer is the series sum of w(i)/t_i over halting indices i. The
weight table is the one parameter of the construction: halting_series and
induced_distribution take it as an argument, by default the dyadic weights
w(i) = 2^-i, DYADIC, the table (1/2) continued at ratio 1/2. Dividing each
term by the normalizer turns stop times into a probability distribution over
indices; its tail decay is what makes "has not stopped by T" quantitatively
informative. T(k), the least T whose tail mass is below 2^-k, is solved for
from the weights' geometric tail; every exact power ratio^e is refused
before it is built when it would pass WEIGHT_BIT_LIMIT.

Every quantity is an Interval certificate. On machines with a finite domain
the intervals are points; on an infinite transparent domain only series
truncation widens them; on opaque machines unresolved runs contribute honest
[0, w/budget] slack. The series and the distributions apply the one budget
policy (haltlab.machine.check_budget) themselves, so callers pass the budget
through unchecked: none on a transparent machine, a positive one on an opaque
machine. The split takes its machine and budget from the distribution.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from haltlab.codec import bits_of_index
from haltlab.errors import ConfigError, DegenerateDistributionError, InvariantViolation
from haltlab.errors import ResourceLimitError
from haltlab.intervals import Interval
from haltlab.machine import Machine, check_budget, finite_domain, observe
from haltlab.sweep import PairListing, _scan, check_enum_cap, sweep
from haltlab.value import Value

DEFAULT_PRECISION_BITS = 8
# bits of a power ratio^e past which it is refused: the weight of a table's
# 20-bit program, index about 1.9 million, has about 1.9 million bits
WEIGHT_BIT_LIMIT = 2**21


class GeometricTableWeights(Value):
    """Explicit positive weights continued geometrically past the listed prefix."""

    __slots__ = _fields = ("prefix", "ratio")

    def __init__(self, prefix: tuple[Fraction, ...], ratio: Fraction) -> None:
        if not prefix:
            raise ConfigError("user-table weights need at least one entry")
        if any(w < 0 for w in prefix) or prefix[-1] <= 0:
            raise ConfigError("weights must be >= 0 with a positive final entry")
        if not 0 < ratio < 1:
            raise ConfigError(f"tail ratio must be in (0,1), got {ratio}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "ratio", ratio)

    def weight(self, i: int) -> Fraction:
        if i < 1:
            raise ConfigError(f"index must be >= 1, got {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.prefix[-1] * self._power(i - len(self.prefix))

    def _fits(self, e: int) -> bool:
        """True, or refused when the denominator of ratio^e, about
        e*log2(den) bits, would pass WEIGHT_BIT_LIMIT."""
        if e > WEIGHT_BIT_LIMIT / math.log2(self.ratio.denominator):
            raise ResourceLimitError(f"weight power ratio^{e} needs over {WEIGHT_BIT_LIMIT} bits")
        return True

    def _power(self, e: int) -> Fraction:
        self._fits(e)
        return self.ratio**e

    def tail_bound(self, start: int) -> Fraction:
        """Exact value of the weight tail sum from start on."""
        start = max(start, 1)
        listed = sum(self.prefix[start - 1 :], Fraction(0))
        n = len(self.prefix)
        geometric = self.prefix[-1] * self._power(max(start - n, 1)) / (1 - self.ratio)
        return listed + geometric

    def least_horizon(self, c: Fraction) -> int:
        """Least horizon T >= 1 with tail_bound(T) < c > 0: bisected within the
        n listed weights, T <= n + 1; past them T = n + e for the least e >= 2
        with w_n*r^e/(1 - r) < c, from logarithms, then steps of one factor r
        from the one exact power r^(e-1) until r^(e-1) >= bound > r^e."""
        n, r = len(self.prefix), self.ratio
        bound = c * (1 - r) / self.prefix[-1]
        if r < bound:  # tail_bound(n + 1) < c
            return bisect_left(range(1, n + 2), True, key=lambda t: self.tail_bound(t) < c) + 1
        # the least e > log(bound)/log(r); an e past exp(60) is refused, so cap it there
        e = max(2, math.floor(math.exp(min(_log_neg_log(bound) - _log_neg_log(r), 60))) + 1)
        power = self._power(e - 1)
        while power < bound:
            power, e = power / r, e - 1
        while self._fits(e) and (stepped := power * r) >= bound:
            power, e = stepped, e + 1
        return n + e


def _log_neg_log(x: Fraction) -> float:
    """log(-log x) for 0 < x < 1, finite next to 0 and next to 1: there from
    log1p of the exact 1 - x, or below 2^-1000 from 1 - x itself."""
    if x <= 0.5:
        return math.log(math.log(x.denominator) - math.log(x.numerator))
    d = 1 - x
    if d > 2.0**-1000:
        return math.log(-math.log1p(-float(d)))
    return math.log(d.numerator) - math.log(d.denominator)


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

    A finite domain gives the exact sum of its items from start to its last.
    Otherwise the indices start .. start+count-1 are observed: those seen
    halting add their terms, those still running after budget steps add
    w(i)/budget of slack (none when budget is None, where not halting is
    certain), and the weight tail from start+count on bounds the rest.
    """
    domain = finite_domain(machine)
    if domain is not None:
        end = domain[-1][0] + 1 if domain else start  # an empty table sums to 0
        terms = _scan(machine, start, end, budget)
        return Interval.exact(sum((weights.weight(i) / t for i, (t, _) in terms), Fraction(0)))
    hits = dict(_scan(machine, start, start + count, budget))  # count is small
    total = slack = Fraction(0)
    for i in range(start, start + count):
        if i in hits:
            total += weights.weight(i) / hits[i][0]
        elif budget is not None:
            slack += weights.weight(i) / budget
    return Interval(total, total + slack + weights.tail_bound(start + count))


def halting_series(
    machine: Machine,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
    weights: GeometricTableWeights = DYADIC,
) -> Interval:
    """Certified enclosure of the normalizer, the sum of w(i)/t_i over halting
    indices, from the first precision+2 indices; with the dyadic weights its
    width is below 2^-precision_bits. An opaque machine's budget must reach
    2^(precision+2), so that the slack stays within the truncation tail; as
    run() takes no budget past 2^64 - 1, that bounds its precision at 61."""
    if precision_bits < 1:
        raise ConfigError(f"precision_bits must be >= 1, got {precision_bits}")
    check_budget(machine, budget)
    # after the policy check only an opaque machine has a budget
    terms = precision_bits + 2
    if budget is not None and budget.bit_length() <= terms:
        raise ConfigError(
            f"budget {budget} is below 2^(precision+2) = 2^{terms}; "
            "the width certificate needs at least that many steps per run"
        )
    interval = _tail_sum(machine, weights, 1, terms, budget)
    # a finite domain's certificate is a point, whatever the precision
    if weights is DYADIC and interval.width and interval.width >= Fraction(1, 2**precision_bits):
        raise InvariantViolation(
            f"series certificate width {interval.width} >= 2^-{precision_bits}"
        )
    return interval


# ---------------------------------------------------------------------------
# the distribution object

class RuntimeDistribution(NamedTuple):
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
        lo_n, hi_n = self.normalizer.lo, self.normalizer.hi
        hit = observe(self.machine, bits_of_index(i), self.budget)
        if hit is not None:
            w = self.weights.weight(i)
            return Interval(w / (hit[0] * hi_n), w / (hit[0] * lo_n))
        if self.budget is None:
            return Interval.exact(0)  # no weight is built for a certain zero
        return Interval(Fraction(0), self.weights.weight(i) / (self.budget * lo_n))

    def tail_mass(self, start: int) -> Interval:
        """Certificate for the mass at indices >= start; as each index adds at
        most w(i), it never passes tail_certificate(self, start)."""
        if start < 1:
            raise ConfigError(f"start must be >= 1, got {start}")
        tail = _tail_sum(self.machine, self.weights, start, self.precision_bits + 2, self.budget)
        return Interval(tail.lo / self.normalizer.hi, tail.hi / self.normalizer.lo)


def induced_distribution(
    machine: Machine,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    budget: int | None = None,
    weights: GeometricTableWeights = DYADIC,
) -> RuntimeDistribution:
    """Distribution with the given weights and the machine's own stop times."""
    normalizer = halting_series(machine, precision_bits, budget, weights)
    if normalizer.lo <= 0:
        raise DegenerateDistributionError(
            "no halting program found among the enumerated indices; "
            "the runtime distribution has no certified mass"
        )
    return RuntimeDistribution(machine, weights, normalizer, precision_bits, budget)


# ---------------------------------------------------------------------------
# tail thresholds

def tail_certificate(dist: RuntimeDistribution, horizon: int) -> Fraction:
    """Closed-form upper bound for the tail mass from horizon on. It does not
    increase with the horizon."""
    return dist.weights.tail_bound(horizon) / dist.normalizer.lo


def tail_threshold(dist: RuntimeDistribution, k: int) -> int:
    """Least horizon T >= 1 whose certified tail mass from T on is below 2^-k,
    that is tail_bound(T) < 2^-k * normalizer.lo, in closed form. A T = n + e
    within the power limit has r^e < 2^-k * lo * (1 - r) / w_n and r^e >=
    2^-WEIGHT_BIT_LIMIT, so a larger k is refused before 2^k is built."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    q = dist.normalizer.lo / dist.weights.prefix[-1]  # q < 2^(num bits - den bits + 1)
    if k > WEIGHT_BIT_LIMIT + q.numerator.bit_length() - q.denominator.bit_length() + 1:
        raise ResourceLimitError(f"T({k}) lies past the power limit of {WEIGHT_BIT_LIMIT} bits")
    try:
        return dist.weights.least_horizon(dist.normalizer.lo / (1 << k))
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"T({k}) lies past the power limit: {exc}") from None


# ---------------------------------------------------------------------------
# computable/rare decomposition of the halting set

class HaltSplit(NamedTuple):
    """Partition of observed halting pairs by the per-length stop-time cutoff.
    The computable pairs stay in the sweeps' arrays until they are listed."""

    cutoffs: dict[int, int]  # length -> strict stop-time cutoff
    computable: PairListing  # stop_time < cutoff[len]
    residual: tuple[tuple[str, int], ...]  # stop_time >= cutoff[len]
    residual_measure_hi: Fraction
    residual_bound: Fraction


def split_halting_set(dist: RuntimeDistribution, k: int, max_len: int) -> HaltSplit:
    """Split the halting pairs (p, t_p) of dist.machine within dist.budget,
    1 <= len(p) <= max_len, at the cutoff t < 2^T(k + len(p) + 2) with
    T = tail_threshold; the remainder is certified to carry little mass."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    check_enum_cap(max_len)  # before any sweep of the shorter lengths
    lengths = range(1, max_len + 1)
    cutoffs = {n: 2 ** tail_threshold(dist, k + n + 2) for n in lengths}
    histories = [sweep(dist.machine, n, dist.budget) for n in lengths]
    residual = tuple(pair for h in histories for pair in h.pairs(cutoffs[h.length]))
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
        computable=PairListing(
            tuple((h, cutoffs[h.length]) for h in histories),
            sum(len(h.times) for h in histories) - len(residual),
        ),
        residual=residual,
        residual_measure_hi=measure_hi,
        residual_bound=bound,
    )
