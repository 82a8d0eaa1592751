"""Exhaustive halting histories over fixed-length program spaces.

A sweep observes every length-N program and records the stop times of those
seen halting. With a step horizon T it runs each program for at most T steps;
with no horizon it reads a transparent machine exactly. _scan is the
package's one loop over an index range of programs: sweep,
complexity.min_index_map, halting_prob's curve and runtime_dist's tail sum
run on it. It slices a finite domain's kept hits, and runs any other machine
once per program, exact_run() or run(), after the enumeration cap; either
way it reads the (stop time, output) that haltlab.machine.observe() reads
for one program. A sweep's result is one plain record, HaltingHistory: two
index-ordered arrays in step, each halting program's offset within its
length and its stop time, each of the narrowest type of B, H, I and Q that
holds its bound: 2^N - 1, or the horizon. An exact sweep's times are a
list, which holds a table's stop time of any size. It keeps no program
strings; pairs() makes a program's string again only where it is read.

On the VM kinds _scan visits each length in core order. A program is
1^(2d) m c: d wrappers, a mode field m and a core c, and the modes 00, 01
and 10 all run c directly (docs/machine-isa.md). So depth by depth, for each
core c in ascending order, _scan runs 1^(2d) 00 c, 01 c and 10 c back to
back, then the programs that end inside a mode field: the pure kernel
answers the second and third from its last run, where index order puts them
2^(N-2d-2) programs apart. Equal cores give equal results and the lowest
mode block leads, so over a range from 1 or a length boundary the first
program seen for a result, and the first whose run raises, is the least
index: min_index_map relies on it. sweep restores index order once, after
the scan; a dispatcher with an infinite submachine runs in index order.

For a sweep with horizon T the associated product space is {0,1}^N x {1..T}
with the uniform measure 2^-N * 1/T; prob_exact and prob_by are measures of
"stops exactly at its recorded time" and "has stopped by the sampled time"
there, so they need a horizon. All probabilities are Fractions; nothing is
ever rounded.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, repeat
from typing import NamedTuple

from haltlab.errors import ConfigError, ResourceLimitError, UndefinedConditionalError
from haltlab.machine import MAX_BUDGET, Machine, PrefixFreeVM, ToyVM, exact_run, finite_domain, run
from haltlab.value import Value

ENUM_CAP_BITS = 24  # the longest program length an enumeration may reach
# the machine kinds that _scan visits in core order (module docstring)
_CORE_ORDERED = (ToyVM, PrefixFreeVM)


def check_enum_cap(length: int) -> None:
    if length > ENUM_CAP_BITS:
        raise ResourceLimitError(
            f"enumerating 2^{length} programs exceeds the cap of 2^{ENUM_CAP_BITS}"
        )


class HaltingHistory(NamedTuple):
    """Result of one sweep: the halting length-N programs in index order, as
    two arrays in step, each program's offset within its length and its stop
    time, each of the narrowest type for 2^N - 1 or the horizon. horizon
    None marks an exact sweep, whose times are a list."""

    length: int
    horizon: int | None
    offsets: array
    times: array | list  # a list when horizon is None

    @property
    def space_size(self) -> int:
        return 2**self.length

    def pairs(self, lo: int = 0, hi: int | None = None) -> Iterator[tuple[str, int]]:
        """(program, stop time) in index order for the times in [lo, hi), hi
        None for no upper end; only these pairs' strings are made."""
        top = 1 << self.length
        return (
            (bin(top | offset)[3:], t)
            for offset, t in zip(self.offsets, self.times)
            if lo <= t and (hi is None or t < hi)
        )

    def column(self, fill: object) -> Iterator[object]:
        """Each program's stop time in index order, fill where none was seen."""
        at = 0
        for offset, t in zip(self.offsets, self.times):
            yield from repeat(fill, offset - at)
            yield t
            at = offset + 1
        yield from repeat(fill, (1 << self.length) - at)


class PairListing(Value):
    """The pairs of several histories in turn, each one's below its cutoff
    (all when None), made anew on each pass; size is their number."""

    __slots__ = _fields = ("runs", "size")

    def __init__(self, runs: tuple[tuple[HaltingHistory, int | None], ...], size: int) -> None:
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "size", size)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return chain.from_iterable(history.pairs(0, cutoff) for history, cutoff in self.runs)


def all_programs(length: int) -> Iterator[str]:
    """The 2^length programs of one length in index order, made lazily: the
    codes of indices 2^length .. 2^(length+1) - 1 (haltlab.codec)."""
    return (bin(v)[3:] for v in range(2**length, 2 ** (length + 1)))


def _core_order(lo: int, hi: int) -> Iterator[Iterable[int]]:
    """Runs of indices, each a C-level iterator, whose chain is [lo, hi) in
    core order: a depth's mode blocks zipped over the cores they share."""
    for n in range(max(lo, 1).bit_length() - 1, max(hi - 1, 1).bit_length()):
        at = 1 << n  # the first index of length n not yet given
        for r in range(n - 2, -1, -2):  # core length r
            q = 1 << r
            bases = range(at, at + 3 * q, q)
            at += 3 * q
            # the cores of each mode block within [lo, hi)
            spans = [(b, min(max(lo - b, 0), q), min(max(hi - b, 0), q)) for b in bases]
            cuts = sorted({0, q}.union(*((s, e) for _, s, e in spans)))
            for x, y in zip(cuts, cuts[1:]):
                runs = [range(b + x, b + y) for b, s, e in spans if s <= x and y <= e]
                yield runs[0] if len(runs) == 1 else chain.from_iterable(zip(*runs))
        yield range(max(lo, at), min(hi, 2 << n))  # those that end inside a mode field


def _scan(machine: Machine, lo: int, hi: int, budget: int | None) -> Iterator[tuple]:
    """(index, (stop time, output)) of each index in [lo, hi) whose program
    is seen halting, as observe() reads one program: a finite domain's own
    items, bisected to [lo, hi) so that a scan costs O(log n + hits),
    within the budget, running nothing; else, past the enumeration cap on
    index hi - 1, one exact_run() per program or one run() within the
    budget. A VM runs in core order, each core's three mode programs back to
    back so that the pure kernel's last run answers the repeats; from 1 or a
    length boundary the least index of a result still comes first, as
    min_index_map needs. Other machines run in index order."""
    domain = finite_domain(machine)
    if domain is not None:  # (lo,) sorts before every item of index lo
        hits = domain[bisect_left(domain, (lo,)) : bisect_left(domain, (hi,))]
        yield from (item for item in hits if budget is None or item[1][0] <= budget)
        return
    check_enum_cap(max(0, (hi - 1).bit_length() - 1))
    core_ordered = type(machine) in _CORE_ORDERED
    order = chain.from_iterable(_core_order(lo, hi)) if core_ordered else range(lo, hi)
    if budget is None:
        for index in order:
            hit = exact_run(machine, bin(index)[3:])
            if hit is not None:
                yield index, hit
    else:
        for index in order:
            halted, stop, output = run(machine, bin(index)[3:], budget)
            if halted:
                yield index, (stop, output)


def _typecode(bound: int) -> str:
    """The narrowest array type of B, H, I and Q whose items hold 0..bound."""
    return next((c for c in "BHI" if bound >> 8 * array(c).itemsize == 0), "Q")


def sweep(machine: Machine, length: int, horizon: int | None) -> HaltingHistory:
    """Observe all 2^length programs, within horizon steps or exactly when
    horizon is None, and record their stop times in index order. A VM's hits
    come in core order; each depth's are put in index order once, after the
    scan, every third from the first, then the second, then the third. The
    programs that end inside a mode field come last and in index order."""
    if length < 0:
        raise ConfigError(f"length must be >= 0, got {length}")
    if horizon is not None and not 1 <= horizon <= MAX_BUDGET:
        raise ConfigError(f"horizon must be in [1, 2^64 - 1], got {horizon}")
    check_enum_cap(length)  # before 2^length is built
    top = 2**length
    offsets = array(_typecode(top - 1))
    times = [] if horizon is None else array(_typecode(horizon))
    for index, (stop, _) in _scan(machine, top, 2 * top, horizon):
        offsets.append(index - top)
        times.append(stop)
    if type(machine) in _CORE_ORDERED:
        # depth d ends at offset top - (top >> (2d + 2)), below every offset
        # of d + 1, so bisection finds it though no depth is sorted; its hits
        # come in triples, a core's three mode programs, which halt alike
        at = 0
        for d2 in range(2, length + 1, 2):
            end = bisect_left(offsets, top - (top >> d2), at)
            for column in (offsets, times):
                h = column[at:end]
                column[at:end] = h[0::3] + h[1::3] + h[2::3]
            at = end
    return HaltingHistory(length, horizon, offsets, times)


# ---------------------------------------------------------------------------
# product-space measures

def _horizon(history: HaltingHistory) -> int:
    if history.horizon is None:
        raise ConfigError("an exact sweep has no horizon, so it has no product space")
    return history.horizon


def prob_exact(history: HaltingHistory) -> Fraction:
    """Measure of {(p, t) : p stops exactly at t} in the product space."""
    return Fraction(len(history.times), history.space_size * _horizon(history))


def prob_by(history: HaltingHistory) -> Fraction:
    """Measure of {(p, t) : p has stopped by t} in the product space."""
    horizon = _horizon(history)
    weight = sum(horizon - t + 1 for t in history.times)
    return Fraction(weight, history.space_size * horizon)


def eventual_fraction(history: HaltingHistory) -> Fraction:
    """Fraction of programs observed halting within the horizon."""
    return Fraction(len(history.times), history.space_size)


class ConditionalReport(NamedTuple):
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
    stopped = sum(1 for t in history.times if t <= t0)
    survivors = history.space_size - stopped
    if survivors == 0:
        raise UndefinedConditionalError(
            f"every program stopped by t0={t0}; the conditional is undefined"
        )
    later = len(history.times) - stopped
    by_t1 = None
    if t1 is not None:
        by_t1 = Fraction(sum(1 for t in history.times if t0 < t <= t1), survivors)
    return ConditionalReport(
        t0=t0,
        t1=t1,
        survivors=survivors,
        eventual_given_not_by=Fraction(later, survivors),
        not_by_and_eventual=Fraction(later, history.space_size),
        by_t1_given_not_by=by_t1,
    )
