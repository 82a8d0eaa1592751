"""One oracle for every enumeration strategy.

Each strategy below reads every census machine over the census range and
must give what the census fixture (tests/conftest.py) gives, filtered to
the strategy's budget or horizon. A new way of enumerating programs is one
more entry of STRATEGIES.
"""

from fractions import Fraction
import importlib

import pytest

from haltlab.complexity import min_index_map
from haltlab.halting_prob import domain_prob_curve
from haltlab.intervals import Interval
from haltlab.machine import finite_domain
from haltlab.runtime_dist import DYADIC, _tail_sum, halting_series
from haltlab.sweep import sweep

from conftest import CENSUS_BITS, assert_stops_equal, mode_block_bases

TOP = 2**CENSUS_BITS  # one past the census's last index
# haltlab.sweep is the function; _scan is read from the module at each call,
# so that a patched _scan is the one checked
sweep_module = importlib.import_module("haltlab.sweep")


def check_scan(census, name):
    """_scan between each two neighbouring cuts of the census: the length
    boundaries and both sides of every mode block's first index; and from 1
    to 2^11, exactly on a transparent machine, at budgets 1, 5 and 64 on an
    opaque one."""
    machine, recorded = census.machines[name]
    bases = (b for n in range(CENSUS_BITS) for b in mode_block_bases(n))
    cuts = sorted({TOP}.union(*((b - 1, b, b + 1) for b in bases)) - {0})
    for lo, hi in zip(cuts, cuts[1:]):
        got = sorted(sweep_module._scan(machine, lo, hi, recorded))
        assert got == census.scan(name, lo, hi, recorded), (lo, hi)
    for budget in [None] if recorded is None else [1, 5, 64]:
        expected = census.scan(name, 1, 2**11, budget)
        assert expected
        assert sorted(sweep_module._scan(machine, 1, 2**11, budget)) == expected


def check_sweep(census, name):
    """sweep of every length, at the record's budget and, on an opaque
    machine, at a horizon that cuts a length's stop times in two: a toy_vm
    program of length n >= 4 stops by step n - 1, if at all."""
    machine, recorded = census.machines[name]
    for length in range(CENSUS_BITS):
        for horizon in [None] if recorded is None else [recorded, 1 + length // 2]:
            assert_stops_equal(sweep(machine, length, horizon), census.stops(name, length, horizon))


def check_domain_prob_curve(census, name):
    machine, recorded = census.machines[name]
    curve = domain_prob_curve(machine, CENSUS_BITS - 1, recorded)
    assert [(p.length, p.halting, p.exact) for p in curve.points] == [
        (n, len(census.scan(name, 2**n, 2 ** (n + 1), recorded)), recorded is None)
        for n in range(1, CENSUS_BITS)
    ]


def check_min_index_map(census, name):
    """The least index of each output over the whole census."""
    machine, recorded = census.machines[name]
    expected = {}
    for index, (_, output) in census.scan(name, 1, TOP, recorded):
        expected.setdefault(output, index)
    min_index_map.cache_clear()
    try:
        assert min_index_map(machine, TOP - 1, recorded) == expected
    finally:
        min_index_map.cache_clear()


def series_sum(census, name, start, count):
    """The enclosure of the dyadic series from start on, term by term: a
    halting index of [start, start + count) adds w(i)/t_i, one still running
    after the budget adds w(i)/budget of slack, and the weight tail from
    start + count bounds the rest. A finite domain, which the census holds
    whole, gives the exact sum of its terms."""
    machine, recorded = census.machines[name]
    if finite_domain(machine) is not None:
        terms = census.scan(name, start, TOP, None)
        assert list(finite_domain(machine)) == census.scan(name, 1, TOP, None)
        return Interval.exact(sum((DYADIC.weight(i) / t for i, (t, _) in terms), Fraction(0)))
    hits = dict(census.scan(name, start, start + count, recorded))
    total = slack = Fraction(0)
    for i in range(start, start + count):
        if i in hits:
            total += DYADIC.weight(i) / hits[i][0]
        elif recorded is not None:
            slack += DYADIC.weight(i) / recorded
    return Interval(total, total + slack + DYADIC.tail_bound(start + count))


def check_halting_series(census, name):
    """halting_series at precisions 1..10, whose precision + 2 terms a
    budget of 4096 steps certifies, and 16 terms of _tail_sum from each
    length boundary."""
    machine, recorded = census.machines[name]
    for precision in range(1, 11):
        assert halting_series(machine, precision, recorded) == series_sum(
            census, name, 1, precision + 2
        )
    for n in range(CENSUS_BITS - 1):
        assert _tail_sum(machine, DYADIC, 2**n, 16, recorded) == series_sum(census, name, 2**n, 16)


STRATEGIES = {
    "scan": check_scan,
    "sweep": check_sweep,
    "domain_prob_curve": check_domain_prob_curve,
    "min_index_map": check_min_index_map,
    "halting_series": check_halting_series,
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_strategy_reads_as_the_census(kernel, census, strategy):
    for name in census.machines:
        STRATEGIES[strategy](census, name)


def drop_the_last_index_of_each_length(scan):
    """A _scan that loses the index 2^(n+1) - 1, program 1^n, of each length n."""
    return lambda *args: ((i, hit) for i, hit in scan(*args) if i & (i + 1))


@pytest.mark.parametrize("strategy", ["scan", "sweep"])
def test_the_census_sees_a_scan_that_drops_an_index(monkeypatch, census, strategy):
    """Every program 1^n halts on toy_vm, by step n // 2 + 1, so a _scan
    that drops them reads otherwise than the census."""
    monkeypatch.setattr(sweep_module, "_scan", drop_the_last_index_of_each_length(sweep_module._scan))
    with pytest.raises(AssertionError):
        STRATEGIES[strategy](census, "toy_vm")
