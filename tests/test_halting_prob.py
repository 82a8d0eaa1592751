import tracemalloc
from fractions import Fraction

import pytest

from haltlab.errors import ConfigError
from haltlab import halting_prob
from haltlab.halting_prob import domain_prob_curve
from haltlab.machine import DEFAULT_OUTPUT_CAP, LOOP_FREE_STEP_CAP
from haltlab.sweep import ENUM_CAP_BITS

from oracles.census import halting_counts, kraft_limit, run_bounds


def test_kraft_weight_below_one_on_prefix_free(prefix_free_loop_free_vm):
    curve = domain_prob_curve(prefix_free_loop_free_vm, 12)
    kraft = sum((p.fraction for p in curve.points), Fraction(0))
    assert 0 < kraft < 1
    assert all(p.exact for p in curve.points)


def test_prefix_free_loop_free_census_matches_the_closed_form(prefix_free_loop_free_vm):
    """The halting counts per length follow the parse recurrence of
    tests/oracles/census.py, and their partial Kraft sums climb towards its
    generating-function limit 64/65. Every exact run completes, so no program
    of these lengths hits the output or the step cap."""
    curve = domain_prob_curve(prefix_free_loop_free_vm, 16)
    counts = [p.halting for p in curve.points]
    assert counts == halting_counts(16)[1:]
    assert counts == [0, 0, 0, 3, 3, 6, 9, 18, 30, 54, 93, 165, 285, 498, 867, 1515]
    assert kraft_limit() == Fraction(64, 65)
    partial = Fraction(0)
    for point in curve.points:
        previous, partial = partial, partial + point.fraction
        assert type(partial) is Fraction
        assert partial > previous or point.halting == 0
    assert 0 < partial < Fraction(64, 65)


def test_census_partial_kraft_sum_meets_its_limit():
    """The recurrence and the generating function agree without a run: the
    oracle's own partial Kraft sum to N = 400 lies within 2^-78 below 64/65
    (the gap is about 2^-78.6)."""
    partial = sum(
        (Fraction(h, 2**n) for n, h in enumerate(halting_counts(400))), Fraction(0)
    )
    limit = kraft_limit()
    assert limit == Fraction(64, 65)
    assert limit - Fraction(1, 2**78) < partial < limit


def test_no_enumerable_loop_free_program_reaches_a_cap(census):
    """By run_bounds' search over the word lengths, no loop-free program of at
    most ENUM_CAP_BITS bits, wrappers included, runs
    LOOP_FREE_STEP_CAP steps or emits DEFAULT_OUTPUT_CAP bits: at 24 bits a
    run takes at most 47 steps and emits at most 26 bits. The bounds are the
    exact maxima of an exhaustive run at every length up to 12, and they first
    reach the caps at 101 (output) and 114 (steps) bits. The enumeration cap
    is a constant, so the bound holds for every run."""
    bounds = run_bounds(120)
    assert bounds[ENUM_CAP_BITS] == (47, 26)
    for steps, out in bounds[: ENUM_CAP_BITS + 1]:
        assert steps < LOOP_FREE_STEP_CAP and out < DEFAULT_OUTPUT_CAP
    assert min(n for n, (_, out) in enumerate(bounds) if out >= DEFAULT_OUTPUT_CAP) == 101
    assert min(n for n, (steps, _) in enumerate(bounds) if steps >= LOOP_FREE_STEP_CAP) == 114
    for n in range(13):
        runs = [hit for _, hit in census.scan("loop_free_vm", 2**n, 2 ** (n + 1), None)]
        assert len(runs) == 2**n
        assert (max(s for s, _ in runs), max(len(o) for _, o in runs)) == bounds[n], n


def test_total_shortcut_matches_a_real_count(monkeypatch, loop_free_vm, census):
    """Every program of the loop-free plain VM halts, so its curve runs none
    of them, and the 2^N it answers is what a scan counts."""
    monkeypatch.setattr(halting_prob, "_scan", lambda *args: pytest.fail("the shortcut scanned"))
    curve = domain_prob_curve(loop_free_vm, 8)
    for point in curve.points:
        n = point.length
        counted = len(census.scan("loop_free_vm", 2**n, 2 ** (n + 1), None))
        assert point.halting == counted == point.total
        assert point.exact


def test_opaque_points_are_lower_bounds(toy_vm, prefix_free_vm):
    for machine in (toy_vm, prefix_free_vm):
        curve = domain_prob_curve(machine, 6, budget=256)
        assert not any(p.exact for p in curve.points)
        assert all(0 <= p.halting <= p.total == 2**p.length for p in curve.points)


def test_curve_on_a_finite_table(table1):
    curve = domain_prob_curve(table1, 4)
    assert [p.length for p in curve.points] == [1, 2, 3, 4]
    assert [p.fraction for p in curve.points] == [0, 0, Fraction(3, 4), 0]


def test_budget_policy(toy_vm, table1):
    with pytest.raises(ConfigError):
        domain_prob_curve(toy_vm, 3)
    with pytest.raises(ConfigError):
        domain_prob_curve(toy_vm, 3, budget=0)
    with pytest.raises(ConfigError):
        domain_prob_curve(table1, 3, budget=10)
    with pytest.raises(ConfigError):
        domain_prob_curve(table1, 0)


def test_curve_counts_without_keeping_stop_times(toy_vm):
    # 4,087 of the 2^12 programs of the last length halt; a
    # record of their stop times alone would take tens of KiB
    domain_prob_curve(toy_vm, 2, 4096)
    tracemalloc.start()
    try:
        curve = domain_prob_curve(toy_vm, 12, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.points[-1].halting == 4087
    assert peak < 16 * 1024
