from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from haltlab.codec import index_of_bits
from haltlab.errors import ConfigError, ResourceLimitError, UndefinedConditionalError
from haltlab.machine import exact_run, machine_from_dict
from haltlab.sweep import (
    ENUM_CAP_ENV,
    all_programs,
    conditional_probs,
    eventual_fraction,
    history_to_csv,
    history_to_matrix,
    prob_by,
    prob_exact,
    sweep,
)

from conftest import table_from_stops


@pytest.fixture(scope="module")
def history1(table1):
    return sweep(table1, 3, 17)


def test_recorded_stops(history1):
    assert history1.stops == {"000": 1, "010": 15, "011": 8, "100": 14, "110": 1, "111": 16}


def test_product_space_measures(history1):
    # #stops * 2^-3 / 17 and sum of (17 - t + 1) * 2^-3 / 17
    assert prob_exact(history1) == Fraction(6, 136)
    assert prob_by(history1) == Fraction(53, 136)
    assert eventual_fraction(history1) == Fraction(6, 8)


def test_conditional_fractions(history1):
    report = conditional_probs(history1, 5, 8)
    assert report.survivors == 6
    assert report.not_by_and_eventual == Fraction(1, 2)
    assert report.eventual_given_not_by == Fraction(2, 3)
    assert report.by_t1_given_not_by == Fraction(1, 6)


def test_conditional_validation(history1):
    with pytest.raises(ConfigError):
        conditional_probs(history1, 18)
    with pytest.raises(ConfigError):
        conditional_probs(history1, 5, 5)
    with pytest.raises(ConfigError):
        conditional_probs(history1, 5, 100)


def test_conditional_undefined_when_no_survivors():
    machine = machine_from_dict(
        {
            "kind": "table",
            "entries": [
                {"program": "0", "stop_time": 1},
                {"program": "1", "stop_time": 2},
            ],
        }
    )
    history = sweep(machine, 1, 10)
    with pytest.raises(UndefinedConditionalError):
        conditional_probs(history, 2)
    # the error is still a config error for exit-code purposes
    assert issubclass(UndefinedConditionalError, ConfigError)


# a small strategy for random finite tables over 3-bit programs
tables = st.dictionaries(
    st.sampled_from([format(v, "03b") for v in range(8)]),
    st.integers(min_value=1, max_value=40),
    max_size=8,
).map(table_from_stops)


@settings(max_examples=80)
@given(tables, st.integers(min_value=1, max_value=48))
def test_measure_bounds_hold(machine, horizon):
    """prob_exact less or equal 1/T and prob_by less or equal 1, any table."""
    history = sweep(machine, 3, horizon)
    assert prob_exact(history) <= Fraction(1, horizon)
    assert prob_by(history) <= 1
    # and the by-measure dominates the exact one
    assert prob_by(history) >= prob_exact(history)


def test_stops_are_in_index_order(toy_vm, prefix_free_vm, table1):
    for machine, length in ((toy_vm, 8), (prefix_free_vm, 8), (table1, 3)):
        programs = list(sweep(machine, length, 512).stops)
        assert programs == sorted(programs, key=index_of_bits)


@pytest.mark.parametrize(
    "name", ["loop_free_vm", "prefix_free_loop_free_vm", "table1", "fixture_f"]
)
def test_exact_sweep_matches_exact_run(name, request):
    machine = request.getfixturevalue(name)
    for n in range(11):
        history = sweep(machine, n, None)
        assert history.horizon is None
        expected = {}
        for program in all_programs(n):
            hit = exact_run(machine, program)
            if hit is not None:
                expected[program] = hit[0]
        assert list(history.stops.items()) == list(expected.items())


def test_exact_sweep_measures(loop_free_vm):
    history = sweep(loop_free_vm, 3, None)
    for measure in (prob_exact, prob_by, history_to_matrix, lambda h: conditional_probs(h, 1)):
        with pytest.raises(ConfigError):
            measure(history)  # no horizon, so no product space
    assert history_to_csv(history).count("RUNNING") == 0
    # stops seen within a budget persist verbatim in the exact sweep
    budgeted = sweep(loop_free_vm, 3, 2)
    assert budgeted.stops.items() <= history.stops.items()


def test_budget_extension(toy_vm):
    small = sweep(toy_vm, 6, 8)
    large = sweep(toy_vm, 6, 4096)
    assert small.stops.items() <= large.stops.items()
    assert len(large.stops) >= len(small.stops)


def test_enum_cap_refuses(monkeypatch, toy_vm):
    monkeypatch.setenv(ENUM_CAP_ENV, "6")
    with pytest.raises(ResourceLimitError):
        sweep(toy_vm, 7, 10)
    monkeypatch.setenv(ENUM_CAP_ENV, "not-a-number")
    with pytest.raises(ConfigError):
        sweep(toy_vm, 3, 10)


def test_enum_cap_refuses_before_any_sweep(monkeypatch, toy_vm, table1):
    """The multi-length censuses refuse a length past the cap before they
    sweep the shorter ones."""
    from haltlab import density, halting_prob, runtime_dist

    swept = []
    for module in (density, halting_prob, runtime_dist):
        monkeypatch.setattr(module, "sweep", lambda *args: swept.append(args) or sweep(*args))
    monkeypatch.setenv(ENUM_CAP_ENV, "6")
    dist = runtime_dist.induced_distribution(toy_vm, budget=4096)
    for census in (
        lambda: runtime_dist.split_halting_set(toy_vm, dist, 2, 7, budget=4096),
        lambda: density.exponential_stop_density(toy_vm, 7, 2**19, budget=4096),
        lambda: halting_prob.domain_prob_curve(toy_vm, 7, 4096),
    ):
        with pytest.raises(ResourceLimitError):
            census()
        assert swept == []
    # lengths whose late stops lie past the horizon are not swept, so not refused
    assert density.exponential_stop_density(table1, 30, 2**12).holds
    assert max(length for _, length, _ in swept) == 3


def test_csv_golden(fixture_f):
    history = sweep(fixture_f, 1, 5)
    assert history_to_csv(history) == "program,stop_time\n0,2\n1,RUNNING\n"


def test_matrix_golden(fixture_f):
    history = sweep(fixture_f, 1, 3)
    assert history_to_matrix(history) == {
        "length": 1,
        "horizon": 3,
        "times": [1, 2, 3],
        "rows": [
            {"program": "0", "cells": ["", "h", "h"]},
            {"program": "1", "cells": ["", "", ""]},
        ],
    }
