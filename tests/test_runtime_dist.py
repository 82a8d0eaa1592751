import math
from fractions import Fraction

import pytest

from haltlab import runtime_dist
from haltlab.errors import ConfigError, DegenerateDistributionError, ResourceLimitError
from haltlab.intervals import Interval
from haltlab.machine import TableMachine
from haltlab.runtime_dist import (
    GeometricTableWeights,
    halting_series,
    induced_distribution,
    split_halting_set,
    tail_certificate,
    tail_threshold,
    user_table_distribution,
    weights_from_dict,
)

from conftest import table_from_stops


# ---------------------------------------------------------------------------
# the normalizer series

def test_series_fixture_f_exact(fixture_f):
    # 2^-1/1 + 2^-2/2 = 5/8, computed from the table by hand
    interval = halting_series(fixture_f)
    assert interval.is_point and interval.lo == Fraction(5, 8)


def test_series_independent_sum(table1):
    expected = sum(
        Fraction(1, 2 ** int("1" + p, 2)) / t for p, t, _ in table1.entries
    )
    assert halting_series(table1).lo == expected


def test_series_width_and_nesting_transparent(loop_free_vm):
    previous = None
    for precision in range(1, 31):
        interval = halting_series(loop_free_vm, precision)
        assert interval.width < Fraction(1, 2**precision)
        if previous is not None:
            assert previous.lo <= interval.lo and interval.hi <= previous.hi
        previous = interval


def test_series_width_and_nesting_opaque(toy_vm):
    previous = None
    for precision in range(1, 17):
        budget = 2 ** (precision + 2)
        interval = halting_series(toy_vm, precision, budget=budget)
        assert interval.width < Fraction(1, 2**precision)
        if previous is not None:
            assert previous.lo <= interval.lo and interval.hi <= previous.hi
        previous = interval


def test_series_budget_rules(toy_vm, fixture_f):
    with pytest.raises(ConfigError):
        halting_series(fixture_f, 8, budget=100)  # transparent takes none
    with pytest.raises(ConfigError):
        halting_series(toy_vm, 8, budget=100)  # below 2^(8+2)
    with pytest.raises(ConfigError) as refusal:
        halting_series(toy_vm, 17, budget=2**19)  # over the opaque precision cap
    assert "force" not in str(refusal.value)  # threshold, decide and decompose have none
    assert halting_series(toy_vm, 17, budget=2**19, force=True).width < Fraction(1, 2**17)


# ---------------------------------------------------------------------------
# distributions and masses

def test_fixture_f_masses(fixture_f):
    dist = induced_distribution(fixture_f)
    assert dist.mass(1).lo == Fraction(4, 5)
    assert dist.mass(2).lo == Fraction(1, 5)
    assert dist.mass(3).lo == Fraction(0)
    assert dist.tail_mass(1).lo == 1  # finite transparent: the masses sum exactly


def test_degenerate_distribution():
    empty = TableMachine(entries=())
    with pytest.raises(DegenerateDistributionError):
        induced_distribution(empty)


def test_degenerate_prefix_free_at_low_precision(prefix_free_vm):
    # no prefix-free program with index <= 10 halts, so 8 bits of precision
    # see an empty domain; 14 bits reach index 16 = "0000" which halts
    with pytest.raises(DegenerateDistributionError):
        induced_distribution(prefix_free_vm, 8, budget=2**10)
    dist = induced_distribution(prefix_free_vm, 14, budget=2**16)
    assert dist.normalizer.lo > 0


# weights 2^-i, and weights that decay as 16^-i past 1/2, where a closed form
# from the dyadic case overshoots the least horizon
FAST_WEIGHTS = {
    "kind": "user-table",
    "weights": [["1", "2"]],
    "tail_modulus": {"type": "geometric", "ratio": "1/16"},
}


@pytest.mark.parametrize(
    "weights, at_k4", [(None, 6), (FAST_WEIGHTS, 3)], ids=["induced", "fast-table"]
)
def test_tail_threshold_is_minimal_and_monotone(fixture_f, weights, at_k4):
    if weights is None:
        dist = induced_distribution(fixture_f)
    else:
        dist = user_table_distribution(fixture_f, weights)
    previous = 1
    for k in range(0, 41):
        b = tail_threshold(dist, k)
        target = Fraction(1, 2**k)
        assert tail_certificate(dist, b) < target
        assert b == 1 or tail_certificate(dist, b - 1) >= target
        assert b >= previous
        previous = b
    assert tail_threshold(dist, 4) == at_k4


def test_fixture_f_thresholds(fixture_f):
    dist = induced_distribution(fixture_f)
    assert tail_threshold(dist, 3) == 5
    for k in range(0, 21):
        horizon = tail_threshold(dist, k)
        assert horizon == k + 2
        assert tail_certificate(dist, horizon) < Fraction(1, 2**k)
        # exact tail mass is below the certificate
        assert dist.tail_mass(horizon).hi < Fraction(1, 2**k)


def test_threshold_knife_edge_bump():
    # normalizer exactly 1/2 puts the certificate at T = k + 2 exactly on
    # the target, so the strict bound first holds at k + 3
    dist = induced_distribution(table_from_stops({"": 1}))
    assert dist.normalizer.lo == Fraction(1, 2)
    for k in range(0, 10):
        horizon = tail_threshold(dist, k)
        assert horizon == k + 3
        assert tail_certificate(dist, horizon) < Fraction(1, 2**k)
        assert tail_certificate(dist, horizon - 1) >= Fraction(1, 2**k)


def test_opaque_tail_mass_certified(toy_vm):
    dist = induced_distribution(toy_vm, budget=4096)
    for k in range(1, 21):
        horizon = tail_threshold(dist, k)
        assert dist.tail_mass(horizon).hi < Fraction(1, 2**k)


# ---------------------------------------------------------------------------
# user-table weights

def test_user_table_matches_induced_when_dyadic(fixture_f, toy_vm):
    """A listed dyadic table and the default weights give the same
    certificates, on a finite table and on an opaque machine; the default is
    also the closed form w(i) = 2^-i with the tail 2^-(start-1), 1 below 2."""
    data = {
        "kind": "user-table",
        "weights": [["1", "2"], ["1", "4"], ["1", "8"]],
        "tail_modulus": {"type": "geometric", "ratio": "1/2"},
    }
    for machine, budget in ((fixture_f, None), (toy_vm, 4096)):
        user = user_table_distribution(machine, data, budget=budget)
        induced = induced_distribution(machine, budget=budget)
        assert user.normalizer == induced.normalizer
        for i in range(1, 12):
            assert user.weights.weight(i) == induced.weights.weight(i) == Fraction(1, 2**i)
            assert user.mass(i) == induced.mass(i)
        for start in range(0, 65):
            closed_form = Fraction(1, 2 ** (start - 1)) if start >= 1 else 1
            assert user.weights.tail_bound(start) == induced.weights.tail_bound(start) == closed_form
        for k in range(0, 21):
            assert tail_threshold(user, k) == tail_threshold(induced, k)


def test_tail_threshold_stops_doubling_at_the_power_limit(table1, monkeypatch):
    """At ratio 999/1000 with a limit of 10^5 bits, T(4) and T(5) lie past the
    doubling step 8192 but within horizon_cap, so they are found; T(6) lies
    past the cap and is refused."""
    monkeypatch.setattr(runtime_dist, "POWER_BIT_LIMIT", 100_000)
    data = {
        "kind": "user-table",
        "weights": [["1", "2"]],
        "tail_modulus": {"type": "geometric", "ratio": "999/1000"},
    }
    dist = user_table_distribution(table1, data)
    cap = dist.weights.horizon_cap
    assert cap == 1 + int(100_000 / math.log2(1000)) == 10035
    for k in range(0, 6):
        horizon = tail_threshold(dist, k)
        assert tail_certificate(dist, horizon) < Fraction(1, 2**k)
        assert tail_certificate(dist, horizon - 1) >= Fraction(1, 2**k)
        assert horizon <= cap and (k < 4 or horizon > 8192)
    assert tail_certificate(dist, cap) >= Fraction(1, 2**6)
    with pytest.raises(ResourceLimitError):
        tail_threshold(dist, 6)


def test_long_program_weights_are_exact():
    """Only the T(k) search has a power limit: a 20-bit program's weight
    2^-i, i past 2^20, enters the normalizer exactly."""
    long = "11010010110100101101"
    table = table_from_stops({"0": 1, "10": 3, long: 5})
    expected = Fraction(1, 2**2) + Fraction(1, 2**6) / 3 + Fraction(1, 2 ** int("1" + long, 2)) / 5
    dist = induced_distribution(table)
    assert dist.normalizer == Interval.exact(expected)
    assert dist.mass(int("1" + long, 2)).lo == Fraction(1, 2 ** int("1" + long, 2)) / (5 * expected)


def test_geometric_tail_identity():
    w = GeometricTableWeights(prefix=(Fraction(1, 3), Fraction(1, 9)), ratio=Fraction(1, 3))
    # continuation past the prefix: w(3) = 1/27, w(4) = 1/81, ...
    assert w.weight(3) == Fraction(1, 27) and w.weight(4) == Fraction(1, 81)
    # the tail bound telescopes exactly: tail(n) = w(n) + ... + w(M) + tail(M+1)
    for n in range(1, 8):
        for m in range(n, 12):
            partial = sum(w.weight(i) for i in range(n, m + 1))
            assert w.tail_bound(n) == partial + w.tail_bound(m + 1)
    # and on the pure geometric part it is the exact series value
    assert w.tail_bound(3) == Fraction(1, 18)
    assert w.tail_bound(1) == Fraction(1, 2)


def test_weight_file_validation():
    good = {
        "kind": "user-table",
        "weights": [["1", "2"]],
        "tail_modulus": {"type": "geometric", "ratio": "1/2"},
    }
    assert weights_from_dict(good).weight(1) == Fraction(1, 2)
    for broken in [
        {**good, "kind": "table"},
        {**good, "weights": []},
        {**good, "weights": [["1"]]},
        {**good, "tail_modulus": {"type": "linear"}},
        {**good, "tail_modulus": {"type": "geometric", "ratio": "3/2"}},
    ]:
        with pytest.raises(ConfigError):
            weights_from_dict(broken)


# ---------------------------------------------------------------------------
# the computable/rare split

def test_split_covers_and_respects_cutoffs(toy_vm):
    dist = induced_distribution(toy_vm, budget=4096)
    split = split_halting_set(toy_vm, dist, 2, 6, budget=4096)
    assert split.residual_measure_hi < split.residual_bound == Fraction(1, 8)
    seen = dict(split.computable) | dict(split.residual)
    assert not (set(dict(split.computable)) & set(dict(split.residual)))
    # cross-check coverage against a fresh sweep at each length
    from haltlab.sweep import sweep

    expected = {}
    for n in range(1, 7):
        expected.update(sweep(toy_vm, n, 4096).stops)
    assert seen == expected
    for program, stop in split.computable:
        assert stop < split.cutoffs[len(program)]
    for program, stop in split.residual:
        assert stop >= split.cutoffs[len(program)]


def test_split_with_nonempty_residual():
    from haltlab.codec import bits_of_index

    # "1" stops late enough to land past the cutoff, and the code of its stop
    # time is itself in the domain so the residual mass is strictly positive
    machine = table_from_stops({"0": 1, "1": 5000, bits_of_index(5000): 7})
    dist = induced_distribution(machine)
    split = split_halting_set(machine, dist, 5, 1)
    assert split.cutoffs[1] <= 5000
    assert split.residual == (("1", 5000),)
    assert 0 < split.residual_measure_hi < split.residual_bound == Fraction(1, 64)


def test_split_budget_rules(toy_vm, fixture_f):
    dist = induced_distribution(fixture_f)
    with pytest.raises(ConfigError):
        split_halting_set(fixture_f, dist, 2, 2, budget=10)
    opaque_dist = induced_distribution(toy_vm, budget=4096)
    with pytest.raises(ConfigError):
        split_halting_set(toy_vm, opaque_dist, 2, 2)
