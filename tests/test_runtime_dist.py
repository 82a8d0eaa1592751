import math
from fractions import Fraction
import tracemalloc

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from haltlab import runtime_dist
from haltlab.errors import ConfigError, DegenerateDistributionError, ResourceLimitError
from haltlab.intervals import Interval
from haltlab.machine import TableMachine, is_transparent, load_machine, read_json
from haltlab.runtime_dist import (
    DYADIC,
    GeometricTableWeights,
    RuntimeDistribution,
    halting_series,
    induced_distribution,
    split_halting_set,
    tail_certificate,
    tail_threshold,
    weights_from_dict,
)

from conftest import FIXTURES, table_from_stops


# ---------------------------------------------------------------------------
# the normalizer series

def test_series_fixture_f_exact(fixture_f):
    # 2^-1/1 + 2^-2/2 = 5/8, computed from the table by hand
    interval = halting_series(fixture_f)
    assert interval.lo == interval.hi == Fraction(5, 8)


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
    # the budget rule is the one limit on an opaque precision, on both series
    with pytest.raises(ConfigError):
        halting_series(toy_vm, 17, budget=2**19 - 1)
    with pytest.raises(ConfigError):
        induced_distribution(toy_vm, 17, 2**19 - 1, weights_from_dict(FAST_WEIGHTS))
    assert halting_series(toy_vm, 17, budget=2**19).width < Fraction(1, 2**17)
    assert induced_distribution(toy_vm, 17, 2**19, weights_from_dict(FAST_WEIGHTS)).budget == 2**19


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
        dist = induced_distribution(fixture_f, weights=weights_from_dict(weights))
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


@settings(max_examples=100, deadline=None)
@given(
    source=st.sampled_from(
        [FIXTURES / "table1.json", FIXTURES / "fixture_f.json", "builtin:loop-free-vm",
         "builtin:toy-vm"]
    ),
    weights=st.sampled_from([None, "slow_tail_weights.json"]),
    start=st.integers(min_value=1, max_value=2**12),
)
def test_tail_mass_is_within_its_certificate(source, weights, start):
    """Each observed index adds at most its weight to the tail sum, and the
    weight tail bounds the rest, so the tail mass never passes the closed
    form: no cap is needed, and a finite domain's tail can be exactly 0."""
    machine = load_machine(source)
    budget = None if is_transparent(machine) else 4096
    table = DYADIC if weights is None else weights_from_dict(read_json(FIXTURES / weights, "w"))
    dist = induced_distribution(machine, budget=budget, weights=table)
    tail = dist.tail_mass(start)
    event("zero tail" if tail.hi == 0 else "positive tail")
    assert tail.hi <= tail_certificate(dist, start)


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
        user = induced_distribution(machine, budget=budget, weights=weights_from_dict(data))
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


def test_tail_threshold_is_least_up_to_the_weight_limit(table1, monkeypatch):
    """At ratio 999/1000 with a limit of 10^5 bits, T(0) .. T(5) are found and
    are the least horizons; T(6) would need a power past the limit, and it is
    refused before any power is built, by a message that names T(6)."""
    monkeypatch.setattr(runtime_dist, "WEIGHT_BIT_LIMIT", 100_000)
    data = {
        "kind": "user-table",
        "weights": [["1", "2"]],
        "tail_modulus": {"type": "geometric", "ratio": "999/1000"},
    }
    dist = induced_distribution(table1, weights=weights_from_dict(data))
    for k in range(0, 6):
        horizon = tail_threshold(dist, k)
        assert tail_certificate(dist, horizon) < Fraction(1, 2**k)
        assert tail_certificate(dist, horizon - 1) >= Fraction(1, 2**k)
    assert horizon <= 1 + 100_000 / math.log2(1000)
    built = []
    monkeypatch.setattr(Fraction, "__pow__", lambda *args: built.append(args))
    with pytest.raises(ResourceLimitError, match=r"^T\(6\) "):
        tail_threshold(dist, 6)
    assert built == []
    monkeypatch.undo()
    # the steps of one factor r stop at the limit too: 2^-100 fits 100 bits,
    # 2^-101 does not
    monkeypatch.setattr(runtime_dist, "WEIGHT_BIT_LIMIT", 100)
    assert runtime_dist.DYADIC.least_horizon(Fraction(3, 2**101)) == 101
    with pytest.raises(ResourceLimitError):
        runtime_dist.DYADIC.least_horizon(Fraction(1, 2**100))


@pytest.mark.parametrize("gap", [Fraction(1, 10**21), Fraction(1, 2**1100)])
def test_least_horizon_is_exact_next_to_one(gap):
    """A ratio and a bound within 10^-21, or within 2^-1100, of 1 keep their
    logarithms finite, and the horizon is exact on both sides of each power:
    a bound of r^e needs e + 1 tail terms, one just above r^e needs e."""
    r = 1 - gap
    weights = GeometricTableWeights((Fraction(1),), r)
    for e in range(2, 40):
        assert weights.least_horizon(r**e / gap) == 1 + e + 1
        assert weights.least_horizon((r**e + gap**3) / gap) == 1 + e


def test_long_program_weights_are_exact(toy_vm):
    """A 20-bit program's weight 2^-i, i about 1.9 million, enters the
    normalizer exactly. A power past WEIGHT_BIT_LIMIT bits is refused
    before it is built, in a weight, in a tail bound and in the mass of an
    index that halts; the mass of one that never halts is exactly 0, with
    no weight built, and so is the tail of a finite domain past its last
    index."""
    long = "11010010110100101101"
    table = table_from_stops({"0": 1, "10": 3, long: 5})
    expected = Fraction(1, 2**2) + Fraction(1, 2**6) / 3 + Fraction(1, 2 ** int("1" + long, 2)) / 5
    dist = induced_distribution(table)
    assert dist.normalizer == Interval.exact(expected)
    assert dist.mass(int("1" + long, 2)).lo == Fraction(1, 2 ** int("1" + long, 2)) / (5 * expected)
    limit = runtime_dist.WEIGHT_BIT_LIMIT
    assert runtime_dist.DYADIC.weight(limit + 1) == Fraction(1, 2 ** (limit + 1))
    assert dist.mass(2**40) == Interval.exact(0)
    assert dist.tail_mass(2**40) == Interval.exact(0)
    for refused in (
        lambda: runtime_dist.DYADIC.weight(limit + 2),
        lambda: runtime_dist.DYADIC.tail_bound(limit + 2),
        lambda: induced_distribution(toy_vm, 8, 4096).mass(2**40),
    ):
        with pytest.raises(ResourceLimitError):
            refused()


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
    split = split_halting_set(dist, 2, 6)
    assert split.residual_measure_hi < split.residual_bound == Fraction(1, 8)
    seen = dict(split.computable) | dict(split.residual)
    assert not (set(dict(split.computable)) & set(dict(split.residual)))
    # cross-check coverage against a fresh sweep at each length
    from haltlab.sweep import sweep

    expected = {}
    for n in range(1, 7):
        expected.update(sweep(toy_vm, n, 4096).pairs())
    assert seen == expected
    for program, stop in split.computable:
        assert stop < split.cutoffs[len(program)]
    for program, stop in split.residual:
        assert stop >= split.cutoffs[len(program)]


def test_split_holds_its_pairs_in_arrays(toy_vm):
    """The split keeps each length's stop times in two arrays of 8-byte
    entries, not as (str, int) tuples of about 127 bytes a pair: what it
    retains, per halting pair, stays far below that."""
    dist = induced_distribution(toy_vm, budget=4096)
    split_halting_set(dist, 4, 6)  # warm the imports
    tracemalloc.start()
    try:
        split = split_halting_set(dist, 4, 12)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pairs = len(split.computable) + len(split.residual)
    assert pairs == len(list(split.computable)) + len(split.residual) > 8000
    assert retained / pairs < 40


def per_length_threshold(dist, k, reach=None):
    """One T(k) search of its own, doubling from T = 1 and then bisecting:
    the oracle for the closed form. None once the doubling passes reach."""
    target = Fraction(1, 2**k)
    lo, hi = 0, 1
    while tail_certificate(dist, hi) >= target:
        if reach is not None and hi > reach:
            return None
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail_certificate(dist, mid) < target else (mid, hi)
    return hi


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=80),
    max_len=st.integers(min_value=1, max_value=12),
    weights=st.sampled_from([None, "dyadic_weights.json"]),
)
def test_split_cutoffs_equal_the_per_length_searches(table1, k, max_len, weights):
    if weights is None:
        dist = induced_distribution(table1)
    else:
        data = read_json(FIXTURES / weights, "weights")
        dist = induced_distribution(table1, weights=weights_from_dict(data))
    expected = {n: 2 ** per_length_threshold(dist, k + n + 2) for n in range(1, max_len + 1)}
    assert split_halting_set(dist, k, max_len).cutoffs == expected


# zeros are allowed in a weight table, except in its last place
WEIGHT = st.builds(Fraction, st.integers(0, 2**10), st.integers(1, 2**20))
LAST_WEIGHT = st.builds(Fraction, st.integers(1, 2**10), st.integers(1, 2**20))
DENOMINATOR = st.one_of(
    st.sampled_from([2, 3, 10, 1000, 99991]), st.integers(1, 64).map(lambda j: 2**j)
)


@settings(max_examples=300, deadline=None)
@given(
    prefix=st.tuples(st.lists(WEIGHT, max_size=7), LAST_WEIGHT).map(lambda t: (*t[0], t[1])),
    ratio=DENOMINATOR.flatmap(lambda d: st.integers(1, d - 1).map(lambda a: Fraction(a, d))),
    lo=st.builds(Fraction, st.integers(1, 2**20), st.integers(1, 2**20)),
    k=st.integers(min_value=0, max_value=90),
)
def test_closed_form_threshold_equals_the_search(prefix, ratio, lo, k):
    """Wherever the doubling search answers with powers of at most 2^17
    bits, the closed form gives its T."""
    weights = GeometricTableWeights(prefix, ratio)
    dist = RuntimeDistribution(None, weights, Interval.exact(lo), 8, None)
    reach = len(prefix) + 2**17 / math.log2(ratio.denominator)
    expected = per_length_threshold(dist, k, reach)
    event("answered" if expected is not None else "past reach")
    if expected is not None:
        assert tail_threshold(dist, k) == expected


def test_split_builds_about_two_powers_a_length_on_a_slow_tail(table1, monkeypatch):
    """At ratio 999/1000 T(k) grows by about 693 per k. The split finds the
    same cutoffs as one search per length, from at most two exact powers of
    the ratio per length."""
    weights = weights_from_dict(read_json(FIXTURES / "slow_tail_weights.json", "weights"))
    dist = induced_distribution(table1, weights=weights)
    expected = {n: 2 ** per_length_threshold(dist, n + 3) for n in range(1, 7)}
    powers = []
    power = GeometricTableWeights._power
    monkeypatch.setattr(
        GeometricTableWeights, "_power", lambda w, e: powers.append(e) or power(w, e)
    )
    assert split_halting_set(dist, 1, 6).cutoffs == expected
    assert 0 < len(powers) <= 2 * len(expected)


def test_split_with_nonempty_residual():
    from haltlab.codec import bits_of_index

    # "1" stops late enough to land past the cutoff, and the code of its stop
    # time is itself in the domain so the residual mass is strictly positive
    machine = table_from_stops({"0": 1, "1": 5000, bits_of_index(5000): 7})
    dist = induced_distribution(machine)
    split = split_halting_set(dist, 5, 1)
    assert split.cutoffs[1] <= 5000
    assert split.residual == (("1", 5000),)
    assert 0 < split.residual_measure_hi < split.residual_bound == Fraction(1, 64)
