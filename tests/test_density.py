from fractions import Fraction
import importlib

import pytest

from haltlab.codec import bits_of_index
from haltlab.complexity import min_index_map, short_index_cap
from haltlab.density import (
    STRATA_LIMIT,
    DensityReport,
    density_report,
    density_with_margin,
    exclusion_report,
    exclusion_threshold,
    power_gap_holds,
    required_horizon,
    stop_code_violations,
    stratum_average,
    stratum_average_bound,
)
from haltlab.errors import ConfigError, ResourceLimitError
from haltlab.machine import Dispatcher, TableMachine, finite_domain, load_machine, timed_table
from haltlab.value import Value

from conftest import FIXTURES, table_from_stops


def late_stop_table():
    """Stop times chosen to exceed the exponential exclusion threshold."""
    return table_from_stops({"00": 600, "01": 2048, "10": 3000})


# ---------------------------------------------------------------------------
# the stratum average lemma

def test_stratum_known_values():
    assert stratum_average(3, 1) == Fraction(5, 6)
    assert stratum_average(3, 2) == Fraction(49, 90)


def test_stratum_grid_inequality_and_recurrence():
    """Strict bound and the exact one-step recurrence, full grid."""
    for m in range(3, 41):
        previous = None
        for s in range(1, 26):
            x = stratum_average(m, s)
            assert x < stratum_average_bound(m, s) == Fraction(5, m + s - 1)
            if previous is not None:
                # x_{s+1} = ((2^s - 1) x_s + 2^(s+1)/(m+s+1)) / (2^(s+1) - 1)
                lifted = ((2 ** (s - 1) - 1) * previous + Fraction(2**s, m + s)) / (
                    2**s - 1
                )
                assert x == lifted
            previous = x


def test_stratum_validation():
    with pytest.raises(ConfigError):
        stratum_average(0, 1)
    with pytest.raises(ConfigError):
        stratum_average_bound(3, 0)
    # past its limit it refuses before it sums a term
    for s in (STRATA_LIMIT + 1, 10**12):
        with pytest.raises(ResourceLimitError):
            stratum_average(1, s)


# ---------------------------------------------------------------------------
# the power gap

def test_power_gap_grid():
    """The verdict, read from bit lengths, is 2^len > 2^n * len, len = |code(t)|,
    at t = 2^(2n-1) and one bit longer; one bit shorter is refused."""
    for n in range(4, 41):
        start = 2 ** (2 * n - 1)
        for t in [start, start + 1, 2 * start, 17 * start + 5, start**2]:
            length = len(bits_of_index(t))
            assert power_gap_holds(n, t) is (2**length > 2**n * length) is True
        with pytest.raises(ConfigError):
            power_gap_holds(n, start - 1)


def test_power_gap_preconditions():
    with pytest.raises(ConfigError):
        power_gap_holds(3, 2**40)
    with pytest.raises(ConfigError):
        power_gap_holds(4, 2**7 - 1)
    # the bound 2^(2n-1) has more than 4,300 digits from n = 7143 on; it is
    # compared by bit length and never printed in decimal
    for n, t in [(7143, 5), (10**12, 5), (4, -(2**20))]:
        with pytest.raises(ConfigError):
            power_gap_holds(n, t)


def test_power_gap_fails_below_precondition():
    # n = 4, t = 16: len(bin 16) = 4, and 2^4 = 16 < 2^4 * 4; the precondition
    # t >= 2^7 is doing real work
    t = 16
    length = len(bits_of_index(t))
    assert not 2**length > 2**4 * length


# ---------------------------------------------------------------------------
# exclusion reports

def test_exclusion_threshold_exponent():
    assert exclusion_threshold(2) == 2**9
    assert exclusion_threshold(6) == 2**17


def test_exclusions_on_fixtures(table1, fixture_f):
    for machine in (table1, fixture_f):
        for n in range(2, 4):
            report = exclusion_report(machine, (n,))
            assert report.holds and not report.candidates


def test_exclusions_on_toy_vm(toy_vm):
    # at length 0 a late stop's cap, 6, is below the index 7 of the wrapper "11"
    for n in range(7):
        report = exclusion_report(toy_vm, (n,), budget=2 ** (2 * n + 5) + 2**12)
        assert report.holds
        assert not report.unresolved
        # the plain VM never runs past the threshold, so this holds vacuously
        assert not report.candidates


def test_exclusion_with_real_candidates():
    """A dispatcher that registers the timed twin of a late-stopping table
    satisfies the exclusion with actual over-threshold candidates."""
    table = late_stop_table()
    u = Dispatcher((table, timed_table(table)))
    report = exclusion_report(u, (3,))  # dispatcher programs are '1' + 2 bits
    # '00' stops at 600, below the length-3 threshold 2^11; the other two qualify
    assert len(report.candidates) == 2
    assert report.holds and not report.violations


def test_exclusion_violated_by_bare_table():
    """Without closure under timing the same stop times are provably random,
    which is exactly the failure mode the report is meant to surface."""
    report = exclusion_report(late_stop_table(), (2,))
    assert len(report.candidates) == 3
    assert not report.holds
    assert report.violations == report.candidates


# ---------------------------------------------------------------------------
# window density

def test_density_window_transparent(loop_free_vm):
    report = density_report(loop_free_vm, 2, 2**12)
    assert report.m == 9 and report.s == 3
    assert report.window_start == 512 and report.window_size == 3585
    assert report.exact and report.holds
    assert report.random_fraction > 1 - report.rare_bound
    assert report.rare_bound == Fraction(5, 11)


def test_density_window_counts_witnesses():
    table = late_stop_table()
    u = Dispatcher((table, timed_table(table)))
    report = density_report(u, 2, 2**12)
    assert report.nonrandom_count > 0
    # independent recount: walk the dispatcher's own finite domain, in the
    # index order it is given in
    least = {}
    for index, (_, out) in finite_domain(u):
        least.setdefault(out, index)
    expected = 0
    for t in range(512, 2**12 + 1):
        witness = least.get(bits_of_index(t))
        if witness is not None and witness <= short_index_cap(len(bits_of_index(t))):
            expected += 1
    assert report.nonrandom_count == expected
    assert report.holds  # sparse even with genuine witnesses in the window


def unbuilt_cap(length):
    raise AssertionError(f"the witness cap of {length}-bit codes was built")


def test_density_window_validation(loop_free_vm, toy_vm, monkeypatch):
    with pytest.raises(ConfigError):
        density_report(loop_free_vm, 2, 2**9)  # no full doubling
    with pytest.raises(ConfigError):
        density_report(toy_vm, 2, 2**12)  # opaque without budget
    # the enumeration cap is the one limit on a window: at m + s = 30 the
    # witnesses run to 25-bit programs, past the default cap of 2^24
    with pytest.raises(ResourceLimitError):
        density_report(loop_free_vm, 9, 2**30)
    # it refuses before the witnesses' cap, as large as the horizon, is built
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("haltlab.density"), "short_index_cap", unbuilt_cap)
        with pytest.raises(ResourceLimitError, match=r"^enumerating 2\^134217700 programs"):
            density_report(loop_free_vm, 1, 2 ** (2**27) - 1)
    # and it can be lowered: m + s = 26 needs 21-bit programs
    min_index_map.cache_clear()  # a cached map would not enumerate
    monkeypatch.setattr(importlib.import_module("haltlab.sweep"), "ENUM_CAP_BITS", 20)
    with pytest.raises(ResourceLimitError):
        density_report(loop_free_vm, 9, 2**26)


def test_density_opaque_is_labeled(toy_vm):
    report = density_report(toy_vm, 2, 2**12, budget=4096)
    assert not report.exact
    assert report.holds is None


def test_required_horizon_formula():
    assert required_horizon(2, 1) == 2**12 - 1
    assert required_horizon(2, 2) == 2**22 - 1
    assert required_horizon(1, 18) == 2 ** (5 * 2**18 + 2) - 1
    # past WEIGHT_BIT_LIMIT bits the horizon is refused before it is built
    for k in (19, 27, 10**12):
        with pytest.raises(ResourceLimitError, match=f"^the horizon of k = {k} "):
            required_horizon(1, k)


def test_density_margin_k1(loop_free_vm):
    report = density_with_margin(loop_free_vm, 2, 1)
    assert report.rare_bound <= Fraction(1, 2)
    assert report.holds


def test_density_margin_refuses_past_the_cap_before_the_horizon(loop_free_vm, toy_vm, monkeypatch):
    """A margin whose witnesses pass the enumeration cap is refused before
    required_horizon builds 2^L, L = 5*2^k + 2, also where 2^L fits in no
    memory; the refusals of the arguments still come first."""

    def unbuilt(length, k):
        raise AssertionError(f"the horizon of k = {k} was built")

    monkeypatch.setattr(importlib.import_module("haltlab.density"), "required_horizon", unbuilt)
    with pytest.raises(ResourceLimitError, match=r"^enumerating 2\^36 programs"):
        density_with_margin(loop_free_vm, 1, 3)  # L = 42: 36-bit witnesses
    for k in (40, 10**12):
        with pytest.raises(ResourceLimitError):
            density_with_margin(loop_free_vm, 1, k)
    # length 0, k < 0, a window past the margin at k = 0 and at k = 3 (m = 43)
    for length, k in [(0, 40), (-1, 40), (1, -1), (1, 0), (19, 3)]:
        with pytest.raises(ConfigError):
            density_with_margin(loop_free_vm, length, k)
    with pytest.raises(ConfigError, match="budget"):
        density_with_margin(toy_vm, 1, 40)  # an opaque machine needs one


def test_density_reads_a_finite_domain_past_the_witness_cap(table1, loop_free_vm):
    """A finite domain is never enumerated, so the witness cap, 2^34
    programs at m + s = 40, does not bind it: both density functions answer
    from table1's 6 entries, where a VM is refused."""
    report = density_report(table1, 1, 2**40 - 1)
    assert (report.nonrandom_count, report.holds) == (0, True)
    margin = density_with_margin(table1, 1, 10)
    assert margin.rare_bound <= Fraction(1, 2**10) and margin.holds
    with pytest.raises(ResourceLimitError, match=r"^enumerating 2\^34 programs"):
        density_report(loop_free_vm, 1, 2**40 - 1)


def test_density_margin_k2_large_window(loop_free_vm):
    # horizon 2^22 - 1; the witness-map scan keeps this tractable
    report = density_with_margin(loop_free_vm, 2, 2)
    assert report.rare_bound <= Fraction(1, 4)
    assert report.holds
    assert report.window_size == 2**22 - 2**9


# ---------------------------------------------------------------------------
# exponential stopping times

def test_exponential_stops_empty_on_fixtures(monkeypatch, table1, toy_vm):
    assert not exclusion_report(table1, range(4), 2**12).candidates
    # a length is compared with the horizon by exponent: 2^(2n + 5) is built
    # only for a length that is swept
    density = importlib.import_module("haltlab.density")
    real_threshold = density.exclusion_threshold

    def threshold(n):
        assert n <= 64, f"2^m was built for length {n}"
        return real_threshold(n)

    monkeypatch.setattr(density, "exclusion_threshold", threshold)
    huge = exclusion_report(table1, (10**12,), 5)
    assert huge.holds and not huge.candidates
    report = exclusion_report(toy_vm, range(5), 2**13, 2**13)
    assert report.holds and not report.candidates
    with pytest.raises(ConfigError):
        exclusion_report(table1, range(4), 0)


def test_exponential_stops_with_candidates():
    table = late_stop_table()
    u = Dispatcher((table, timed_table(table)))
    report = exclusion_report(u, range(5), 2**12)
    assert len(report.candidates) == 2  # the 600 stop is not exponential for length 3
    assert report.holds


def test_stop_code_lint(table1):
    # bare table1 cannot compress its own late stop times
    assert stop_code_violations(table1) == ("010", "011", "100", "111")
    clean = table_from_stops({"0": 1, "1": 1})
    assert stop_code_violations(clean) == ()
    # each stop time is read from the table, not run within a budget of it,
    # which run() refuses past 2^64 - 1: index 2, "0", produces code(1) = "",
    # and no index up to 2^5 produces the 70 bits of code(2^70)
    huge = load_machine(str(FIXTURES / "huge_stop_table.json"))
    assert stop_code_violations(huge) == ("10",)


def test_stop_code_lint_hashes_its_table_once(monkeypatch):
    """Each entry's lookup of the table's witness map hashes the table, which
    keeps the hash it made when it was made: the entries are not read again
    per lookup, so the lint takes linear time, not quadratic."""
    table = TableMachine(tuple((format(v, "012b"), 1 + v % 7, "") for v in range(2**12)))
    calls = []
    real_values = Value._values
    monkeypatch.setattr(Value, "_values", lambda self: calls.append(self) or real_values(self))
    min_index_map.cache_clear()
    try:
        violations = stop_code_violations(table)
    finally:
        min_index_map.cache_clear()
    # only code(1) = "" has a witness, index 2^12, program 0^12
    assert violations == tuple(p for p, t, _ in table.entries if t != 1)
    assert len(calls) <= 4
