from fractions import Fraction
import importlib
import itertools
import tracemalloc

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

from haltlab import _stepper_py, vm
from haltlab.codec import bits_of_index, index_of_bits
from haltlab.errors import ConfigError, ResourceLimitError, UndefinedConditionalError
from haltlab.machine import (
    Dispatcher,
    RunOutcome,
    TableMachine,
    exact_run,
    finite_domain,
    machine_from_dict,
    observe,
    run,
)
from haltlab.sweep import (
    _scan,
    _typecode,
    all_programs,
    conditional_probs,
    eventual_fraction,
    prob_by,
    prob_exact,
    sweep,
)

from conftest import assert_stops_equal, mode_block_bases, table_from_stops


@pytest.fixture(scope="module")
def history1(table1):
    return sweep(table1, 3, 17)


def test_recorded_stops(history1):
    assert list(history1.pairs()) == [
        ("000", 1), ("010", 15), ("011", 8), ("100", 14), ("110", 1), ("111", 16)
    ]


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


@pytest.mark.parametrize("n", range(13))
def test_all_programs_are_the_codes_of_one_length(n):
    """One length's programs are the codes of indices 2^n .. 2^(n+1) - 1,
    which is also every n-bit string zero-padded in numeric order."""
    programs = list(all_programs(n))
    assert programs == [bits_of_index(i) for i in range(2**n, 2 ** (n + 1))]
    assert programs == ([""] if n == 0 else [format(v, f"0{n}b") for v in range(2**n)])


def test_all_programs_are_made_lazily():
    """The programs are made one at a time, so the first of 2^64 comes at
    once. The iterator check comes first: a list of 2^64 would never end."""
    programs = all_programs(16)
    assert iter(programs) is programs
    assert next(iter(all_programs(64))) == "0" * 64


def test_sweep_holds_only_the_halting_programs(prefix_free_loop_free_vm):
    """An exact sweep of 16,384 programs, 498 of which halt, allocates far
    less than one string per program at its peak."""
    machine = prefix_free_loop_free_vm
    sweep(machine, 14, None)  # warm the kernel and the caches
    tracemalloc.start()
    try:
        history = sweep(machine, 14, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(history.times) < 2**14 // 16
    assert peak < 256 * 1024


def observed_stops(machine, length, horizon):
    """The stop-time dict that a plain observe() loop builds."""
    stops = {}
    for program in all_programs(length):
        hit = observe(machine, program, horizon)
        if hit is not None:
            stops[program] = hit[0]
    return stops


# random tables over programs of at most 4 bits, stop times up to 2^70: an
# exact sweep keeps its stop times in a list, which holds them all
small_tables = st.dictionaries(
    st.sampled_from([bits_of_index(i) for i in range(1, 32)]),
    st.one_of(st.integers(1, 64), st.integers(1, 2**70)),
    max_size=12,
).map(table_from_stops)


# stop times on both sides of each array type's edge, and past 2^64 - 1
EDGE_STOPS = [1, 255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]
edge_table = table_from_stops(dict(zip(map(bits_of_index, range(1, 32, 3)), EDGE_STOPS)))


# a table, or a dispatcher over one to three tables: programs of at most 7 bits
finite_machines = st.one_of(
    small_tables, st.lists(small_tables, min_size=1, max_size=3).map(tuple).map(Dispatcher)
)


@settings(max_examples=120, deadline=None)
@given(finite_machines, st.one_of(st.none(), st.integers(1, 2**64 - 1)))
@example(edge_table, None)
@example(edge_table, 255)
@example(edge_table, 256)
@example(edge_table, 2**16 - 1)
@example(edge_table, 2**16)
@example(edge_table, 2**32 - 1)
@example(edge_table, 2**32)
@example(edge_table, 2**64 - 1)
def test_stop_times_read_as_the_observed_dict(machine, horizon):
    """A finite domain is swept from its entries: no program runs through
    haltlab.sweep's run or exact_run, and the result is observe()'s."""
    sweep_module = importlib.import_module("haltlab.sweep")  # haltlab.sweep is the function
    with pytest.MonkeyPatch.context() as patch:
        for name in ("run", "exact_run"):
            patch.setattr(sweep_module, name, lambda *args: pytest.fail(f"a program ran: {args}"))
        histories = [sweep(machine, length, horizon) for length in range(8)]
    for length, history in enumerate(histories):
        assert_stops_equal(history, observed_stops(machine, length, horizon))
        assert horizon is not None or type(history.times) is list


@pytest.mark.parametrize(
    "bound, code",
    [(255, "B"), (256, "H"), (2**16 - 1, "H"), (2**16, "I"),
     (2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q")],
)
def test_typecode_is_the_narrowest_that_holds_the_bound(bound, code):
    assert _typecode(bound) == code


def test_a_vm_sweep_takes_the_narrowest_arrays(toy_vm, census):
    """At length 9 the offsets pass 255 and widen from B to H; stop times
    within a horizon of 255 stay B."""
    for length, code in [(8, "B"), (9, "H")]:
        history = sweep(toy_vm, length, 255)
        assert (history.offsets.typecode, history.times.typecode) == (code, "B")
        assert_stops_equal(history, census.stops("toy_vm", length, 255))


BUILTINS = ["toy_vm", "loop_free_vm", "prefix_free_vm", "prefix_free_loop_free_vm"]


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_stop_times_read_as_the_observed_dict(name, census):
    machine, recorded = census.machines[name]
    horizon = None if recorded is None else 256
    for length in range(11):
        history = sweep(machine, length, horizon)
        assert_stops_equal(history, census.stops(name, length, horizon))
        assert horizon is not None or type(history.times) is list


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(BUILTINS), length=st.integers(0, 10), horizon=st.integers(1, 4096))
def test_sweep_reads_as_the_observe_loop_at_every_horizon(kernel, census, name, length, horizon):
    """The restore of index order at any horizon, where a depth may halt only
    in part: on the opaque VMs the horizon is drawn, the transparent ones
    are read exactly."""
    machine, recorded = census.machines[name]
    if recorded is None:
        horizon = None
    assert_stops_equal(sweep(machine, length, horizon), census.stops(name, length, horizon))


def test_exact_sweep_keeps_a_stop_time_past_64_bits():
    history = sweep(table_from_stops({"01": 2**70, "10": 3}), 2, None)
    assert_stops_equal(history, {"01": 2**70, "10": 3})


def test_stops_are_in_index_order(toy_vm, prefix_free_vm, table1):
    # at horizon 2 the last depth seen halting on toy-vm has several cores
    for machine, length, horizon in (
        (toy_vm, 8, 512), (toy_vm, 8, 2), (prefix_free_vm, 8, 512), (table1, 3, 512)
    ):
        programs = [program for program, _ in sweep(machine, length, horizon).pairs()]
        assert programs == sorted(programs, key=index_of_bits)


@pytest.mark.parametrize(
    "name", ["loop_free_vm", "prefix_free_loop_free_vm", "table1", "fixture_f"]
)
def test_exact_sweep_matches_exact_run(name, census):
    machine = census.machines[name][0]
    for n in range(11):
        history = sweep(machine, n, None)
        assert history.horizon is None
        assert_stops_equal(history, census.stops(name, n, None))


def test_scan_is_the_observe_loop(toy_vm):
    """_scan refuses an output past the cap as observe() does; what it reads
    of every other index is observe()'s (tests/test_census.py)."""
    program = "000111111110111001111110"  # passes DEFAULT_OUTPUT_CAP at step 81
    index = index_of_bits(program)
    with pytest.raises(ResourceLimitError, match="output exceeded"):
        observe(toy_vm, program, 4096)
    with pytest.raises(ResourceLimitError, match="output exceeded"):
        list(_scan(toy_vm, index, index + 1, 4096))


def test_scan_is_the_observe_loop_on_the_compiled_kernel(compiled, monkeypatch, toy_vm):
    monkeypatch.setattr(vm, "run_stream", compiled.run_stream)
    test_scan_is_the_observe_loop(toy_vm)


def core_order_key(index):
    """Where an index falls in core order, from its program's bits alone:
    its length, then its depth, core and mode field, the programs that end
    inside a mode field after every depth of their length."""
    program = bits_of_index(index)
    n = len(program)
    depth = (n - len(program.lstrip("1"))) // 2
    if 2 * depth + 2 > n:
        return (n, n, index)
    return (n, depth, program[2 * depth + 2 :], program[2 * depth : 2 * depth + 2])


def test_scan_runs_a_vm_in_core_order(kernel, monkeypatch, toy_vm, prefix_free_loop_free_vm, table1):
    """On a VM _scan runs [lo, hi) in core order: a permutation of [lo, hi),
    in which a full depth block runs the three programs of each core back to
    back. Cut at either end or both, it runs the full length's order with
    the indices outside [lo, hi) left out. A table runs nothing, and a
    dispatcher with a VM submachine runs in index order."""
    sweep_module = importlib.import_module("haltlab.sweep")
    ran = []
    monkeypatch.setattr(
        sweep_module, "run", lambda m, p, b: ran.append(index_of_bits(p)) or run(m, p, b)
    )
    monkeypatch.setattr(
        sweep_module, "exact_run", lambda m, p: ran.append(index_of_bits(p)) or exact_run(m, p)
    )

    def order(machine, lo, hi, budget):
        ran.clear()
        list(_scan(machine, lo, hi, budget))
        return list(ran)

    for n in range(13):
        lo, hi = 2**n, 2 ** (n + 1)
        full = sorted(range(lo, hi), key=core_order_key)
        got = order(toy_vm, lo, hi, 64)
        assert got == full
        assert order(prefix_free_loop_free_vm, lo, hi, None) == full
        # each core's three programs back to back, then those that end
        # inside a mode field
        keys = [core_order_key(i) for i in got]
        cored = [key for key in keys if len(key) == 4]
        assert keys[: len(cored)] == cored
        for at in range(0, len(cored), 3):
            assert [key[3] for key in cored[at : at + 3]] == ["00", "01", "10"]
            assert len({key[:3] for key in cored[at : at + 3]}) == 1
        cuts = sorted({c for b in mode_block_bases(n) for c in (b - 1, b, b + 1, b + 2**n // 7)})
        cuts = [c for c in cuts if lo <= c <= hi]
        ranges = [(lo, c) for c in cuts] + [(c, hi) for c in cuts]
        if n <= 8:  # both ends cut, every pair of cuts
            ranges += list(itertools.combinations(cuts, 2))
        else:
            ranges += list(zip(cuts, cuts[3:]))
        for a, b in ranges:
            got = order(toy_vm, a, b, 64)
            assert sorted(got) == list(range(a, b)), (a, b)
            assert got == [i for i in full if a <= i < b], (a, b)
    assert order(table1, 1, 2**5, None) == []
    dispatcher = Dispatcher((prefix_free_loop_free_vm, table1))
    assert order(dispatcher, 1, 2**5, None) == list(range(1, 2**5))


class CountedDomain(tuple):
    """A finite domain that counts the items read from it: one for an index,
    the slice's length for a slice, and one for each item a walk passes."""

    reads = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        self.reads += len(got) if isinstance(key, slice) else 1
        return got

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_scan_bisects_a_finite_domain():
    """On a finite domain, kept by the machine as _scan's own hits and not
    copied, _scan bisects to [lo, hi): it reads O(log n) items besides the
    ones in range, however large the domain, and yields those within the
    budget in index order."""
    table = TableMachine(tuple((format(v, "012b"), 1 + v % 7, "") for v in range(2**12)))
    dispatcher = Dispatcher((table, table))
    programs = [p for p, _, _ in table.entries]
    assert [i for i, _ in finite_domain(table)] == [index_of_bits(p) for p in programs]
    assert [i for i, _ in finite_domain(dispatcher)] == [
        index_of_bits(selector + p) for selector in ("1", "01") for p in programs
    ]
    ranges = [(1, 2), (2**12 + 5, 2**12 + 9), (2**13 - 2, 2**13 + 2),
              (3 * 2**12 - 2, 3 * 2**12 + 2), (5 * 2**12 + 1, 5 * 2**12 + 3), (2**14, 2**14)]
    for machine in (table, dispatcher):
        domain = finite_domain(machine)
        assert finite_domain(machine) is domain
        counted = CountedDomain(domain)
        object.__setattr__(machine, "_domain", counted)  # both machines are this test's own
        for lo, hi in ranges:
            counted.reads = 0
            got = list(_scan(machine, lo, hi, 3))
            assert got == [(i, hit) for i, hit in domain if lo <= i < hi and hit[0] <= 3]
            assert counted.reads <= 2 * len(domain).bit_length() + 2 + (hi - lo), (lo, hi)


@pytest.mark.parametrize("cap", [0, 1, 3, 16])
def test_scan_raises_for_the_least_offending_index_first(
    kernel, monkeypatch, toy_vm, prefix_free_vm, cap
):
    """Over a range from a length boundary or from 1, the first run _scan
    finds past the output cap is the least such index's, as in index order.
    With the cap lowered, short programs pass it at many different steps."""
    monkeypatch.setattr(importlib.import_module("haltlab.machine"), "DEFAULT_OUTPUT_CAP", cap)
    for machine in (toy_vm, prefix_free_vm):
        for n in range(11):
            start = 1 if n % 3 == 0 else 2**n
            end = 2 ** (n + 1)
            hits, least, message = [], None, None  # index order up to the first raise
            for i in range(start, end):
                try:
                    hit = observe(machine, bits_of_index(i), 64)
                except ResourceLimitError as exc:
                    least, message = i, str(exc)
                    break
                if hit is not None:
                    hits.append((i, hit))
            cuts = set(range(start + 1, end + 1)) if n <= 5 else set(mode_block_bases(n)) | {end}
            if least is not None:
                cuts |= {least, least + 1, least + 2}
            for hi in sorted(c for c in cuts if start < c <= end):
                if least is not None and least < hi:
                    with pytest.raises(ResourceLimitError) as raised:
                        list(_scan(machine, start, hi, 64))
                    assert str(raised.value) == message, (machine, start, hi)
                else:
                    assert sorted(_scan(machine, start, hi, 64)) == [h for h in hits if h[0] < hi]
    # the program behind the full cap and its 01 and 10 twins: one message
    core = "0111111110111001111110"
    messages = set()
    for mode in ("00", "01", "10"):
        index = index_of_bits(mode + core)
        with pytest.raises(ResourceLimitError) as raised:
            list(_scan(toy_vm, index, index + 1, 4096))
        messages.add(str(raised.value))
    assert len(messages) == 1


@pytest.mark.parametrize("name, horizon", [("toy_vm", 4096), ("prefix_free_loop_free_vm", None)])
def test_pure_kernel_steps_each_distinct_run_once(name, horizon, request, monkeypatch):
    """In core order a core's three programs make their one kernel call back
    to back, so over a sweep the pure kernel steps as many runs as there are
    distinct runs, (key, bytes read), among the sweep's calls; in index
    order the repeats lie too far apart for its last run to answer them."""
    machine = request.getfixturevalue(name)
    monkeypatch.setattr(_stepper_py, "_last", (None, 0, None, None, None, None, 0, b"", None))
    calls, runs, stepped = [], set(), []

    def counted(*args):
        before = _stepper_py._last
        result = _stepper_py.run_stream(*args)
        last = _stepper_py._last  # the key is the first six fields, the bytes read the eighth
        calls.append(args)
        runs.add((last[:6], last[7]))
        stepped.append(_stepper_py._last is not before)
        return result

    monkeypatch.setattr(vm, "run_stream", counted)
    sweep(machine, 12, horizon)
    assert sum(stepped) == len(runs)
    assert 3 * len(runs) < len(calls)


def test_exact_sweep_measures(loop_free_vm):
    history = sweep(loop_free_vm, 3, None)
    for measure in (prob_exact, prob_by, lambda h: conditional_probs(h, 1)):
        with pytest.raises(ConfigError):
            measure(history)  # no horizon, so no product space
    # stops seen within a budget persist verbatim in the exact sweep
    budgeted = sweep(loop_free_vm, 3, 2)
    assert set(budgeted.pairs()) <= set(history.pairs())


def test_budget_extension(toy_vm):
    small = sweep(toy_vm, 6, 8)
    large = sweep(toy_vm, 6, 4096)
    assert set(small.pairs()) <= set(large.pairs())
    assert len(large.times) >= len(small.times)


def test_enum_cap_refuses(monkeypatch, toy_vm):
    monkeypatch.setattr(importlib.import_module("haltlab.sweep"), "ENUM_CAP_BITS", 6)
    with pytest.raises(ResourceLimitError, match=r"^enumerating 2\^7 .* the cap of 2\^6$"):
        sweep(toy_vm, 7, 10)
    assert sweep(toy_vm, 6, 10).length == 6  # the cap itself is allowed


def test_enum_cap_refuses_before_any_sweep(monkeypatch, toy_vm, table1):
    """The multi-length censuses refuse a length past the cap before they
    sweep the shorter ones."""
    from haltlab import density, halting_prob, runtime_dist

    swept = []
    for module in (density, runtime_dist):
        monkeypatch.setattr(module, "sweep", lambda *args: swept.append(args) or sweep(*args))
    # the curve only counts, through the scan that sweep runs
    monkeypatch.setattr(halting_prob, "_scan", lambda *args: swept.append(args) or _scan(*args))
    monkeypatch.setattr(importlib.import_module("haltlab.sweep"), "ENUM_CAP_BITS", 6)
    dist = runtime_dist.induced_distribution(toy_vm, budget=4096)
    for census in (
        lambda: runtime_dist.split_halting_set(dist, 2, 7),
        lambda: density.exclusion_report(toy_vm, range(8), 2**19, 4096),
        lambda: halting_prob.domain_prob_curve(toy_vm, 7, 4096),
    ):
        with pytest.raises(ResourceLimitError):
            census()
        assert swept == []
    # lengths whose late stops lie past the horizon are not swept, so not refused
    assert density.exclusion_report(table1, range(31), 2**12).holds
    assert max(length for _, length, _ in swept) == 3


def test_enum_cap_refuses_in_the_scan(monkeypatch, toy_vm):
    """The index-range enumerations outside sweep, the least-index map and
    the tail sum, refuse past the cap before they observe any program."""
    from haltlab import complexity, runtime_dist

    sweep_module = importlib.import_module("haltlab.sweep")  # haltlab.sweep is the function
    dist = runtime_dist.induced_distribution(toy_vm, budget=4096)
    observed = []
    monkeypatch.setattr(sweep_module, "exact_run", lambda *args: observed.append(args))
    monkeypatch.setattr(
        sweep_module, "run", lambda *args: observed.append(args) or RunOutcome(False, None, None)
    )
    monkeypatch.setattr(sweep_module, "ENUM_CAP_BITS", 6)
    complexity.min_index_map.cache_clear()  # a cached map would not enumerate
    for enumeration in (
        lambda: complexity.min_index_map(toy_vm, 2**8, 64),
        lambda: dist.tail_mass(2**10),
    ):
        with pytest.raises(ResourceLimitError):
            enumeration()
        assert observed == []
