from fractions import Fraction
import importlib

import pytest

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.complexity import (
    NONRANDOM,
    RANDOM,
    UNKNOWN,
    find_witness,
    min_index_map,
    random_string_density,
    short_index_cap,
    stop_time_bound_holds,
    time_randomness,
)
from haltlab.density import density_report
from haltlab.errors import ConfigError, ResourceLimitError
from haltlab.machine import Dispatcher, TableMachine, run, timed_table

from conftest import mode_block_bases
from oracles.ref_vm import ref_run


def ref_least_index(target, cap, prefix_free=False, allow_loops=True, budget=10**5):
    """Independent search for the least index producing target on a VM."""
    for n in range(1, cap + 1):
        halted, _, out = ref_run(bits_of_index(n), prefix_free, allow_loops, budget)
        if halted and out == target:
            return n
    return None


def identity_table(count):
    """Finite table sending each of the first `count` codes to itself."""
    return TableMachine(
        entries=tuple((bits_of_index(n), 1, bits_of_index(n)) for n in range(1, count + 1))
    )


def test_least_index_on_identity_table():
    least = min_index_map(identity_table(12), 64, None)
    assert least.get(bits_of_index(5)) == 5
    assert least.get("0000") is None


def test_least_index_on_table1(table1):
    # every table1 entry outputs the empty string; the least program is 000
    least = min_index_map(table1, 64, None)
    assert least.get("") == index_of_bits("000") == 8
    assert least.get("0") is None


def test_counting_bound(loop_free_vm):
    """At most N strings have complexity below N (least indices are distinct)."""
    for cap in (1, 7, 63, 255, 2048):
        reached = min_index_map(loop_free_vm, cap, None)
        assert len(reached) <= cap
        assert len(set(reached.values())) == len(reached)


def time_cap(t):
    return short_index_cap(len(bits_of_index(t)))


def test_thresholds():
    # the largest indices below 2^len/len for t = 2, 4, 8: 2/1, 4/2 and 8/3
    assert time_cap(2) == 1
    assert time_cap(4) == 1
    assert time_cap(8) == 2
    with pytest.raises(ConfigError):
        time_cap(1)
    for length in range(1, 80):
        cap = short_index_cap(length)
        assert cap < Fraction(2**length, length) <= cap + 1
    for length in range(1, 301):
        assert short_index_cap(length) == (2**length - 1) // length


def test_time_randomness_matches_reference(loop_free_vm):
    for t in range(2, 40):
        verdict = time_randomness(loop_free_vm, t)
        witness = ref_least_index(bits_of_index(t), time_cap(t), allow_loops=False)
        assert verdict == (NONRANDOM if witness is not None else RANDOM)


def test_time_randomness_opaque_is_sound(toy_vm):
    for t in range(2, 40):
        verdict = time_randomness(toy_vm, t, budget=4096)
        assert verdict in (NONRANDOM, UNKNOWN)
        if verdict == NONRANDOM:
            # sound: some index under the threshold really produces bin(t)
            witness = ref_least_index(bits_of_index(t), time_cap(t))
            assert witness is not None


def test_stop_bound_on_vm_programs(toy_vm):
    for length in range(7):
        for value in range(2**length):
            program = format(value, f"0{length}b") if length else ""
            check = stop_time_bound_holds(toy_vm, program, 4096)
            if not check.applicable:
                continue
            assert check.holds
            assert check.witness_index == index_of_bits("11" + program) <= 2 ** (length + 3)


def test_stop_bound_witness_is_the_wrapper(toy_vm):
    check = stop_time_bound_holds(toy_vm, "0000", 100)
    assert check.stop_time == 1
    # the wrapper 11p is itself the witness, so its index is known in advance
    assert check.witness_index == index_of_bits("110000") == 112
    # the wrapper runs one step past the budget, but never past 2^64 - 1
    for budget in (2**64 - 2, 2**64 - 1):
        check = stop_time_bound_holds(toy_vm, "0000", budget)
        assert (check.witness_index, check.holds) == (112, True)
    # a wrapper over the cap is no witness: "11", the empty program's, has index 7
    assert find_witness(toy_vm, "", 7, 100, "") == 7
    assert find_witness(toy_vm, "", 6, 100, "") == 1  # the least index producing ""


def test_bare_table_misses_the_bound(table1):
    """A finite table is not closed under timing, so the compressibility
    bound genuinely fails there; registering the timed twin restores it."""
    bad = stop_time_bound_holds(table1, "011", None)
    assert bad.applicable and not bad.holds

    u = Dispatcher((table1, timed_table(table1)))
    good = stop_time_bound_holds(u, "1011", None)
    assert good.applicable and good.holds
    assert run(u, "1011", 100).stop_time == 8
    assert good.witness_index == index_of_bits("01" + "011")
    # one budget policy: a transparent machine is read exactly, never within a budget
    with pytest.raises(ConfigError):
        stop_time_bound_holds(table1, "011", 100)


def test_random_string_density_floor(loop_free_vm):
    for n in range(2, 9):
        report = random_string_density(loop_free_vm, n)
        assert report.density >= report.floor == 1 - Fraction(1, n)
        # exact recount with the reference interpreter
        import math

        cap = math.ceil(Fraction(2**n, n)) - 1
        seen = set()
        for i in range(1, cap + 1):
            halted, _, out = ref_run(bits_of_index(i), False, False, 10**5)
            if halted and len(out) == n:
                seen.add(out)
        assert report.nonrandom_count == len(seen)


def test_random_string_density_needs_transparency(toy_vm):
    with pytest.raises(ConfigError):
        random_string_density(toy_vm, 4)


@pytest.mark.parametrize(
    "name, budget",
    [("toy_vm", 256), ("loop_free_vm", None), ("prefix_free_vm", 256), ("prefix_free_loop_free_vm", None)],
)
def test_least_index_map_is_setdefault_in_index_order(kernel, census, name, budget):
    """min_index_map scans a VM in core order, yet keeps the least index of
    each output, as setdefault over the indices in index order does: at
    every cap below 2^8 and, below 2^12, at each edge of the first three
    depths' mode blocks and of the programs that end inside a mode field."""
    machine = census.machines[name][0]
    caps = set(range(1, 2**8)) | {2**12 - 1}
    for n in range(8, 12):
        bases = mode_block_bases(n)
        caps |= {c for b in bases[:9] + bases[-1:] for c in (b - 1, b)}
    hits = dict(census.scan(name, 1, 2**12, budget))
    expected = {}
    for index in range(1, 2**12):
        if index in hits:
            expected.setdefault(hits[index][1], index)
        if index in caps:
            min_index_map.cache_clear()
            assert min_index_map(machine, index, budget) == expected, index
    min_index_map.cache_clear()


def test_enum_cap_binds_every_min_index_map_caller(monkeypatch, toy_vm, loop_free_vm, table1):
    """Each caller of min_index_map refuses a map past the enumeration cap:
    the map's _scan checks the cap before its first program runs. A table's
    map enumerates nothing, so the cap does not bind it."""
    callers = [
        lambda: time_randomness(toy_vm, 2**10, 64),  # indices up to 102
        lambda: stop_time_bound_holds(Dispatcher((loop_free_vm,)), "100", None),  # up to 64
        lambda: random_string_density(loop_free_vm, 10),  # up to 102
        lambda: density_report(loop_free_vm, 1, 2**12 - 1),  # up to 341
    ]
    min_index_map.cache_clear()  # a cached map would not enumerate
    monkeypatch.setattr(importlib.import_module("haltlab.sweep"), "ENUM_CAP_BITS", 5)
    for caller in callers:
        with pytest.raises(ResourceLimitError):
            caller()
    check = stop_time_bound_holds(table1, "010", None)  # up to 64, read from 6 entries
    assert (check.stop_time, check.witness_index, check.holds) == (15, None, False)
    # the cap is checked at len(code(t)) before code(t) is built
    complexity = importlib.import_module("haltlab.complexity")
    real_code = complexity.bits_of_index

    def code(n):
        assert n.bit_length() <= 64, "code(t) was built before the cap check"
        return real_code(n)

    monkeypatch.setattr(complexity, "bits_of_index", code)
    with pytest.raises(ResourceLimitError):
        time_randomness(loop_free_vm, 1 << 2**26)
    assert time_randomness(table1, 1 << 40) == RANDOM  # a finite domain is never enumerated
    # random_string_density checks the cap before short_index_cap(length) is built
    expected = random_string_density(table1, 3)
    real_cap = complexity.short_index_cap

    def index_cap(length):
        assert length <= 64, "short_index_cap was built before the cap check"
        return real_cap(length)

    monkeypatch.setattr(complexity, "short_index_cap", index_cap)
    with pytest.raises(ResourceLimitError):
        random_string_density(loop_free_vm, 10**9)
    assert random_string_density(table1, 3) == expected
