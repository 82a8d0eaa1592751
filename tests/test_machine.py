from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.complexity import min_index_map
from haltlab.errors import ConfigError, ResourceLimitError
from haltlab.halting_prob import ProbCurvePoint
from haltlab.intervals import Interval
from haltlab.machine import (
    _KEPT,
    _KEPT_OUTPUT_BITS,
    MAX_DISPATCH_NESTING,
    Dispatcher,
    PrefixFreeVM,
    RunOutcome,
    TableMachine,
    ToyVM,
    exact_run,
    finite_domain,
    is_transparent,
    load_machine,
    machine_from_dict,
    observe,
    run,
    time_wrap,
    timed_table,
)
from haltlab.runtime_dist import DYADIC, GeometricTableWeights
from haltlab.sweep import PairListing, sweep

bits = st.text(alphabet="01", max_size=18)


# run outcomes computed with tests/oracles/ref_vm.py and frozen; each entry is
# (program, (halted, stop_time, output))
PLAIN_GOLDENS = [
    ("", (True, 1, "")),
    ("1", (True, 1, "")),
    ("0000", (True, 1, "")),  # END inside the core
    ("01010", (True, 2, "")),  # output discarded by the run-off-the-end halt
    ("0101000", (True, 2, "0")),
    ("00011000", (True, 2, "1")),
    ("001011110", (True, 4, "")),  # SPIN burns one accumulator unit
    ("0001111101111111", (True, 9, "")),
    ("10110010000", (True, 3, "")),
    ("00101111110", (False, None, None)),  # INC/LOOP cycle never stops
    ("1100", (True, 2, "")),  # timing wrapper, one level
    ("111100", (True, 3, "0")),  # two wrapper levels re-code the stop time
    ("11010100", (True, 3, "0")),
]

PF_GOLDENS = [
    ("0000", (True, 1, "")),
    ("000000", (False, None, None)),  # early END is a certain divergence
    ("0001", (False, None, None)),
    ("00010", (False, None, None)),  # complete code but bits left unread
    ("000100", (False, None, None)),
    ("11010100", (False, None, None)),
    ("000111111000", (True, 2, "")),  # LOOP with empty accumulator, then END
]

LOOPFREE_GOLDENS = [
    ("00101111110", False, (True, 2, "")),  # LOOP is undecodable here
    ("00101111110", True, (False, None, None)),
    ("000111111000", True, (False, None, None)),
]


@pytest.mark.parametrize("program,expected", PLAIN_GOLDENS)
def test_plain_goldens(toy_vm, program, expected):
    outcome = run(toy_vm, program, 10**6)
    assert (outcome.halted, outcome.stop_time, outcome.output) == expected


@pytest.mark.parametrize("program,expected", PF_GOLDENS)
def test_prefix_free_goldens(prefix_free_vm, program, expected):
    outcome = run(prefix_free_vm, program, 10**6)
    assert (outcome.halted, outcome.stop_time, outcome.output) == expected


@pytest.mark.parametrize("program,prefix_free,expected", LOOPFREE_GOLDENS)
def test_loop_free_goldens(loop_free_vm, prefix_free_loop_free_vm, program, prefix_free, expected):
    machine = prefix_free_loop_free_vm if prefix_free else loop_free_vm
    outcome = run(machine, program, 10**6)
    assert (outcome.halted, outcome.stop_time, outcome.output) == expected


@pytest.mark.parametrize("program", ["01x", "0a1", "2", 5, None])
def test_run_refuses_what_is_not_a_bit_string(toy_vm, loop_free_vm, table1, program):
    for machine in (toy_vm, table1, Dispatcher((table1,))):
        with pytest.raises(ConfigError):
            run(machine, program, 10)
    # the exact path too, on every kind: a table must not answer "never halts"
    for machine in (loop_free_vm, table1, Dispatcher((table1,)), Dispatcher((loop_free_vm,))):
        with pytest.raises(ConfigError):
            observe(machine, program, None)


def test_run_input_validation(toy_vm):
    with pytest.raises(ConfigError):
        run(toy_vm, "0", -1)


def test_run_outcome_fields(toy_vm):
    with pytest.raises(TypeError):
        RunOutcome(False)  # every field is given
    still = run(toy_vm, "00101111110", 64)
    assert (still.halted, still.stop_time, still.output) == (False, None, None)
    assert run(toy_vm, "0", 0) is still  # one shared not-halted outcome
    stopped = run(toy_vm, "0101000", 64)
    assert (stopped.halted, stopped.stop_time, stopped.output) == (True, 2, "0")


def out_words(output):
    """A toy-vm program that writes output with OUT0/OUT1 and halts by END
    at step len(output) + 1."""
    return "00" + "".join("0110" if bit == "1" else "010" for bit in output) + "00"


def test_shared_outcomes_are_bounded(kernel, kept_outcomes, toy_vm):
    """More distinct results than the one dict keeps, unwrapped and wrapped
    in turn: it stops growing at _KEPT entries, every outcome is still right,
    a kept one is shared and one past the bound is an equal but fresh
    instance on every call. Each run is keyed apart: an unwrapped one by its
    kernel result tuple, a wrapped one by its stop time, an int."""
    runs = _KEPT // 2 + 50
    for v in range(runs):
        output = format(v, "011b")
        assert run(toy_vm, out_words(output), 64) == (True, 12, output)
        # d wrappers around END stop at step d + 1 with output code(d)
        assert run(toy_vm, "11" * (v + 1) + "0000", 4096) == (True, v + 2, bits_of_index(v + 1))
        assert len(kept_outcomes) == min(2 * v + 2, _KEPT)
    assert sum(type(key) is int for key in kept_outcomes) == _KEPT // 2
    for program in (out_words(format(0, "011b")), "110000"):
        assert run(toy_vm, program, 64) is run(toy_vm, program, 64)
    for program in (out_words(format(runs - 1, "011b")), "11" * runs + "0000"):
        first, again = run(toy_vm, program, 4096), run(toy_vm, program, 4096)
        assert type(again) is RunOutcome and first == again and first is not again
    assert len(kept_outcomes) == _KEPT


def test_a_long_output_is_not_kept(kernel, kept_outcomes, toy_vm):
    kept = out_words("1" * _KEPT_OUTPUT_BITS)
    assert run(toy_vm, kept, 128) is run(toy_vm, kept, 128)
    longer = out_words("1" * (_KEPT_OUTPUT_BITS + 1))
    first, again = run(toy_vm, longer, 128), run(toy_vm, longer, 128)
    assert first == again == (True, _KEPT_OUTPUT_BITS + 2, "1" * (_KEPT_OUTPUT_BITS + 1))
    assert first is not again
    assert len(kept_outcomes) == 1
    # a wrapped output is the code of a stop time below 2^64: always kept
    wrapped = "11" + kept
    assert run(toy_vm, wrapped, 128) is run(toy_vm, wrapped, 128)
    assert len(kept_outcomes) == 2


def test_an_output_past_the_cap_is_refused_on_every_repeat(kernel, kept_outcomes, toy_vm):
    program = "000111111110111001111110"  # passes DEFAULT_OUTPUT_CAP at step 81
    for _ in range(3):
        with pytest.raises(ResourceLimitError, match="output exceeded"):
            run(toy_vm, program, 4096)
    assert kept_outcomes == {}


def test_budget_zero_observes_nothing(toy_vm):
    assert not run(toy_vm, "0000", 0).halted


def test_run_rejects_budgets_over_64_bits(toy_vm, table1):
    # the compiled kernel counts steps in 64 bits, so both kernels refuse more
    for machine in (toy_vm, table1):
        assert run(machine, "0101", 2**64 - 1) == run(machine, "0101", 4096)
        with pytest.raises(ConfigError):
            run(machine, "0101", 2**64)


# ---------------------------------------------------------------------------
# the timing wrapper

@settings(max_examples=60)
@given(bits)
def test_time_wrap_recodes_stop_time(toy_vm, program):
    """If p stops at t, then 11p stops at t+1 with output code(t)."""
    inner = run(toy_vm, program, 2048)
    wrapped = run(toy_vm, time_wrap(program), 2049)
    if inner.halted:
        assert wrapped.halted
        assert wrapped.stop_time == inner.stop_time + 1
        assert wrapped.output == bits_of_index(inner.stop_time)
    else:
        assert not wrapped.halted


def test_time_wrap_exhaustive_short(toy_vm, census):
    # every program of length <= 7 that halts within 4096 steps, no sampling
    for index, (stop, _) in census.scan("toy_vm", 1, 2**8, 4096):
        wrapped = run(toy_vm, time_wrap(bits_of_index(index)), 4097)
        assert wrapped.stop_time == stop + 1
        assert wrapped.output == bits_of_index(stop)


# ---------------------------------------------------------------------------
# prefix-freeness

def test_halting_set_is_prefix_free(prefix_free_vm):
    halting = []
    for length in range(1, 11):
        halting.extend(program for program, _ in sweep(prefix_free_vm, length, 4096).pairs())
    halting_set = set(halting)
    for p in halting:
        for q in halting_set:
            if len(q) > len(p) and q.startswith(p):
                pytest.fail(f"{p!r} and {q!r} both halt")


# ---------------------------------------------------------------------------
# transparency and the exact oracle

def test_decidability_labels(toy_vm, loop_free_vm, prefix_free_vm, table1):
    assert not is_transparent(toy_vm)
    assert not is_transparent(prefix_free_vm)
    assert is_transparent(loop_free_vm)
    assert is_transparent(table1) is True
    assert is_transparent(toy_vm) is False


def test_exact_run_refuses_opaque(toy_vm, table1, loop_free_vm):
    for machine in (toy_vm, load_machine("builtin:prefix-free-vm"),
                    Dispatcher((table1, loop_free_vm, toy_vm))):
        with pytest.raises(ConfigError, match="transparent"):
            exact_run(machine, "0000")


@settings(max_examples=60)
@given(bits)
def test_exact_run_matches_budgeted_run(loop_free_vm, program):
    hit = exact_run(loop_free_vm, program)
    outcome = run(loop_free_vm, program, 10**6)
    if outcome.halted:
        assert hit == (outcome.stop_time, outcome.output)
    else:
        assert hit is None


# ---------------------------------------------------------------------------
# tables

def test_table_lookup_and_budget(table1):
    assert run(table1, "011", 8).halted
    assert not run(table1, "011", 7).halted
    assert not run(table1, "001", 10**6).halted  # not in the table
    assert exact_run(table1, "111") == (16, "")
    assert exact_run(table1, "001") is None


def test_table_keeps_entries_in_index_order():
    table = TableMachine((("10", 4, "1"), ("", 1, ""), ("01", 3, ""), ("0", 2, "")))
    assert [p for p, _, _ in table.entries] == ["", "0", "01", "10"]
    assert table == TableMachine(tuple(reversed(table.entries)))
    assert hash(table) == hash(TableMachine(tuple(reversed(table.entries))))
    # its finite domain is kept as _scan's hits, (index, (stop, output)), in
    # the same order, and made once
    domain = finite_domain(table)
    assert domain == tuple((index_of_bits(p), (t, out)) for p, t, out in table.entries)
    assert finite_domain(table) is domain
    # the argument is read once, so a one-shot iterator gives the same table,
    # and the entries are the table's own tuples, so lists give it too
    one_shot = TableMachine(e for e in table.entries[::-1])
    for made in (one_shot, TableMachine([list(e) for e in table.entries])):
        assert made == table and hash(made) == hash(table)
        assert made.entries == table.entries and finite_domain(made) == domain
        assert list(sweep(made, 2, None).pairs()) == [("01", 3), ("10", 4)]


def test_table_rejects_duplicates():
    with pytest.raises(ConfigError):
        machine_from_dict(
            {
                "kind": "table",
                "entries": [
                    {"program": "0", "stop_time": 1},
                    {"program": "0", "stop_time": 2},
                ],
            }
        )


def test_timed_table_derivation(table1):
    derived = timed_table(table1)
    lookup = dict((p, (t, out)) for p, t, out in derived.entries)
    for program, stop, _ in table1.entries:
        assert lookup[program] == (stop + 1, bits_of_index(stop))


# ---------------------------------------------------------------------------
# dispatchers

def test_dispatcher_routing(table1):
    u = Dispatcher((table1, timed_table(table1)))
    # slot 0: '1' + x, slot 1: '01' + x
    assert run(u, "1011", 10**6).stop_time == 8
    assert run(u, "01011", 10**6).stop_time == 9
    assert run(u, "01011", 10**6).output == bits_of_index(8)
    assert not run(u, "00111", 10**6).halted  # slot 2 is empty
    assert not run(u, "0000", 10**6).halted  # no selector bit
    assert not run(u, "", 10**6).halted


def test_dispatcher_index_inflation_bound(table1):
    """The least dispatcher index for x is at most (2^(i+1)+1) times the
    least submachine index, via the block-prepend identity on codes."""
    subs = (table1, timed_table(table1))
    u = Dispatcher(subs)
    uleast = {}
    for index, (_, out) in finite_domain(u):  # in index order
        uleast.setdefault(out, index)
    for i, sub in enumerate(subs):
        least = {}
        for index, (_, out) in finite_domain(sub):
            least.setdefault(out, index)
        for x, n in least.items():
            assert x in uleast
            assert uleast[x] <= (2 ** (i + 1) + 1) * n


def test_dispatcher_transparency(table1, toy_vm, loop_free_vm):
    assert is_transparent(Dispatcher((table1, loop_free_vm)))
    assert not is_transparent(Dispatcher((table1, toy_vm)))
    # decided when the dispatcher is built, so a submachine of unknown kind
    # is refused there, also after an opaque one
    for subs in ((object(),), (toy_vm, object())):
        with pytest.raises(ConfigError, match="unknown machine"):
            Dispatcher(subs)


# ---------------------------------------------------------------------------
# serialization

# one hand-written descriptor per kind, and the machine it describes
DESCRIPTORS = [
    (
        {"kind": "table", "entries": [
            {"program": "01", "stop_time": 3, "output": "1"},
            {"program": "0", "stop_time": 1},
        ]},
        TableMachine((("0", 1, ""), ("01", 3, "1"))),
    ),
    ({"kind": "toy-vm"}, ToyVM()),
    ({"kind": "toy-vm", "isa_version": 1, "variant": "loop-free"}, ToyVM(loop_free=True)),
    ({"kind": "prefix-free-vm", "variant": "full"}, PrefixFreeVM()),
    ({"kind": "prefix-free-vm", "variant": "loop-free"}, PrefixFreeVM(loop_free=True)),
    (
        {"kind": "dispatcher", "submachines": [
            {"kind": "table", "entries": [{"program": "", "stop_time": 2}]},
            {"kind": "toy-vm"},
        ]},
        Dispatcher((TableMachine((("", 2, ""),)), ToyVM())),
    ),
]


def test_machine_dict_roundtrip():
    for data, machine in DESCRIPTORS:
        assert machine_from_dict(data) == machine


def test_descriptors_compare_by_kind_and_fields():
    assert ToyVM(loop_free=True) != PrefixFreeVM(loop_free=True)
    assert len({ToyVM(True), PrefixFreeVM(True), ToyVM(loop_free=True)}) == 2
    assert Dispatcher((ToyVM(True),)) != Dispatcher((PrefixFreeVM(True),))
    assert Dispatcher((ToyVM(True),)) == Dispatcher((ToyVM(True),))
    entries = (("0", 3, "1"), ("", 2, ""), ("11", 5, "0"))
    table = TableMachine(entries)
    reordered = TableMachine(entries[::-1])
    assert reordered == table and hash(reordered) == hash(table)
    assert TableMachine(entries[:2]) != table
    assert repr(table) == f"TableMachine(entries={table.entries!r})"
    # a weight table is a Value too: it equals no tuple of its fields
    assert not isinstance(DYADIC, tuple)
    assert DYADIC != ((Fraction(1, 2),), Fraction(1, 2))
    same = GeometricTableWeights((Fraction(1, 2),), Fraction(1, 2))
    assert same == DYADIC and hash(same) == hash(DYADIC)
    assert repr(DYADIC) == "GeometricTableWeights(prefix=(Fraction(1, 2),), ratio=Fraction(1, 2))"


def test_min_index_map_keeps_each_machines_own_map():
    """The two loop-free VMs share min_index_map's cache in one process, and
    each gets the map it gets alone."""
    machines = (ToyVM(loop_free=True), PrefixFreeVM(loop_free=True))
    alone = []
    for machine in machines:
        min_index_map.cache_clear()
        alone.append(min_index_map(machine, 255, None))
    min_index_map.cache_clear()
    assert [min_index_map(machine, 255, None) for machine in machines] == alone
    assert alone[0] != alone[1]


@pytest.mark.parametrize(
    "value,field",
    [
        (ToyVM(), "loop_free"),
        (PrefixFreeVM(True), "loop_free"),
        (TableMachine((("", 2, ""),)), "entries"),
        (TableMachine((("", 2, ""),)), "_lookup"),
        (Dispatcher((ToyVM(),)), "submachines"),
        (Dispatcher((ToyVM(),)), "_transparent"),
        (Interval(0, 1), "lo"),
        (PairListing((), 0), "size"),
        (RunOutcome(False, None, None), "halted"),
        (ProbCurvePoint(1, 1, 2, True), "halting"),
        (DYADIC, "ratio"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_fields_cannot_be_assigned(value, field):
    for change in (
        lambda: setattr(value, field, getattr(value, field)),
        lambda: delattr(value, field),
        lambda: setattr(value, "extra", 1),
    ):
        with pytest.raises(AttributeError):
            change()


def test_dispatcher_nesting_limit(loop_free_vm):
    data = {"kind": "toy-vm", "variant": "loop-free"}
    machine = loop_free_vm
    for _ in range(MAX_DISPATCH_NESTING):
        data = {"kind": "dispatcher", "submachines": [data]}
        machine = Dispatcher((machine,))
    assert machine_from_dict(data) == machine
    assert run(machine, "1" * MAX_DISPATCH_NESTING + "0000", 100).halted
    with pytest.raises(ConfigError, match="nest deeper"):
        machine_from_dict({"kind": "dispatcher", "submachines": [data]})


def test_load_machine_builtins():
    assert isinstance(load_machine("builtin:toy-vm"), ToyVM)
    assert isinstance(load_machine("builtin:prefix-free-vm"), PrefixFreeVM)
    assert load_machine("builtin:loop-free-vm").loop_free
    with pytest.raises(ConfigError):
        load_machine("builtin:nope")


def test_malformed_table_rejected():
    for entries in [
        [{"program": "01x", "stop_time": 1}],
        [{"program": "0", "stop_time": 0}],
        [{"program": 3, "stop_time": 1}],
    ]:
        with pytest.raises(ConfigError):
            machine_from_dict({"kind": "table", "entries": entries})
    with pytest.raises(ConfigError):
        machine_from_dict({"kind": "mystery"})
