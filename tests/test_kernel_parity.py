"""Three-way agreement: compiled kernel, pure kernel, reference interpreter.

The reference interpreter in tests/oracles/ref_vm.py was written against
docs/machine-isa.md without looking at the kernels, so agreement here means
the doc, the production code, and an independent reading all coincide.
"""

import itertools
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haltlab import _stepper_py, complexity, vm
from haltlab.errors import ConfigError
from haltlab.halting_prob import domain_prob_curve
from haltlab.machine import (
    _BUILTINS as BUILTINS,
    LOOP_FREE_STEP_CAP,
    Dispatcher,
    PrefixFreeVM,
    RunOutcome,
    ToyVM,
    exact_run,
    is_transparent,
    load_machine,
    observe,
    run,
)
from haltlab.sweep import sweep

from oracles.ref_vm import ref_run, run_core

bits = st.text(alphabet="01", max_size=24)
budgets = st.integers(min_value=0, max_value=4096)

VARIANTS = [
    (ToyVM(), False, True),
    (ToyVM(loop_free=True), False, False),
    (PrefixFreeVM(), True, True),
    (PrefixFreeVM(loop_free=True), True, False),
]


@settings(max_examples=300, deadline=None)
@given(bits, budgets, st.sampled_from(range(len(VARIANTS))))
def test_machine_matches_reference(program, budget, variant):
    machine, prefix_free, allow_loops = VARIANTS[variant]
    expected = ref_run(program, prefix_free, allow_loops, budget)
    outcome = run(machine, program, budget)
    assert (outcome.halted, outcome.stop_time, outcome.output) == expected


def test_machine_matches_reference_exhaustively_short(kernel, kept_outcomes):
    # every program of at most 10 bits, which reaches the odd runs of
    # leading ones ("1", "111", "11111") that end inside a mode field
    programs = [format(v, f"0{n}b") if n else "" for n in range(11) for v in range(2**n)]
    not_halted = set()
    # the first instance of each halted value, unwrapped and wrapped apart:
    # an unwrapped run is kept by its kernel result, a wrapped one by its stop
    unwrapped, wrapped = {}, {}
    for machine, prefix_free, allow_loops in VARIANTS:
        for program, budget in itertools.product(programs, (0, 1, 2, 4096)):
            outcome = run(machine, program, budget)
            assert tuple(outcome) == ref_run(program, prefix_free, allow_loops, budget), program
            if outcome.halted:
                assert type(outcome) is RunOutcome
                first = (wrapped if program >= "11" else unwrapped).setdefault(outcome, outcome)
                assert outcome is first, program
            else:
                not_halted.add(id(outcome))
        if not allow_loops:
            for program in programs:
                halted, stop, output = ref_run(program, prefix_free, False, LOOP_FREE_STEP_CAP)
                assert exact_run(machine, program) == ((stop, output) if halted else None)
    # a run not seen halting returns the one shared instance
    assert len(not_halted) == 1
    assert len(kept_outcomes) == len(unwrapped) + len(wrapped)
    assert {stop for _, stop, _ in wrapped} == {key for key in kept_outcomes if type(key) is int}


@pytest.mark.parametrize("kernel", ["pure", "compiled"])
@pytest.mark.parametrize("budget", [2.5, 4096.0, "64", None], ids=["2.5", "4096.0", "str", "none"])
def test_run_refuses_a_budget_that_is_not_an_int(request, monkeypatch, table1, kernel, budget):
    impl = _stepper_py if kernel == "pure" else request.getfixturevalue("compiled")
    monkeypatch.setattr(vm, "run_stream", impl.run_stream)
    assert run(ToyVM(), "001111110", 7) == (True, 7, "")
    for machine in (ToyVM(), PrefixFreeVM(), table1, Dispatcher((table1,))):
        with pytest.raises(ConfigError):
            run(machine, "001111110", budget)


class BitStr(str):
    """A str subclass: a bit string of this type is a program like any other."""


# a lone surrogate, which has no UTF-8 bytes, non-ASCII digits, whitespace
# and objects that are not a str
ODD_PROGRAMS = [
    "\ud800", "01\udfff", "\u0661", "0\u0660", "\uff11", "\U0001d7cf", "\u00b9",
    " ", "0 1", "\t01", "01\n", "\x00", b"01", b"", bytearray(b"1"), None, 1, 0.0, ["0", "1"],
]
program_like = st.one_of(
    bits,
    bits.map(BitStr),
    st.text(max_size=8),
    st.text(alphabet="01 \u0660\u0661\ud800", max_size=8),
    st.sampled_from(ODD_PROGRAMS),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(program_like)
def test_run_refuses_exactly_what_is_not_a_bit_string(kernel, table1, program):
    refused = not isinstance(program, str) or program.strip("01")
    machines = (ToyVM(), PrefixFreeVM(loop_free=True), table1, Dispatcher((ToyVM(loop_free=True), table1)))
    for machine in machines:
        reads = [(run, 64), (observe, 64)]
        if is_transparent(machine):
            reads += [(exact_run,), (observe, None)]
        for read, *budget in reads:
            if refused:
                with pytest.raises(ConfigError, match="bit string"):
                    read(machine, program, *budget)
            else:
                assert read(machine, program, *budget) == read(machine, str(program), *budget)


def ends_inside_a_mode_field(program):
    """All ones, or an even run of ones and then a last 0: the program ends
    before the mode field after its wrappers is complete."""
    ones = len(program) - len(program.lstrip("1"))
    return ones == len(program) or (ones % 2 == 0 and ones + 1 == len(program))


def test_a_program_that_ends_inside_a_mode_field_makes_no_kernel_call(kernel, monkeypatch):
    calls = []

    def recorded(*args):
        calls.append(args)
        return kernel.run_stream(*args)

    monkeypatch.setattr(vm, "run_stream", recorded)
    programs = [format(v, f"0{n}b") if n else "" for n in range(7) for v in range(2**n)]
    inside = [program for program in programs if ends_inside_a_mode_field(program)]
    assert inside[:6] == ["", "0", "1", "11", "110", "111"]
    for machine, prefix_free, allow_loops in VARIANTS:
        for program in programs:
            calls.clear()
            if machine.loop_free:
                halted, stop, output = ref_run(program, prefix_free, False, LOOP_FREE_STEP_CAP)
                assert exact_run(machine, program) == ((stop, output) if halted else None), program
            else:
                assert tuple(run(machine, program, 4096)) == ref_run(program, prefix_free, True, 4096)
            assert (calls == []) == (program in inside), program


@st.composite
def streams(draw):
    """A program and the offset its core starts at, anywhere up to its end."""
    program = draw(bits)
    return program, draw(st.integers(min_value=0, max_value=len(program)))


@settings(max_examples=300, deadline=None)
@given(streams(), budgets, st.booleans(), st.booleans(), st.sampled_from([0, 1, 2, 5, 16, 1 << 20]))
def test_kernels_agree_bit_for_bit(compiled, stream, budget, prefix_free, allow_loops, output_cap):
    program, start = stream
    raw = program.encode("ascii")
    args = (raw, start, prefix_free, allow_loops)
    # the bytes before start are never read: the core alone gives the same run
    expected = _stepper_py.run_stream(raw[start:], 0, *args[2:], budget, output_cap)
    for kernel in (compiled, _stepper_py):
        assert kernel.run_stream(*args, budget, output_cap) == expected
    assert compiled.run_stream(raw[start:], 0, *args[2:], budget, output_cap) == expected
    if expected[0] != _stepper_py.RUNNING:
        # a run that stops within its budget stops the same way at the
        # largest budget, which only the unsigned 64-bit path can hold
        for kernel in (compiled, _stepper_py):
            assert kernel.run_stream(*args, 2**64 - 1, output_cap) == expected


# code words of docs/machine-isa.md, weighted toward the instructions of
# loops that repeat: INC, OUT0, OUT1, LOOP and SPIN
INC, END, OUT0, OUT1, DBL, SPIN, TIMER, LOOP, ZEROS = (
    "1", "00", "010", "0110", "01110", "011110", "0111110", "01111110", "01111111"
)
WORDS = [INC] * 6 + [OUT0] * 3 + [OUT1] * 3 + [LOOP] * 4 + [SPIN] * 3 + [DBL, TIMER, ZEROS, END]


@st.composite
def word_streams(draw):
    """A stream of whole code words, sometimes cut off inside its last word."""
    stream = "".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8)))
    if draw(st.integers(0, 4)) == 0:
        stream = stream[: draw(st.integers(0, len(stream)))]
    return stream


@settings(max_examples=300, deadline=None)
@given(
    word_streams(),
    st.one_of(budgets, st.integers(min_value=0, max_value=10**6)),
    st.booleans(),
    st.sampled_from([0, 1, 2, 5, 16, 1 << 20]),
)
def test_kernels_agree_on_loops(compiled, stream, budget, prefix_free, output_cap):
    # the pure kernel skips repeating LOOP iterations in bulk; the compiled
    # kernel takes every step
    args = (stream.encode("ascii"), 0, prefix_free, True, budget, output_cap)
    assert compiled.run_stream(*args) == _stepper_py.run_stream(*args)


# loops at the edge of the skip rule, each with output so that the step at
# which the cap refuses it shows how many iterations were skipped
EDGE_LOOPS = [
    # acc is the same after every jump, but TIMER makes SPIN run longer
    ("timer-before-spin", TIMER + SPIN + INC + OUT0 + LOOP),
    # jumps alternate between acc 1 and 0: an iteration with only OUT0 lets
    # acc fall, and one with a LOOP not taken is not a pure INC/OUT iteration
    ("acc-falls", OUT0 + LOOP + INC + INC + LOOP),
    # acc grows and ZEROS writes more every time
    ("zeros-grow", INC + INC + ZEROS + LOOP),
    # acc grows by one per iteration with a fixed output: skipped
    ("inc-out-grows", INC + INC + OUT1 + OUT0 + LOOP),
    # the first SPIN counts down one unit and every later one two
    ("spin-grows", INC + OUT0 + SPIN + INC + INC + LOOP),
    # acc returns to the same value after DBL and SPIN: not skipped
    ("dbl-spin-repeat", INC + DBL + SPIN + OUT1 + INC + LOOP),
]


@pytest.mark.parametrize("stream", [case[1] for case in EDGE_LOOPS], ids=[c[0] for c in EDGE_LOOPS])
def test_kernels_agree_on_edge_loops(compiled, stream):
    raw = stream.encode("ascii")
    for budget, output_cap in itertools.product((4096, 50_000), (0, 1, 2, 5, 16, 100, 1 << 20)):
        args = (raw, 0, False, True, budget, output_cap)
        assert compiled.run_stream(*args) == _stepper_py.run_stream(*args)


INC_INC_LOOP = (INC + INC + LOOP).encode("ascii")
INC_OUT0_LOOP = (INC + OUT0 + LOOP).encode("ascii")


def test_pure_kernel_skips_a_repeating_loop():
    assert INC_INC_LOOP == b"1101111110"
    began = time.perf_counter()
    got = _stepper_py.run_stream(INC_INC_LOOP, 0, False, True, 2**64 - 1, 1 << 20)
    assert time.perf_counter() - began < 1
    assert got == (_stepper_py.RUNNING, 2**64 - 1, None)


def test_pure_kernel_counts_skipped_output_without_building_it():
    # each iteration is 3 steps and one output bit; 2^24 of them fit under
    # the cap and the next one's OUT0 is refused
    expected = (_stepper_py.OUTPUT_LIMIT, 3 * 2**24 + 2, None)
    tracemalloc.start()
    try:
        got = _stepper_py.run_stream(INC_OUT0_LOOP, 0, False, True, 2**64 - 1, 1 << 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 1 << 20


def test_compiled_kernel_refuses_the_skipped_output_at_the_same_step(compiled):
    got = compiled.run_stream(INC_OUT0_LOOP, 0, False, True, 2**64 - 1, 1 << 24)
    assert got == (compiled.OUTPUT_LIMIT, 3 * 2**24 + 2, None)


def test_kernels_agree_exhaustively_short(compiled):
    # all streams up to 12 bits, from the start of the stream and past a
    # two-bit mode prefix, both disciplines, with loops and loop-free, tight
    # and loose budgets and caps. Budget 0 takes no step; budget 1 runs out
    # just before the second word, which may be undecodable
    for length in range(13):
        for value in range(2**length):
            raw = (format(value, f"0{length}b") if length else "").encode("ascii")
            for start, prefix_free, allow_loops, budget, output_cap in itertools.product(
                {0, min(2, length)}, (False, True), (False, True), (0, 1, 3, 64, 4096), (2, 1 << 20)
            ):
                args = (raw, start, prefix_free, allow_loops, budget, output_cap)
                assert compiled.run_stream(*args) == _stepper_py.run_stream(*args)


def test_status_constants_match(compiled):
    for name in ("RUNNING", "HALTED", "DIVERGED", "OUTPUT_LIMIT", "ACC_SATURATION"):
        assert getattr(compiled, name) == getattr(_stepper_py, name)


# (id, arguments, error): the argument contract of docs/machine-isa.md
BAD_ARGUMENTS = [
    ("start-negative", (b"0101", -1, False, True, 64, 16), ValueError),
    ("start-past-the-end", (b"0101", 5, True, True, 64, 16), ValueError),
    ("output-cap-negative", (b"0101", 0, False, True, 64, -1), ValueError),
    ("budget-negative", (b"0101", 0, False, True, -1, 16), OverflowError),
    ("budget-over-64-bits", (b"0101", 0, False, True, 2**64, 16), OverflowError),
    ("bits-str", ("0010", 0, False, True, 64, 16), TypeError),
    ("bits-bytearray", (bytearray(b"0010"), 0, False, True, 64, 16), TypeError),
    ("budget-float", (b"0010", 0, False, True, 64.0, 16), TypeError),
    ("budget-str", (b"0010", 0, False, True, "64", 16), TypeError),
]


@pytest.mark.parametrize(
    "args, error", [case[1:] for case in BAD_ARGUMENTS], ids=[case[0] for case in BAD_ARGUMENTS]
)
def test_kernels_refuse_the_same_arguments(compiled, args, error):
    for kernel in (compiled, _stepper_py):
        with pytest.raises(error):
            kernel.run_stream(*args)


def valid_twin(bits, start, prefix_free, allow_loops, budget, output_cap):
    """The nearest call that keeps the contract: a bad type's twin has the
    same key, so the pure kernel would answer it from the last run."""
    raw = bits.encode("ascii") if isinstance(bits, str) else bytes(bits)
    return raw, min(max(start, 0), len(raw)), prefix_free, allow_loops, 64, max(output_cap, 0)


@pytest.mark.parametrize(
    "args, error", [case[1:] for case in BAD_ARGUMENTS], ids=[case[0] for case in BAD_ARGUMENTS]
)
def test_a_bad_call_is_refused_right_after_its_valid_twin(kernel, args, error):
    twin = valid_twin(*args)
    first = kernel.run_stream(*twin)
    assert first == reference(twin[0].decode("ascii"), *twin[1:])
    with pytest.raises(error):
        kernel.run_stream(*args)
    again = kernel.run_stream(*twin)
    assert again == first
    if kernel is _stepper_py:
        # the refused call left the last run as it was
        assert again is first


class Bits(bytes):
    """A bytes subclass, which both kernels take as bytes."""


@pytest.mark.parametrize("budget", [False, True, 64])
@pytest.mark.parametrize("core", [INC + END, INC + OUT1 + END, INC + OUT0 + "01"])
def test_kernels_take_a_bytes_subclass_and_a_bool_budget(kernel, core, budget):
    raw = ("00" + core).encode("ascii")
    for args in [(Bits(raw), 2, True, False, budget, 16), (raw, 2, False, False, budget, 16)]:
        expected = reference("00" + core, 2, *args[2:4], int(budget), 16)
        _stepper_py.run_stream(b"", 0, False, False, 0, 0)  # a last run with another key
        assert kernel.run_stream(*args) == expected
        # on the pure kernel, answered from the last run, with plain bytes
        # and an int budget and with the call's own types
        assert kernel.run_stream(bytes(raw), 2, *args[2:4], int(budget), 16) == expected
        assert kernel.run_stream(*args) == expected


# ---------------------------------------------------------------------------
# the pure kernel's last run (docs/machine-isa.md, "Kernel interface")

RUNNING, HALTED, DIVERGED, OUTPUT_LIMIT = (
    _stepper_py.RUNNING, _stepper_py.HALTED, _stepper_py.DIVERGED, _stepper_py.OUTPUT_LIMIT
)
REF_STATUS = {"run": RUNNING, "halt": HALTED, "diverge": DIVERGED, "toolong": OUTPUT_LIMIT}


def reference(stream, start, prefix_free, allow_loops, budget, output_cap):
    """The kernel result that tests/oracles/ref_vm.py gives, fresh each time."""
    status, steps, output = run_core(stream[start:], prefix_free, allow_loops, budget, output_cap)
    return REF_STATUS[status], steps, None if output is None else output.encode("ascii")


@pytest.mark.parametrize(
    "stream, prefix_free, end, need",
    [
        (INC + INC + OUT1 + END, False, (HALTED, 4, b"1"), 4),
        (INC + INC + OUT1 + END + INC, True, (DIVERGED, 4, None), 4),
        # an undecodable word needs one step more than the steps taken
        (INC + OUT0 + "01", False, (HALTED, 3, b""), 3),
        (INC + OUT0 + "01", True, (DIVERGED, 2, None), 3),
        (INC + LOOP, False, (HALTED, 2, b""), 2),
    ],
    ids=["end", "early-end", "truncated", "truncated-prefix-free", "loop-refused"],
)
def test_a_call_at_another_budget_is_a_fresh_run(stream, prefix_free, end, need):
    raw = stream.encode("ascii")
    args = (raw, 0, prefix_free, False)
    first = _stepper_py.run_stream(*args, 64, 16)
    assert first == end == reference(stream, *args[1:], 64, 16)
    assert _stepper_py.run_stream(*args, 64, 16) is first
    for budget in (2**64 - 1, need, 64):
        got = _stepper_py.run_stream(*args, budget, 16)
        assert got == first and got is not first, budget
    # one step short the run is still running, as a fresh run is
    short = _stepper_py.run_stream(*args, need - 1, 16)
    assert short == (RUNNING, need - 1, None) == reference(stream, *args[1:], need - 1, 16)


def test_running_and_output_limit_hold_for_their_own_budget_only():
    # INC OUT0 LOOP repeats: its skipped iterations end RUNNING or OUTPUT_LIMIT
    args = (INC_OUT0_LOOP, 0, False, True)
    running = _stepper_py.run_stream(*args, 10, 16)
    assert running == (RUNNING, 10, None)
    assert _stepper_py.run_stream(*args, 10, 16) is running
    assert _stepper_py.run_stream(*args, 11, 16) == (RUNNING, 11, None)
    limited = _stepper_py.run_stream(*args, 64, 2)
    assert limited == (OUTPUT_LIMIT, 8, None)
    assert _stepper_py.run_stream(*args, 64, 2) is limited
    larger = _stepper_py.run_stream(*args, 100, 2)
    assert larger == limited and larger is not limited
    assert _stepper_py.run_stream(*args, 7, 2) == (RUNNING, 7, None)


@pytest.mark.parametrize(
    "core, allow_loops, reach",
    [
        # a prefix-free END before the last byte: every tail gives DIVERGED
        (INC + END + OUT1 + OUT0, True, 3),
        # a LOOP word that a loop-free variant refuses is read to its end
        (INC + LOOP + OUT1, False, 9),
        # a word cut off by the end of the stream is read to that end
        (INC + OUT0[:2], True, 3),
    ],
    ids=["early-end", "loop-refused", "truncated"],
)
@pytest.mark.parametrize("start", [0, 2])
def test_last_run_holds_for_the_bytes_it_read_only(core, allow_loops, reach, start):
    raw = ("11"[:start] + core).encode("ascii")
    args = (start, True, allow_loops, 64, 16)
    for at in range(len(raw)):
        first = _stepper_py.run_stream(raw, *args)
        assert first == reference(raw.decode(), *args)
        changed = raw[:at] + (b"1" if raw[at] == ord("0") else b"0") + raw[at + 1 :]
        got = _stepper_py.run_stream(changed, *args)
        if at < start or at >= start + reach:
            assert got is first, at
        else:
            assert got is not first and got == reference(changed.decode(), *args), at


@pytest.mark.parametrize(
    "short, longer, prefix_free",
    [
        # a word cut off by the end, which the longer stream completes
        (INC + OUT0[:2], INC + OUT1, False),
        # a read past the end, where the longer stream has an END
        (INC + OUT0, INC + OUT0 + END, False),
        # a prefix-free END at the end, which is early in the longer stream
        (INC + END, INC + END + INC, True),
    ],
    ids=["truncated", "read-past-the-end", "prefix-free-end"],
)
@pytest.mark.parametrize("start", [0, 2])
def test_a_run_that_met_the_end_does_not_answer_a_longer_stream(short, longer, prefix_free, start):
    short, longer = "11"[:start] + short, "11"[:start] + longer
    assert longer.startswith(short)
    args = (start, prefix_free, True, 64, 16)
    first = _stepper_py.run_stream(short.encode("ascii"), *args)
    assert first == reference(short, *args)
    got = _stepper_py.run_stream(longer.encode("ascii"), *args)
    assert got == reference(longer, *args) != first


@pytest.mark.parametrize(
    "stream, field, first, second",
    [
        # the same bytes read, in a longer stream
        (INC + END, "bits", INC + END, INC + END + INC),
        # bytes read from another start differ in length, so a compare that
        # dropped start shows only on a refused start (the valid-twin test)
        (INC + INC + OUT1 + END, "start", 0, 1),
        # an early END under both disciplines
        (INC + END + INC, "prefix_free", False, True),
        (INC + LOOP, "allow_loops", True, False),
        # a 3-step run
        (INC + INC + END, "budget", 2, 64),
        (OUT1 + OUT1 + END, "output_cap", 1, 16),
    ],
    ids=["length", "start", "prefix-free", "allow-loops", "budget", "output-cap"],
)
def test_the_last_run_answers_only_a_call_that_matches_every_key_field(
    stream, field, first, second
):
    """A call that differs from the last run in one key field alone is run
    afresh, also where it reads the same bytes; a compare that dropped the
    field would answer it with the last run's different result."""
    results = []
    for value in (first, second):
        call = dict(bits=stream, start=0, prefix_free=True, allow_loops=False, budget=64,
                    output_cap=16)
        call[field] = value
        bits, *args = call.values()
        got = _stepper_py.run_stream(bits.encode("ascii"), *args)
        assert got == reference(bits, *args)
        results.append(got)
    assert _stepper_py.run_stream(bits.encode("ascii"), *args) is got
    assert results[1] != results[0] and results[1] is not results[0]


def test_a_call_that_would_be_answered_is_still_checked():
    raw = (INC + END + OUT1 + OUT0).encode("ascii")
    first = _stepper_py.run_stream(raw, 0, False, True, 64, 16)
    assert first == (HALTED, 2, b"")
    assert _stepper_py.run_stream(raw[:9] + b"0", 0, False, True, 64, 16) is first
    # 64.0 == 64 and a bytearray holds the bytes read, so both agree with
    # the last run's key and bytes
    for bits, budget in [(raw, 64.0), (bytearray(raw), 64)]:
        with pytest.raises(TypeError):
            _stepper_py.run_stream(bits, 0, False, True, budget, 16)
        assert _stepper_py.run_stream(raw, 0, False, True, 64, 16) is first


def test_exact_run_repeats_the_very_call_run_made(monkeypatch):
    """On the exact prefix-free loop-free VM, exact_run repeats run()'s
    kernel call for every program not seen halting; with the same
    arguments the pure kernel answers the repeat with run()'s own tuple."""
    calls = []

    def recorded(*args):
        result = _stepper_py.run_stream(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(vm, "run_stream", recorded)
    machine = PrefixFreeVM(loop_free=True)
    repeats = 0
    for program in (format(v, f"0{n}b") if n else "" for n in range(11) for v in range(2**n)):
        calls.clear()
        exact_run(machine, program)
        if len(calls) == 2:
            (args, result), (again, repeated) = calls
            assert again == args and repeated is result, program
            repeats += 1
    assert repeats > 1000


small_budgets = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 13, 64, 500])
small_caps = st.sampled_from([1, 2, 16, 1 << 20])


@st.composite
def call_sequences(draw):
    """Kernel calls as a census makes them: each stream keeps a drawn prefix
    of the one before, mostly at the same length, and the budget, the
    flags and the cap change now and then."""
    stream = draw(word_streams())
    prefix_free, allow_loops = draw(st.booleans()), draw(st.booleans())
    budget = draw(small_budgets)
    output_cap = draw(small_caps)
    calls = []
    for _ in range(draw(st.integers(min_value=2, max_value=10))):
        cut = draw(st.integers(0, len(stream)))
        if draw(st.integers(0, 4)):
            size = len(stream) - cut
            stream = stream[:cut] + draw(st.text(alphabet="01", min_size=size, max_size=size))
        else:
            stream = stream[:cut] + draw(word_streams())
        if draw(st.integers(0, 3)) == 0:
            prefix_free, allow_loops = draw(st.booleans()), draw(st.booleans())
        if draw(st.integers(0, 3)) == 0:
            budget = draw(small_budgets)
        if draw(st.integers(0, 5)) == 0:
            output_cap = draw(small_caps)
        # now and then a call runs a prefix of the stream, which the next
        # call's longer stream holds
        end = len(stream) if draw(st.integers(0, 3)) else draw(st.integers(0, len(stream)))
        start = draw(st.sampled_from([0, min(2, end)]))
        calls.append((stream[:end], start, prefix_free, allow_loops, budget, output_cap))
    return calls


@settings(max_examples=200, deadline=None)
@given(call_sequences())
def test_sequences_of_calls_match_the_stateless_reference(calls):
    for stream, *args in calls:
        got = _stepper_py.run_stream(stream.encode("ascii"), *args)
        assert got == reference(stream, *args), (stream, args)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_census_is_the_same_on_both_kernels(compiled, monkeypatch, name):
    """Every sweep, probability curve and witness map at N <= 12, run in
    enumeration order, gets the same kernel results on the pure kernel,
    which answers from its last run, as on the stateless compiled one."""
    machine = load_machine("builtin:" + name)
    budget = None if is_transparent(machine) else 4096

    def census(kernel):
        calls = []

        def recorded(*args):
            result = kernel.run_stream(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(vm, "run_stream", recorded)
        complexity.min_index_map.cache_clear()
        histories = [sweep(machine, length, budget) for length in range(13)]
        curve = domain_prob_curve(machine, 12, budget)
        witnesses = list(complexity.min_index_map(machine, 2**13 - 1, budget).items())
        complexity.min_index_map.cache_clear()
        return calls, histories, curve, witnesses

    pure = census(_stepper_py)
    assert len(pure[0]) > 8191
    assert pure == census(compiled)
