"""Three-way agreement: compiled kernel, pure kernel, reference interpreter.

The reference interpreter in tests/oracles/ref_vm.py was written against
docs/machine-isa.md without looking at the kernels, so agreement here means
the doc, the production code, and an independent reading all coincide.
"""

import importlib.machinery
import importlib.util
import itertools
import pathlib
import shlex
import shutil
import subprocess
import sysconfig
import time
import tracemalloc

import pytest
from hypothesis import given, settings
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
    run,
)
from haltlab.sweep import sweep

from oracles.ref_vm import ref_run, run_core

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "haltlab"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel: the installed extension if there is one, else
    _stepper.c built into a temporary directory. Skips only when there is no
    C compiler or no Python.h; a file that does not compile fails."""
    try:
        from haltlab import _stepper

        return _stepper
    except ImportError:
        pass
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(compiler[0]) is None:
        pytest.skip(f"no C compiler: {compiler[0]}")
    if not (pathlib.Path(include) / "Python.h").is_file():
        pytest.skip(f"no Python.h in {include}")
    target = tmp_path_factory.mktemp("kernel") / ("_stepper" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = compiler + [
        "-O2", "-Wall", "-Werror", "-shared", "-fPIC", "-I" + include,
        str(SOURCE / "_stepper.c"), "-o", str(target),
    ]
    built = subprocess.run(command, capture_output=True, text=True, timeout=300)
    if built.returncode != 0:
        pytest.fail(f"_stepper.c does not compile:\n{built.stderr}")
    loader = importlib.machinery.ExtensionFileLoader("haltlab._stepper", str(target))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader("haltlab._stepper", loader, origin=str(target))
    )
    loader.exec_module(module)
    return module

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


def test_machine_matches_reference_exhaustively_short():
    # every program of at most 10 bits, which reaches the odd runs of
    # leading ones ("1", "111", "11111") that end inside a mode field
    programs = [format(v, f"0{n}b") if n else "" for n in range(11) for v in range(2**n)]
    not_halted = set()
    for machine, prefix_free, allow_loops in VARIANTS:
        for program, budget in itertools.product(programs, (0, 1, 2, 4096)):
            outcome = run(machine, program, budget)
            assert tuple(outcome) == ref_run(program, prefix_free, allow_loops, budget), program
            if outcome.halted:
                assert type(outcome) is RunOutcome
            else:
                not_halted.add(id(outcome))
        if not allow_loops:
            for program in programs:
                halted, stop, output = ref_run(program, prefix_free, False, LOOP_FREE_STEP_CAP)
                assert exact_run(machine, program) == ((stop, output) if halted else None)
    # a run not seen halting returns the one shared instance
    assert len(not_halted) == 1


@pytest.mark.parametrize("kernel", ["pure", "compiled"])
@pytest.mark.parametrize("budget", [2.5, 4096.0, "64", None], ids=["2.5", "4096.0", "str", "none"])
def test_run_refuses_a_budget_that_is_not_an_int(request, monkeypatch, table1, kernel, budget):
    impl = _stepper_py if kernel == "pure" else request.getfixturevalue("compiled")
    monkeypatch.setattr(vm, "run_stream", impl.run_stream)
    assert run(ToyVM(), "001111110", 7) == (True, 7, "")
    for machine in (ToyVM(), PrefixFreeVM(), table1, Dispatcher((table1,))):
        with pytest.raises(ConfigError):
            run(machine, "001111110", budget)


@st.composite
def streams(draw):
    """A program, the end of its core anywhere up to the program's end, and
    the offset the core starts at, anywhere up to the core's end."""
    program = draw(bits)
    total = draw(st.integers(min_value=0, max_value=len(program)))
    return program, draw(st.integers(min_value=0, max_value=total)), total


@settings(max_examples=300, deadline=None)
@given(streams(), budgets, st.booleans(), st.booleans(), st.sampled_from([0, 1, 2, 5, 16, 1 << 20]))
def test_kernels_agree_bit_for_bit(compiled, stream, budget, prefix_free, allow_loops, output_cap):
    program, start, total = stream
    raw = program.encode("ascii")
    args = (raw, start, total, prefix_free, allow_loops)
    # the bytes past total are never read: the core alone gives the same run
    expected = _stepper_py.run_stream(raw[:total], *args[1:], budget, output_cap)
    for kernel in (compiled, _stepper_py):
        assert kernel.run_stream(*args, budget, output_cap) == expected
    assert compiled.run_stream(raw[:total], *args[1:], budget, output_cap) == expected
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
    args = (stream.encode("ascii"), 0, len(stream), prefix_free, True, budget, output_cap)
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
        args = (raw, 0, len(raw), False, True, budget, output_cap)
        assert compiled.run_stream(*args) == _stepper_py.run_stream(*args)


INC_INC_LOOP = (INC + INC + LOOP).encode("ascii")
INC_OUT0_LOOP = (INC + OUT0 + LOOP).encode("ascii")


def test_pure_kernel_skips_a_repeating_loop():
    assert INC_INC_LOOP == b"1101111110"
    began = time.perf_counter()
    got = _stepper_py.run_stream(INC_INC_LOOP, 0, 10, False, True, 2**64 - 1, 1 << 20)
    assert time.perf_counter() - began < 1
    assert got == (_stepper_py.RUNNING, 2**64 - 1, None)


def test_pure_kernel_counts_skipped_output_without_building_it():
    # each iteration is 3 steps and one output bit; 2^24 of them fit under
    # the cap and the next one's OUT0 is refused
    expected = (_stepper_py.OUTPUT_LIMIT, 3 * 2**24 + 2, None)
    tracemalloc.start()
    try:
        got = _stepper_py.run_stream(INC_OUT0_LOOP, 0, 12, False, True, 2**64 - 1, 1 << 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 1 << 20


def test_compiled_kernel_refuses_the_skipped_output_at_the_same_step(compiled):
    got = compiled.run_stream(INC_OUT0_LOOP, 0, 12, False, True, 2**64 - 1, 1 << 24)
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
                args = (raw, start, length, prefix_free, allow_loops, budget, output_cap)
                assert compiled.run_stream(*args) == _stepper_py.run_stream(*args)


def test_status_constants_match(compiled):
    for name in ("RUNNING", "HALTED", "DIVERGED", "OUTPUT_LIMIT", "ACC_SATURATION"):
        assert getattr(compiled, name) == getattr(_stepper_py, name)


# (id, arguments, error): the argument contract of docs/machine-isa.md
BAD_ARGUMENTS = [
    ("start-negative", (b"0101", -1, 4, False, True, 64, 16), ValueError),
    ("total-past-the-end", (b"0101", 0, 5, False, True, 64, 16), ValueError),
    ("start-past-total", (b"0101", 3, 2, True, True, 64, 16), ValueError),
    ("output-cap-negative", (b"0101", 0, 4, False, True, 64, -1), ValueError),
    ("budget-negative", (b"0101", 0, 4, False, True, -1, 16), OverflowError),
    ("budget-over-64-bits", (b"0101", 0, 4, False, True, 2**64, 16), OverflowError),
    ("bits-str", ("0010", 0, 4, False, True, 64, 16), TypeError),
    ("bits-bytearray", (bytearray(b"0010"), 0, 4, False, True, 64, 16), TypeError),
    ("budget-float", (b"0010", 0, 4, False, True, 64.0, 16), TypeError),
    ("budget-str", (b"0010", 0, 4, False, True, "64", 16), TypeError),
]


@pytest.mark.parametrize(
    "args, error", [case[1:] for case in BAD_ARGUMENTS], ids=[case[0] for case in BAD_ARGUMENTS]
)
def test_kernels_refuse_the_same_arguments(compiled, args, error):
    for kernel in (compiled, _stepper_py):
        with pytest.raises(error):
            kernel.run_stream(*args)


# ---------------------------------------------------------------------------
# the pure kernel's last run (docs/machine-isa.md, "Kernel interface")

RUNNING, HALTED, DIVERGED, OUTPUT_LIMIT = (
    _stepper_py.RUNNING, _stepper_py.HALTED, _stepper_py.DIVERGED, _stepper_py.OUTPUT_LIMIT
)
REF_STATUS = {"run": RUNNING, "halt": HALTED, "diverge": DIVERGED, "toolong": OUTPUT_LIMIT}


def reference(stream, start, total, prefix_free, allow_loops, budget, output_cap):
    """The kernel result that tests/oracles/ref_vm.py gives, fresh each time."""
    status, steps, output = run_core(stream[start:total], prefix_free, allow_loops, budget, output_cap)
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
def test_last_run_holds_from_the_budget_its_end_needs(stream, prefix_free, end, need):
    raw = stream.encode("ascii")
    args = (raw, 0, len(raw), prefix_free, False)
    first = _stepper_py.run_stream(*args, 64, 16)
    assert first == end == reference(stream, *args[1:], 64, 16)
    assert _stepper_py.run_stream(*args, 2**64 - 1, 16) is first
    assert _stepper_py.run_stream(*args, need, 16) is first
    # one step short the run is still running, as a fresh run is
    short = _stepper_py.run_stream(*args, need - 1, 16)
    assert short == (RUNNING, need - 1, None) == reference(stream, *args[1:], need - 1, 16)


def test_running_and_output_limit_hold_for_their_own_budget_only():
    # INC OUT0 LOOP repeats: its skipped iterations end RUNNING or OUTPUT_LIMIT
    args = (INC_OUT0_LOOP, 0, len(INC_OUT0_LOOP), False, True)
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
    "core, total, allow_loops, reach",
    [
        # a prefix-free END before the last byte: every tail gives DIVERGED
        (INC + END + OUT1 + OUT0, 10, True, 3),
        # a LOOP word that a loop-free variant refuses is read to its end
        (INC + LOOP + OUT1, 13, False, 9),
        # a word cut off by total is read to total, and no further
        (INC + OUT0 + OUT1, 3, True, 3),
    ],
    ids=["early-end", "loop-refused", "truncated"],
)
@pytest.mark.parametrize("start", [0, 2])
def test_last_run_holds_for_the_bytes_it_read_only(core, total, allow_loops, reach, start):
    raw = ("11"[:start] + core).encode("ascii")
    args = (start, start + total, True, allow_loops, 64, 16)
    for at in range(len(raw)):
        first = _stepper_py.run_stream(raw, *args)
        assert first == reference(raw.decode(), *args)
        changed = raw[:at] + (b"1" if raw[at] == ord("0") else b"0") + raw[at + 1 :]
        got = _stepper_py.run_stream(changed, *args)
        if at < start or at >= start + reach:
            assert got is first, at
        else:
            assert got is not first and got == reference(changed.decode(), *args), at


def test_a_call_that_would_be_answered_is_still_checked():
    raw = (INC + END + OUT1 + OUT0).encode("ascii")
    first = _stepper_py.run_stream(raw, 0, 10, False, True, 64, 16)
    assert first == (HALTED, 2, b"")
    assert _stepper_py.run_stream(raw[:9] + b"0", 0, 10, False, True, 64, 16) is first
    for bits, budget, error in [
        (raw[:9], 64, ValueError),  # holds the bytes read, but is shorter than total
        (raw, 64.0, TypeError),
        (bytearray(raw), 64, TypeError),
    ]:
        with pytest.raises(error):
            _stepper_py.run_stream(bits, 0, 10, False, True, budget, 16)
        assert _stepper_py.run_stream(raw, 0, 10, False, True, 64, 16) is first


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
        start = draw(st.sampled_from([0, min(2, len(stream))]))
        total = len(stream) if draw(st.integers(0, 3)) else draw(st.integers(start, len(stream)))
        calls.append((stream, start, total, prefix_free, allow_loops, budget, output_cap))
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
