"""Three-way agreement: compiled kernel, pure kernel, reference interpreter.

The reference interpreter in tests/oracles/ref_vm.py was written against
docs/machine-isa.md without looking at the kernels, so agreement here means
the doc, the production code, and an independent reading all coincide.
"""

import importlib.machinery
import importlib.util
import pathlib
import shlex
import subprocess
import sysconfig

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltlab import _stepper_py
from haltlab.machine import PrefixFreeVM, ToyVM, run

from oracles.ref_vm import ref_run

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "haltlab"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel: the installed extension if there is one, else
    _stepper.c built into a temporary directory. Skips when neither works."""
    try:
        from haltlab import _stepper

        return _stepper
    except ImportError:
        pass
    target = tmp_path_factory.mktemp("kernel") / ("_stepper" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-O2", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
        str(SOURCE / "_stepper.c"), "-o", str(target),
    ]
    try:
        subprocess.run(command, check=True, capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        pytest.skip(f"cannot compile the kernel: {exc}")
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


@settings(max_examples=300, deadline=None)
@given(bits, budgets, st.booleans(), st.booleans())
def test_kernels_agree_bit_for_bit(compiled, program, budget, prefix_free, allow_loops):
    args = (program.encode("ascii"), 0, len(program), prefix_free, allow_loops, budget, 1 << 20)
    assert compiled.run_stream(*args) == _stepper_py.run_stream(*args)


def test_kernels_agree_exhaustively_short(compiled):
    # all streams up to 12 bits, both disciplines, tight and loose budgets
    for length in range(13):
        for value in range(2**length):
            program = format(value, f"0{length}b") if length else ""
            raw = program.encode("ascii")
            for prefix_free in (False, True):
                for budget in (3, 64):
                    args = (raw, 0, length, prefix_free, True, budget, 1 << 20)
                    assert compiled.run_stream(*args) == _stepper_py.run_stream(*args)


def test_status_constants_match(compiled):
    for name in ("RUNNING", "HALTED", "DIVERGED", "OUTPUT_LIMIT"):
        assert getattr(compiled, name) == getattr(_stepper_py, name)


def test_generated_c_matches_the_pyx():
    """Each `/* "haltlab/_stepper.pyx":N` block in the shipped C file marks
    line N of the .pyx with `# <<<<<<<<<<<<<<`; a stale C file shows here."""
    pyx = (SOURCE / "_stepper.pyx").read_text().splitlines()
    c_lines = (SOURCE / "_stepper.c").read_text().splitlines()
    blocks = 0
    for i, line in enumerate(c_lines):
        head = line.strip()
        if not head.startswith('/* "haltlab/_stepper.pyx":'):
            continue
        blocks += 1
        number = int(head.rsplit(":", 1)[1])
        end = next(j for j in range(i + 1, len(c_lines)) if c_lines[j].strip() == "*/")
        marked = [text for text in c_lines[i + 1 : end] if text.endswith("# <<<<<<<<<<<<<<")]
        assert len(marked) == 1, f"block at C line {i + 1}"
        source = marked[0].strip()[2:].removesuffix("# <<<<<<<<<<<<<<").rstrip()
        assert source == pyx[number - 1].rstrip(), f"_stepper.pyx line {number}"
    assert blocks > 0
