from bisect import bisect_left
import importlib.machinery
import importlib.util
from operator import itemgetter
import pathlib
import shlex
import shutil
import subprocess
import sysconfig
from typing import NamedTuple

import pytest

from haltlab import _stepper_py, machine, vm
from haltlab.codec import bits_of_index
from haltlab.machine import Dispatcher, TableMachine, load_machine, observe

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "haltlab"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel: the importable extension if it is not older than
    _stepper.c, else _stepper.c built into a temporary directory, so that a
    stale build never stands in for the source. Skips only when there is no
    C compiler or no Python.h; a file that does not compile fails."""
    try:
        from haltlab import _stepper

        stamp = pathlib.Path(_stepper.__file__).stat().st_mtime
        if stamp >= (SOURCE / "_stepper.c").stat().st_mtime:
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
        "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC", "-I" + include,
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


@pytest.fixture(params=["pure", "compiled"])
def kernel(request, monkeypatch):
    """Each kernel in turn, patched in as haltlab.vm.run_stream; the
    compiled one skips where the compiled fixture does."""
    impl = _stepper_py if request.param == "pure" else request.getfixturevalue("compiled")
    monkeypatch.setattr(vm, "run_stream", impl.run_stream)
    return impl


@pytest.fixture
def kept_outcomes(monkeypatch):
    """machine.run's dict of shared outcomes, emptied for this test and
    restored after it, so that a test of its identity or size does not
    depend on the tests run before it. An unwrapped run is keyed by its
    kernel result tuple, a wrapped one by its final stop time."""
    monkeypatch.setattr(machine, "_kept", {})
    return machine._kept


def table_from_stops(stops):
    """Table machine with these stop times and empty outputs."""
    return TableMachine(tuple((p, t, "") for p, t in stops.items()))


def assert_stops_equal(history, expected):
    """history lists the pairs of the dict expected, in the same order."""
    assert list(history.pairs()) == list(expected.items())
    assert list(history.times) == list(expected.values())


def mode_block_bases(n):
    """The first index of each mode block of length n, and of the programs
    that end inside a mode field."""
    bases, at = [], 2**n
    for core_length in range(n - 2, -1, -2):
        bases += [at, at + 2**core_length, at + 2 * 2**core_length]
        at += 3 * 2**core_length
    return bases + [at]


@pytest.fixture(scope="session")
def table1():
    return load_machine(str(FIXTURES / "table1.json"))


@pytest.fixture(scope="session")
def fixture_f():
    return load_machine(str(FIXTURES / "fixture_f.json"))


@pytest.fixture(scope="session")
def toy_vm():
    return load_machine("builtin:toy-vm")


@pytest.fixture(scope="session")
def loop_free_vm():
    return load_machine("builtin:loop-free-vm")


@pytest.fixture(scope="session")
def prefix_free_vm():
    return load_machine("builtin:prefix-free-vm")


@pytest.fixture(scope="session")
def prefix_free_loop_free_vm():
    return load_machine("builtin:prefix-free-loop-free-vm")


# the census holds every index 1 .. 2^CENSUS_BITS - 1, lengths 0..12
CENSUS_BITS = 13


class Census(NamedTuple):
    """Every program of length at most 12 observed once on each census
    machine: within its budget on an opaque one, exactly on a transparent
    one. A run within budget b halts exactly when its stop time is at most
    b, so the record at budget 4096 answers every budget up to 4096 by a
    filter on stop times."""

    machines: dict  # name -> (machine, the budget of its record)
    hits: dict  # name -> [(index, (stop time, output))] in index order

    def scan(self, name: str, lo: int, hi: int, budget: int | None) -> list:
        """What an observe() loop over [lo, hi) within budget sees halting,
        in index order: (index, (stop time, output))."""
        recorded = self.machines[name][1]
        assert 1 <= lo and hi <= 2**CENSUS_BITS
        assert budget is None if recorded is None else 1 <= budget <= recorded
        hits = self.hits[name]
        at, end = (bisect_left(hits, i, key=itemgetter(0)) for i in (lo, hi))
        return [hit for hit in hits[at:end] if budget is None or hit[1][0] <= budget]

    def stops(self, name: str, length: int, horizon: int | None) -> dict:
        """The stop-time dict of an observe() loop over one length."""
        return {
            bits_of_index(i): hit[0]
            for i, hit in self.scan(name, 2**length, 2 ** (length + 1), horizon)
        }


@pytest.fixture(scope="session")
def census(toy_vm, prefix_free_vm, loop_free_vm, prefix_free_loop_free_vm, table1, fixture_f):
    """The Census of eight machines, named as their fixtures: toy_vm and
    prefix_free_vm at budget 4096; the loop-free VMs, table1, fixture_f
    (whose domain holds the empty program), a dispatcher over loop_free_vm
    and table1, and "tables", a dispatcher over table1 and fixture_f whose
    finite domain ends at index 31, read exactly. It is built once, through
    observe() on the pure kernel whatever HALTLAB_KERNEL says, and fails
    if any run raises."""
    machines = {
        "toy_vm": (toy_vm, 4096),
        "prefix_free_vm": (prefix_free_vm, 4096),
        "loop_free_vm": (loop_free_vm, None),
        "prefix_free_loop_free_vm": (prefix_free_loop_free_vm, None),
        "table1": (table1, None),
        "fixture_f": (fixture_f, None),
        "dispatcher": (Dispatcher((loop_free_vm, table1)), None),
        "tables": (Dispatcher((table1, fixture_f)), None),
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vm, "run_stream", _stepper_py.run_stream)
        hits = {
            name: [
                (i, hit)
                for i in range(1, 2**CENSUS_BITS)
                if (hit := observe(m, bits_of_index(i), budget)) is not None
            ]
            for name, (m, budget) in machines.items()
        }
    return Census(machines, hits)
