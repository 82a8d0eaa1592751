import pathlib

import pytest

from haltlab.machine import TableMachine, load_machine

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def table_from_stops(stops):
    """Table machine with these stop times and empty outputs."""
    return TableMachine(tuple((p, t, "") for p, t in stops.items()))


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
