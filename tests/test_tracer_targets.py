"""Guard for the benchmark's tracer (perfbench/layers.py), which wraps haltlab
functions by name from outside the package and reads a few attributes of
their results. A refactor that renames one of them breaks the benchmark run
without any other test failing, so these checks read the tracer's own table.
The workloads' pinned counts (perfbench/workloads.py) are checked here too,
so that a change which moves one fails before the benchmark runs.
"""

import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys

import pytest

from haltlab import _stepper_py, cli, complexity, halting_prob, machine as machine_module, vm
from haltlab.machine import load_machine
from haltlab.sweep import sweep

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks up its module
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_haltlab_callable():
    targets = perfbench_module("layers").ALL_TARGETS
    assert targets
    for module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_results_have_what_the_tracer_reads():
    assert callable(complexity.min_index_map.cache_info)
    machine = load_machine("builtin:toy-vm")
    assert sweep(machine, 3, 16).space_size == 8
    points = halting_prob.domain_prob_curve(machine, 2, 16).points
    assert [point.total for point in points] == [2, 4]


@pytest.mark.parametrize(
    "argv",
    [
        ["probcurve", "--machine", "builtin:prefix-free-loop-free-vm", "--max-len", "8"],
        ["decompose", "--machine", "builtin:toy-vm", "-k", "4", "--max-len", "8",
         "--budget", "4096"],
        ["density", "--machine", "builtin:loop-free-vm", "--mode", "window", "--length", "1",
         "--horizon", "4095"],
    ],
)
def test_tracer_sees_every_fine_call(kernel, argv):
    """Every call of the kernel, run() and exact_run() goes through the
    tracer's wrappers. A call site that binds one of them where the tracer
    cannot rebind it, in a default argument or a closure, is not counted, and
    the benchmark's traced run then fails on its pinned counts. The pure
    kernel's calls are the calls of its code object, the compiled kernel's
    the C calls of its run_stream."""
    stepper = kernel.run_stream  # read before the profile runs
    names = {
        machine_module.run.__code__: "machine.run.calls",
        machine_module.exact_run.__code__: "machine.exact_run.calls",
    }
    if hasattr(stepper, "__code__"):  # the pure kernel
        names[stepper.__code__] = "vm.run_stream.calls"
    made = dict.fromkeys(["vm.run_stream.calls", *names.values()], 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            made[names[frame.f_code]] += 1
        elif event == "c_call" and arg is stepper:
            made["vm.run_stream.calls"] += 1

    complexity.min_index_map.cache_clear()  # a cached map would run nothing
    with perfbench_module("layers").Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            assert cli.main(argv) == 0
        finally:
            sys.setprofile(None)
    assert made["machine.run.calls"] > 0 and made["vm.run_stream.calls"] > 0
    assert {name: tracer.count(name) for name in made} == made


WORKLOADS = perfbench_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_keep_their_pinned_counts(monkeypatch, name):
    """Each benchmark workload, run in this process under the tracer, gives
    its pinned stdout digest and every pinned count, cold and traced. The
    counts do not depend on the kernel, so the pure one runs them."""
    workload = WORKLOADS[name]
    monkeypatch.setattr(vm, "run_stream", _stepper_py.run_stream)
    complexity.min_index_map.cache_clear()  # a cached map would run nothing
    stdout = io.StringIO()
    with perfbench_module("layers").Tracer() as tracer, contextlib.redirect_stdout(stdout):
        assert cli.main(list(workload.argv)) == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == workload.stdout_sha256
    metrics = tracer.layer_metrics()
    pinned = workload.cold_counts + workload.traced_counts
    assert {counter: metrics[counter] for counter, _ in pinned} == dict(pinned)
