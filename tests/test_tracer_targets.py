"""Guard for the benchmark's tracer (perfbench/layers.py), which wraps haltlab
functions by name from outside the package and reads a few attributes of
their results. A refactor that renames one of them breaks the benchmark run
without any other test failing, so these checks read the tracer's own table.
"""

import importlib.util
import pathlib

from haltlab import complexity, halting_prob
from haltlab.machine import load_machine
from haltlab.sweep import sweep

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def tracer_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_haltlab_callable():
    targets = tracer_layers().ALL_TARGETS
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
