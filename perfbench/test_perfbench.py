"""Tests of the benchmark's statistics, bound rule, checks and tracer.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import ALL_TARGETS, Tracer  # noqa: E402
from run import Run  # noqa: E402
from stats import quartiles, relative_spread, steady, within_bound, worsening  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# statistics and the bound rule

def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_relative_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]  # quartiles 1.5 and 4.5, median 3
    assert relative_spread(values) == pytest.approx(1.0)
    assert relative_spread([2.0] * 6) == 0.0


def test_steady_means_spread_within_a_third_of_the_bound():
    values = [0.9, 1.0, 1.0, 1.0, 1.1]  # quartiles 0.95 and 1.05, median 1
    assert steady(values, 0.3 + 1e-9)
    assert not steady(values, 0.29)


@pytest.mark.parametrize(
    "before, after, better, expected",
    [
        (2.0, 2.2, "lower", 0.1),  # slower
        (2.0, 1.8, "lower", -0.1),  # faster
        (100.0, 90.0, "higher", 0.1),  # fewer hits
        (100.0, 110.0, "higher", -0.1),
    ],
)
def test_worsening_is_signed_by_direction(before, after, better, expected):
    assert worsening(before, after, better) == pytest.approx(expected)


def test_within_bound_accepts_up_to_the_bound():
    assert within_bound(2.0, 2.5, "lower", 0.25)
    assert not within_bound(2.0, 2.5001, "lower", 0.25)
    assert within_bound(1.0, 0.5, "lower", 0.05)
    assert not within_bound(10.0, 9.0, "higher", 0.05)


def test_worsening_rejects_unknown_direction():
    with pytest.raises(ValueError):
        worsening(1.0, 2.0, "faster")


# ---------------------------------------------------------------------------
# BENCHMARK.json against the code that fills it

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_names_workloads_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _tiny_traced(argv):
    import haltlab.cli

    captured = io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(captured):
        assert haltlab.cli.main(argv) == 0
    return tracer, captured.getvalue()


def test_per_layer_spec_matches_tracer_metrics():
    tracer, _ = _tiny_traced(["probcurve", "--machine", "builtin:prefix-free-loop-free-vm",
                              "--max-len", "4"])
    produced = set(tracer.layer_metrics()) | {"cli.stdout_bytes", "trace.overhead_s", "raw_wall_s"}
    # halting_prob.programs only serves the cold-sample guard
    assert {m["name"] for m in SPEC["per_layer"]} == produced - {"halting_prob.programs"}


# ---------------------------------------------------------------------------
# the tracer

def test_tracer_rebinds_every_import_and_restores_them():
    import haltlab.machine
    import haltlab.halting_prob

    original = haltlab.machine.exact_run
    tracer, _ = _tiny_traced(["probcurve", "--machine", "builtin:prefix-free-loop-free-vm",
                              "--max-len", "8"])
    assert haltlab.machine.exact_run is original
    assert haltlab.halting_prob.exact_run is original
    # from-imports in consumer modules are rebound, not only the definition
    assert tracer.rebinds["haltlab.machine.exact_run"] > 1
    assert all(tracer.rebinds[f"{m}.{a}"] >= 1 for m, a, _ in ALL_TARGETS)
    metrics = tracer.layer_metrics()
    programs = 2**9 - 2
    assert metrics["machine.exact_run.calls"] == programs
    assert metrics["halting_prob.programs"] == programs
    assert metrics["machine.kernel_calls_per_program"] == metrics["vm.calls"] / programs


def test_tracer_counts_sweep_programs_and_splits_self_time():
    tracer, stdout = _tiny_traced(["decompose", "--machine", "builtin:toy-vm", "-k", "4",
                                   "--max-len", "6", "--budget", "1024"])
    metrics = tracer.layer_metrics()
    assert metrics["sweep.programs"] == 2**7 - 2
    assert metrics["machine.halted"] <= metrics["machine.run.calls"]
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(t >= 0 for t in self_times)
    # the cli span encloses every other span, so self times add up to it
    assert sum(self_times) == pytest.approx(tracer._stack[0], rel=1e-9)
    assert stdout.startswith("{")


def test_min_index_map_counts_only_cache_misses():
    from haltlab import complexity
    from haltlab.machine import load_machine

    machine = load_machine("builtin:loop-free-vm")
    complexity.min_index_map(machine, 300, None)  # fill the cache
    with Tracer() as tracer:
        complexity.min_index_map(machine, 300, None)
    assert tracer.count("complexity.min_index_map.calls") == 1
    assert tracer.count("complexity.indices") == 0


# ---------------------------------------------------------------------------
# the per-sample checks

def _good_report(name):
    workload = WORKLOADS[name]
    layers = dict(workload.cold_counts + workload.traced_counts)
    return {
        "exit_code": 0,
        "haltlab": str(ROOT / "src" / "haltlab"),
        "kernel": "pure",
        "fresh": True,
        "caches_cold": True,
        "stdout_sha256": workload.stdout_sha256,
        "layers": layers,
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_check_accepts_a_pinned_report(name):
    assert Run(name)._check("traced", _good_report(name), None) is None


@pytest.mark.parametrize(
    "change",
    [
        {"stdout_sha256": "0" * 64},
        {"haltlab": "/elsewhere/haltlab"},
        {"exit_code": 5},
        {"fresh": False},
        {"caches_cold": False},
        {"kernel": "compiled"},
        {"layers": {"complexity.indices": 190650, "complexity.witnesses": 20}},
    ],
)
def test_check_rejects_a_bad_report(change):
    report = dict(_good_report("density-lf22"), **change)
    assert Run("density-lf22")._check("timed", report, "pure") is not None


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_check_rejects_a_short_traced_count(name):
    for counter in ("vm.calls", "vm.steps", "machine.run.calls"):
        report = _good_report(name)
        report["layers"][counter] -= 1
        run = Run(name)
        assert run._check("timed", report, None) is None  # not pinned untraced
        assert counter in run._check("traced", report, None)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "density-lf22", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_factor_is_mean_relative_speed():
    from speed import NOMINAL_S, SpeedProbe

    probe = SpeedProbe()
    assert probe.factor(0) is None
    probe.durations = [NOMINAL_S, NOMINAL_S / 2, NOMINAL_S * 2, NOMINAL_S]
    assert probe.factor(0) == pytest.approx((1 + 2 + 0.5 + 1) / 4)
    assert probe.factor(1, 2) == pytest.approx(2.0)
