#!/usr/bin/env python3
"""Benchmark of haltlab CLI workloads, one fresh interpreter per sample.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decompose-toy15 --seed 1 --seconds 30 --trace 0

Every sample starts a new interpreter (perfbench/child.py), because
complexity.min_index_map is an lru_cache: a warm process would time cache
hits that no CLI user ever gets. Samples run one after another, each with
the default --workers 1, until --seconds have been spent (at least a few).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the samples. --trace 1 alternates untraced and traced samples, in an order
drawn from --seed, and reports the per-layer metrics of the traced ones
together with the tracing overhead. The workloads themselves are exhaustive
enumerations with no random input, so that their stdout can be pinned.

Every sample is checked: exit code 0, no traceback, the pinned SHA-256 of
stdout, a fresh interpreter with empty caches, and the pinned work counts.
When the compiled kernel is importable, each workload also runs once on each
kernel and both must give the pinned bytes. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 0 only when every sample passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import quartiles
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SAMPLE_TIMEOUT_S = 120
# a run ends within this many seconds even when samples hang
RUN_LIMIT_S = 170
MIN_TIMED = 5
MIN_TRACED_PAIRS = 2
# the environment fields of a child's report, printed with every result
ENV_KEYS = ("haltlab", "kernel", "compiled_available", "python", "cpus")


class Run:
    """Samples of one benchmark run and the failures among them."""

    def __init__(self, name: str):
        self.name = name
        self.workload = WORKLOADS[name]
        self.attempted = 0
        self.failed = 0
        # ENV_KEYS of the first sample that passed
        self.env: dict | None = None
        self.hard_deadline = time.perf_counter() + RUN_LIMIT_S

    def expired(self) -> bool:
        return time.perf_counter() >= self.hard_deadline

    def sample(self, mode: str, kernel: str | None = None) -> dict | None:
        """One child process; its report, or None (logged) if it failed."""
        self.attempted += 1
        report, problem = self._spawn(mode, kernel)
        if problem is None:
            problem = self._check(mode, report, kernel)
        if problem is not None:
            self.failed += 1
            print(f"sample {self.attempted} ({mode}) failed: {problem}", file=sys.stderr)
            return None
        if self.env is None:
            self.env = {key: report[key] for key in ENV_KEYS}
        return report

    def _spawn(self, mode: str, kernel: str | None) -> tuple[dict, str | None]:
        env = dict(os.environ)
        env.pop("HALTLAB_KERNEL", None)
        if kernel is not None:
            env["HALTLAB_KERNEL"] = kernel
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, self.name],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        timeout = min(SAMPLE_TIMEOUT_S, self.hard_deadline - time.perf_counter())
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, err = proc.communicate()
        finally:
            timer.cancel()
        if proc.returncode != 0 or "Traceback" in err or ready != "ready\n":
            return {}, f"exit {proc.returncode}: {err.strip()[-2000:]}"
        report = json.loads(out.splitlines()[-1])
        report["raw_setup_s"] = setup_s
        report["setup_s"] = setup_s * report["setup_speed"]
        if report["pid"] != proc.pid:
            return report, "result came from another process"
        return report, None

    def _check(self, mode: str, report: dict, kernel: str | None) -> str | None:
        workload = self.workload
        if Path(report["haltlab"]) != ROOT / "src" / "haltlab":
            return f"imported haltlab from {report['haltlab']}, not src/"
        if report["exit_code"] != 0:
            return f"cli.main returned {report['exit_code']}"
        if report["stdout_sha256"] != workload.stdout_sha256:
            return f"stdout digest {report['stdout_sha256']} is not the pinned one"
        if kernel is not None and report["kernel"] != kernel:
            return f"asked for the {kernel} kernel, ran {report['kernel']}"
        if not (report["fresh"] and report["caches_cold"]):
            return "haltlab was imported or its caches filled before the sample"
        pinned = workload.cold_counts
        if mode == "traced":
            pinned += workload.traced_counts
        for counter, expected in pinned:
            if report["layers"][counter] != expected:
                return f"{counter} = {report['layers'][counter]}, expected {expected}"
        return None


def _until(run: Run, deadline: float, minimum: int, step) -> None:
    """Call step() at least `minimum` times, then while another fits before deadline."""
    done = 0
    last = 0.0
    while not run.expired() and (done < minimum or time.perf_counter() + last < deadline):
        start = time.perf_counter()
        step()
        last = time.perf_counter() - start
        done += 1


def timed_values(run: Run, seconds: float) -> dict[str, list[float]]:
    samples: list[dict] = []

    def step():
        report = run.sample("timed")
        if report is not None:
            samples.append(report)

    _until(run, time.perf_counter() + seconds, MIN_TIMED, step)
    if not samples:
        return {}
    names = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "raw_wall_s", "raw_setup_s", "speed")
    return {n: [s[n] for s in samples] for n in names}


def traced_values(run: Run, seconds: float, seed: int) -> dict[str, list[float]]:
    rng = random.Random(seed)
    plain: list[dict] = []
    traced: list[dict] = []

    def step():
        modes = ["timed", "traced"]
        rng.shuffle(modes)
        for mode in modes:
            report = run.sample(mode)
            if report is not None:
                (traced if mode == "traced" else plain).append(report)

    _until(run, time.perf_counter() + seconds, MIN_TRACED_PAIRS, step)
    if not (plain and traced):
        return {}
    values = {name: [s["layers"][name] for s in traced] for name in traced[0]["layers"]}
    values["cli.stdout_bytes"] = [s["stdout_bytes"] for s in traced]
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in plain
    )
    values["trace.overhead_s"] = [overhead]
    # unscaled, so that a change the speed scaling divides out still shows
    values["raw_wall_s"] = [s["raw_wall_s"] for s in plain]
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "haltlab" / "cli.py").is_file():
        print(f"perfbench: no haltlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args.workload)
    if args.trace:
        values = traced_values(run, args.seconds, args.seed)
    else:
        values = timed_values(run, args.seconds)
    if run.env is not None and run.env["compiled_available"]:
        # the pinned digest holds on both kernels, so this is a cross-kernel check
        for kernel in ("compiled", "pure"):
            run.sample("timed", kernel)
    measured = {
        # counts stay whole numbers
        name: statistics.median_low(v) if all(isinstance(x, int) for x in v) else statistics.median(v)
        for name, v in values.items()
    }

    context = dict(run.env or {}, workload=args.workload, seed=args.seed, trace=args.trace)
    context["failed_share"] = run.failed / run.attempted
    print(json.dumps(context))
    for name, v in values.items():
        q1, q2, q3 = quartiles(v)
        print(f"{name}: median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}, n={len(v)}")
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
    correct = run.failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in measured
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
