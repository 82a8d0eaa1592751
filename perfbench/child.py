"""One cold sample: a fresh interpreter that imports haltlab and runs one workload.

Usage:  python3 perfbench/child.py {timed,traced} WORKLOAD

The child imports haltlab from the checkout's src/ directory and writes the
line "ready" as soon as haltlab.cli is imported with its kernel selected, so
the parent can time set-up. It then runs the workload through cli.main with
stdout captured and writes one JSON line: the measurements and the
environment (where haltlab came from, the kernel, whether the compiled
kernel is importable, the Python version and the CPU count). Timed samples
wrap only the coarse layer calls, to count the work they did; traced samples
wrap every layer. Speed probes (speed.py) run from the first line on, and
every time in the report is scaled to the nominal machine speed; the raw
wall time and the speed factors are reported too.
"""

import sys
from pathlib import Path

from speed import SpeedProbe

PROBE = SpeedProbe()
PROBE.start()
SRC = Path(__file__).resolve().parent.parent / "src"
FRESH = not any(name == "haltlab" or name.startswith("haltlab.") for name in sys.modules)
sys.path.insert(0, str(SRC))

from haltlab import cli, vm  # noqa: E402

SETUP_PROBES = len(PROBE.durations)
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from layers import ALL_TARGETS, COARSE_TARGETS, Tracer, haltlab_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _caches_cold() -> bool:
    """No lru_cache in any haltlab module holds an entry yet."""
    return all(
        value.cache_info().currsize == 0
        for module in haltlab_modules()
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    )


def _cpu_time() -> float:
    """CPU seconds of this process and of its waited-for children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def sample(mode: str, name: str) -> dict:
    argv = list(WORKLOADS[name].argv)
    caches_cold = _caches_cold()
    captured = io.StringIO()
    targets = ALL_TARGETS if mode == "traced" else COARSE_TARGETS
    first_probe = len(PROBE.durations)
    with Tracer(targets) as tracer, contextlib.redirect_stdout(captured):
        cpu_start = _cpu_time()
        start = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_time() - cpu_start
    PROBE.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = PROBE.factor(first_probe) or PROBE.factor(0)
    layers = tracer.layer_metrics()
    for name in layers:
        if name.endswith("_s") or name == "vm.ns_per_step":
            layers[name] *= speed
    stdout = captured.getvalue().encode()
    return {
        "exit_code": code,
        "haltlab": str(Path(cli.__file__).resolve().parent),
        "kernel": vm.KERNEL_NAME,
        "compiled_available": importlib.util.find_spec("haltlab._stepper") is not None,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "pid": os.getpid(),
        "fresh": FRESH,
        "caches_cold": caches_cold,
        "wall_s": wall_s * speed,
        "cpu_s": cpu_s * speed,
        "raw_wall_s": wall_s,
        "speed": speed,
        "setup_speed": PROBE.factor(0, SETUP_PROBES) or speed,
        "peak_rss_mb": peak_rss_mb,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
        "layers": layers,
    }


if __name__ == "__main__":
    try:
        report = sample(sys.argv[1], sys.argv[2])
    finally:
        # SIGPROF terminates a process that has no handler left at exit
        PROBE.stop()
    sys.stdout.write(json.dumps(report) + "\n")
