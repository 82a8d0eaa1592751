"""Per-layer tracing of haltlab from outside the package.

A Tracer replaces public haltlab functions with timing wrappers for the
length of a `with` block. Consumer modules bind these functions by name
(`from haltlab.machine import run`), so patching the defining module alone
would miss their calls without any error. Entering a Tracer therefore
rebinds every attribute of every loaded haltlab module that holds the
original function, and Tracer.rebinds records how many it found.

Spans are not stored one by one: about half a million wrapped calls would
cost more memory than the workloads themselves. Each layer instead keeps its
call count and its self time, the span durations minus the part covered by
child spans, plus the counters that the wrapped calls' results expose.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, layer). The layer is named after the module.
FINE_TARGETS = (
    ("haltlab.vm", "run_stream", "vm"),
    ("haltlab.machine", "run", "machine"),
    ("haltlab.machine", "exact_run", "machine"),
)
# Called a handful of times per workload, so wrapping them costs microseconds.
COARSE_TARGETS = (
    ("haltlab.sweep", "sweep", "sweep"),
    ("haltlab.complexity", "min_index_map", "complexity"),
    ("haltlab.halting_prob", "domain_prob_curve", "halting_prob"),
    ("haltlab.runtime_dist", "split_halting_set", "runtime_dist"),
    ("haltlab.runtime_dist", "induced_distribution", "runtime_dist"),
    ("haltlab.density", "density_report", "density"),
    ("haltlab.cli", "main", "cli"),
)
ALL_TARGETS = FINE_TARGETS + COARSE_TARGETS


def haltlab_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "haltlab" or name.startswith("haltlab."))
    ]


class Tracer:
    """Wraps the given targets while active; read counts and self_s after."""

    def __init__(self, targets=ALL_TARGETS):
        self.targets = tuple(targets)
        self.counts: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.rebinds: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        # child-time accumulators of the open spans; index 0 is the root
        self._stack = [0.0]
        self._machine_depth = 0

    def __enter__(self) -> "Tracer":
        modules = haltlab_modules()
        for module_name, attr, layer in self.targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, f"{module_name[len('haltlab.'):]}.{attr}", layer)
            found = 0
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))
                        found += 1
            self.rebinds[f"{module_name}.{attr}"] = found
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def _add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, fn, key: str, layer: str):
        stack = self._stack
        self_s = self.self_s
        self_s.setdefault(layer, 0.0)
        calls_key = f"{key}.calls"
        self.counts.setdefault(calls_key, 0)
        on_result = self._result_hook(key, fn)
        machine = layer == "machine"

        def traced(*args, **kwargs):
            if machine:
                self._machine_depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                if machine:
                    self._machine_depth -= 1
            self.counts[calls_key] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _result_hook(self, key: str, fn):
        """Counter update from one wrapped call's arguments and result."""
        add = self._add
        if key == "vm.run_stream":
            return lambda args, result: add("vm.steps", result[1])
        if key in ("machine.run", "machine.exact_run"):
            run = key == "machine.run"

            def decided(args, result):
                # only outermost machine calls decide a program; exact_run
                # calls run internally
                if self._machine_depth == 0:
                    add("machine.programs", 1)
                    add("machine.halted", int(result.halted if run else result is not None))

            return decided
        if key == "sweep.sweep":
            return lambda args, result: add("sweep.programs", result.space_size)
        if key == "halting_prob.domain_prob_curve":
            return lambda args, result: add(
                "halting_prob.programs", sum(p.total for p in result.points)
            )
        if key == "complexity.min_index_map":
            # an lru_cache hit enumerates nothing; count only real builds
            misses = [fn.cache_info().misses]

            def built(args, result):
                now = fn.cache_info().misses
                if now > misses[0]:
                    add("complexity.indices", args[1])
                    add("complexity.witnesses", len(result))
                misses[0] = now

            return built
        return None

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of one traced run, named as in BENCHMARK.json."""
        metrics: dict[str, float] = {
            f"{layer}.self_s": seconds for layer, seconds in self.self_s.items()
        }
        steps = self.count("vm.steps")
        vm_calls = self.count("vm.run_stream.calls")
        programs = self.count("machine.programs")
        metrics.update(
            {
                "vm.calls": vm_calls,
                "vm.steps": steps,
                "vm.ns_per_step": metrics.get("vm.self_s", 0.0) * 1e9 / steps if steps else 0.0,
                "machine.run.calls": self.count("machine.run.calls"),
                "machine.exact_run.calls": self.count("machine.exact_run.calls"),
                "machine.halted": self.count("machine.halted"),
                "machine.kernel_calls_per_program": vm_calls / programs if programs else 0.0,
                "sweep.programs": self.count("sweep.programs"),
                "complexity.indices": self.count("complexity.indices"),
                "complexity.witnesses": self.count("complexity.witnesses"),
                "halting_prob.programs": self.count("halting_prob.programs"),
            }
        )
        return metrics
