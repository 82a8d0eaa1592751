"""Machine-speed probes, so that times can be reported at a fixed speed.

The machines this benchmark runs on share their cores with other tenants,
and the speed of Python code drifts by 25% over minutes and by up to 2x
over fractions of a second. Median times of two runs a few minutes apart
therefore differ by more than any useful bound.

A SpeedProbe interrupts its process every PERIOD_S of CPU time and times a
fixed pure-Python loop. The loop is mostly integer arithmetic plus a little
string and dict work; string and dict work alone slows down more under
contention than the workloads do, integer work alone a little less. The
mean of NOMINAL_S / duration over the probes taken during an interval is the
average speed in that interval relative to a machine on which the loop
takes NOMINAL_S. A time multiplied by that factor is the time the same work
would have taken at the nominal speed. The probes cost about 0.5% of the
CPU time, on every commit alike.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.01
INT_LOOPS = 800
DICT_LOOPS = 20
# a fixed scale: about the loop's mean time on the 2-CPU x86 VM where the
# bounds in BENCHMARK.json were set, so that scaled times read as seconds there
NOMINAL_S = 45e-6


class SpeedProbe:
    def __init__(self) -> None:
        self.durations: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        x = 0
        for i in range(INT_LOOPS):
            x += i & 3
        d: dict[str, int] = {}
        for i in range(DICT_LOOPS):
            k = str(i & 15)
            d[k] = d.get(k, 0) + len(k)
        self.durations.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def factor(self, first: int, last: int | None = None) -> float | None:
        """Mean speed over probes [first, last) relative to nominal; None if none."""
        durations = self.durations[first:last]
        if not durations:
            return None
        return sum(NOMINAL_S / d for d in durations) / len(durations)
