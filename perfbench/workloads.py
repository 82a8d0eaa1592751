"""The benchmark's workloads: fixed CLI calls with pinned results.

Each workload is an exhaustive enumeration with no random input, so its
stdout is fully determined and its SHA-256 is pinned here. The pure and the
compiled kernel give identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    stdout_sha256: str
    # counts that the coarse wrappers record in every sample. They come from
    # the coarse calls' arguments and results, so they show that this process
    # made the call and got a result of full size; the digest and the fresh,
    # cache-cold interpreter show that the result was not reused
    cold_counts: tuple[tuple[str, int], ...]
    # exact counts every traced run must reproduce. The vm and machine counts
    # are summed over the wrapped fine calls themselves, so a call site that
    # was not rebound makes them come out short
    traced_counts: tuple[tuple[str, int], ...]


WORKLOADS = {
    # opaque sweep path: 65,534 programs through sweep.sweep, Fraction
    # analysis in runtime_dist and a 2.9 MB JSON emit
    "decompose-toy15": Workload(
        argv=("decompose", "--machine", "builtin:toy-vm", "-k", "4",
              "--max-len", "15", "--budget", "4096"),
        stdout_sha256="c3cccd673eec0c26498d2c86347ea4860615ced466fff18b5f2794397051bca5",
        cold_counts=(("sweep.programs", 65534),),
        traced_counts=(("sweep.programs", 65534), ("vm.calls", 65517), ("vm.steps", 1201282),
                       ("machine.run.calls", 65544), ("machine.exact_run.calls", 0),
                       ("machine.halted", 65304)),
    ),
    # transparent exact_run path: 131,070 programs, most of them certainly
    # diverging after a few steps, so per-program dispatch dominates
    "probcurve-pflf16": Workload(
        argv=("probcurve", "--machine", "builtin:prefix-free-loop-free-vm",
              "--max-len", "16"),
        stdout_sha256="1b5b0a6e40aad7e6b9f7d8f06b39313c6f55f78659b51538890e46cdd7693005",
        cold_counts=(("halting_prob.programs", 131070),),
        traced_counts=(("machine.exact_run.calls", 131070), ("vm.calls", 258546),
                       ("vm.steps", 823629), ("machine.run.calls", 131070),
                       ("machine.halted", 3546)),
    ),
    # index enumeration in complexity.min_index_map: every run halts with an
    # output, one kernel call per program, no sweep and a tiny emit
    "density-lf22": Workload(
        argv=("density", "--machine", "builtin:loop-free-vm", "--mode", "window",
              "--length", "1", "--horizon", "4194303"),
        stdout_sha256="c10ab92a58416656382ac01b6ec7cdd041efe27d29111d75ea99b894771ec8ba",
        cold_counts=(("complexity.indices", 190650), ("complexity.witnesses", 21)),
        traced_counts=(("complexity.indices", 190650), ("vm.calls", 190625),
                       ("vm.steps", 647016), ("machine.run.calls", 190650),
                       ("machine.exact_run.calls", 190650), ("machine.halted", 190650)),
    ),
}
