"""haltlab: a desk-scale laboratory for halting statistics.

Everything here computes with exact integers and rationals. Probabilities are
`fractions.Fraction`, uncertain quantities are closed rational intervals, and
"does not halt" is never observed directly: negative knowledge is always
relative to a step budget.

The CLI states the paper's three claims (Calude & Stay, "Most programs stop
quickly or never halt"): a computable horizon T(k) past which halting has
probability below 2^-k (threshold, decide), a computable/rare split of the
halting set (decompose), and the zero density of late stop times (density).
Its exclusion mode checks, one length at a time, that every stop time
t_p >= 2^(2|p|+2c+1) is non-random. No subcommand calls the functions
below; each checks one statement the proofs rest on. Here c = 2 is the
timing wrapper's program overhead.

    runtime_dist.RuntimeDistribution.tail_mass
        the observed mass at indices >= T(k) is below 2^-k
    complexity.random_string_density
        at least a 1 - 1/n share of n-bit strings have complexity >= 2^n/n
    complexity.time_randomness
        a time t is random when no index below 2^|code(t)|/|code(t)| produces code(t)
    density.power_gap_holds
        2^|code(t)| > 2^n * |code(t)| for every t >= 2^(2n-1), n >= 4
    density.stratum_average
        the 2^i-weighted average of 1/(m+i), i = 0..s, is below 5/(m+s-1)
    density.required_horizon
        the least window end 2^(m+s) - 1 with 5/(m+s-1) < 2^-k
    density.density_with_margin
        random times fill more than 1 - 2^-k of the window [2^m, that end]
    density.stop_code_violations
        the code of t_p has complexity <= 2^(|p|+c+1), linted on a table
    machine.timed_table
        the timing wrapper of a table, the witness that statement needs
"""

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.intervals import Interval
from haltlab.machine import (
    Dispatcher,
    PrefixFreeVM,
    RunOutcome,
    TableMachine,
    ToyVM,
    is_transparent,
    load_machine,
    machine_from_dict,
    run,
    time_wrap,
)
from haltlab.complexity import time_randomness
from haltlab.density import density_report, exclusion_report
from haltlab.halting_prob import domain_prob_curve
from haltlab.runtime_dist import (
    halting_series,
    induced_distribution,
    split_halting_set,
    tail_threshold,
)
from haltlab.sweep import HaltingHistory, conditional_probs, prob_by, prob_exact, sweep

__version__ = "0.1.0"

__all__ = [
    "bits_of_index",
    "index_of_bits",
    "Interval",
    "TableMachine",
    "ToyVM",
    "PrefixFreeVM",
    "Dispatcher",
    "RunOutcome",
    "run",
    "time_wrap",
    "is_transparent",
    "load_machine",
    "machine_from_dict",
    "HaltingHistory",
    "sweep",
    "prob_exact",
    "prob_by",
    "conditional_probs",
    "time_randomness",
    "halting_series",
    "induced_distribution",
    "tail_threshold",
    "split_halting_set",
    "density_report",
    "exclusion_report",
    "domain_prob_curve",
    "__version__",
]
