"""Description complexity by program index, and random stop times.

The complexity of a string x relative to a machine is the least index n whose
program produces x. Indices double as time values, so a time t is called
random when no index at or below short_index_cap(len), the largest index
under 2^len / len, produces code(t). Late stop times of short programs are
never random, because the timing wrapper 11p compresses them: find_witness,
given the program, tries its wrapper before the least producing index. On
transparent machines the verdicts are exact; on opaque machines a found
witness certifies "nonrandom" but absence of one only yields "unknown". The
least-index maps are cached; the enumeration cap binds only those enumerated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from haltlab.codec import bits_of_index, index_of_bits
from haltlab.errors import ConfigError
from haltlab.machine import (
    MAX_BUDGET,
    TIME_WRAP_EXTRA_BITS,
    TIME_WRAP_STEP_OVERHEAD,
    Machine,
    PrefixFreeVM,
    ToyVM,
    check_budget,
    finite_domain,
    is_transparent,
    observe,
    time_wrap,
)
from haltlab.sweep import _scan, check_enum_cap

RANDOM = "random"
NONRANDOM = "nonrandom"
UNKNOWN = "unknown"


@lru_cache(maxsize=256)
def min_index_map(machine: Machine, cap: int, budget: int | None) -> dict[str, int]:
    """Map output -> least index n <= cap producing it (within budget if opaque).

    Each output keeps the first index _scan gives it. A VM's core order keeps
    that the least, and the first run that raises the least offending one,
    whenever a range starts at 1 or a length boundary; every range here
    starts at 1 (haltlab.sweep). The dict is shared through the cache, so
    treat it as read-only; a finite domain is read from its items, uncapped.
    """
    if cap < 0:
        raise ConfigError(f"cap must be >= 0, got {cap}")
    found: dict[str, int] = {}
    for n, (_, output) in _scan(machine, 1, cap + 1, budget):
        found.setdefault(output, n)
    return found


def short_index_cap(length: int) -> int:
    """Largest index below 2^length / length: a string of this length is
    non-random when some index at or under this cap produces it."""
    if length < 1:
        raise ConfigError(f"randomness is defined for code lengths >= 1, got {length}")
    return ((1 << length) - 1) // length


def _check_witness_cap(machine: Machine, code_length: int) -> None:
    """Refuse the witnesses of codes up to L = code_length bits before their
    cap, of L - L.bit_length() + 1 bits, is built; a finite domain is exempt."""
    if finite_domain(machine) is None:  # a finite domain is read, never enumerated
        check_enum_cap(code_length - code_length.bit_length())


def find_witness(
    machine: Machine, code: str, cap: int, budget: int | None, program: str | None = None
) -> int | None:
    """An index at or below cap that produces code, or None. On the VM kinds
    a given program's timing wrapper is tried first, run exactly when budget
    is None, else within budget + 1 steps capped at MAX_BUDGET (a halt seen
    is a witness either way); then the least index producing code (min_index_map)."""
    if program is not None and isinstance(machine, (ToyVM, PrefixFreeVM)):
        wrapped = time_wrap(program)
        wrap_budget = None if budget is None else min(budget + TIME_WRAP_STEP_OVERHEAD, MAX_BUDGET)
        hit = observe(machine, wrapped, wrap_budget)
        if hit is not None and hit[1] == code and index_of_bits(wrapped) <= cap:
            return index_of_bits(wrapped)
    return min_index_map(machine, cap, budget).get(code)


def time_randomness(machine: Machine, t: int, budget: int | None = None) -> str:
    """Classify stop time t as random / nonrandom / unknown."""
    check_budget(machine, budget)
    if t < 2:
        raise ConfigError(f"randomness is defined for t >= 2, got {t}")
    _check_witness_cap(machine, t.bit_length() - 1)  # len(code(t)), before code(t) is built
    code = bits_of_index(t)
    if find_witness(machine, code, short_index_cap(len(code)), budget) is not None:
        return NONRANDOM  # witness halts, so the bound holds even under budget
    return RANDOM if budget is None else UNKNOWN


class BoundCheck(NamedTuple):
    """Stop-time compressibility check for one program."""

    program: str
    applicable: bool  # False: the program did not stop within the budget
    stop_time: int | None
    cap: int  # 2^(len(program) + 3)
    witness_index: int | None
    holds: bool | None


def stop_time_bound_holds(machine: Machine, program: str, budget: int | None) -> BoundCheck:
    """Check that the code of the stop time has complexity <= 2^(len(p)+c+1),
    reading the program within budget steps, or exactly when budget is None.

    On the VM kinds the timing wrapper, whose index is below the cap, is
    the witness; on the other kinds the least producing index is.
    """
    check_budget(machine, budget)
    cap = 2 ** (len(program) + TIME_WRAP_EXTRA_BITS + 1)
    hit = observe(machine, program, budget)
    if hit is None:
        return BoundCheck(program, False, None, cap, None, None)
    witness = find_witness(machine, bits_of_index(hit[0]), cap, budget, program)
    return BoundCheck(program, True, hit[0], cap, witness, witness is not None)


class RandomStringDensity(NamedTuple):
    """Exact density of random strings of one length on a transparent machine."""

    length: int
    nonrandom_count: int
    density: Fraction
    floor: Fraction  # 1 - 1/length, certified lower bound


def random_string_density(machine: Machine, length: int) -> RandomStringDensity:
    """Fraction of length-n strings with complexity >= 2^n/n (exact).

    Strings no program below the threshold produces count as random; that is
    the verdict, not a budget artifact, because the machine is transparent.
    """
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    if not is_transparent(machine):
        raise ConfigError("random_string_density requires a transparent machine")
    _check_witness_cap(machine, length)  # before short_index_cap(length) is built
    reached = min_index_map(machine, short_index_cap(length), None)
    nonrandom = sum(1 for output in reached if len(output) == length)
    total = 1 << length
    return RandomStringDensity(
        length=length,
        nonrandom_count=nonrandom,
        density=Fraction(total - nonrandom, total),
        floor=1 - Fraction(1, length),
    )
