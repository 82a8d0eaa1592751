"""Machine descriptors and budgeted execution semantics.

Four machine kinds share one run() interface:

  ToyVM          bit programs on the ladder ISA; lenient halting (running off
                 the stream halts with empty output), so the domain is dense.
  PrefixFreeVM   same ISA, strict halting: END must fire exactly when the last
                 input bit has been consumed, everything else never halts.
                 The halting programs form a prefix-free set.
  TableMachine   finite explicit (program, stop_time, output) table; it keeps
                 its entries in index order.
  Dispatcher     program 0^i 1 x runs submachine i on x, and its outcome is
                 the submachine's: the index prefix is free of charge.

Every program is (2-bit mode)(rest). Mode "11" is the timing wrapper: run the
rest as a full program and, if it stops, emit the bit-code of its stop time.
So time_wrap(p) = "11"+p costs TIME_WRAP_EXTRA_BITS = 2 program bits and
TIME_WRAP_STEP_OVERHEAD = 1 extra step per nesting level. All other mode
values execute the rest directly on the base ISA. Hence a program that starts
with L ones is L // 2 wrappers deep.

A RunOutcome is a named tuple (halted, stop_time, output); every run that is
not seen halting returns one shared instance, equal to RunOutcome.running().
run() builds a halted one with tuple.__new__, skipping the generated
__new__, and refuses a budget that is not an int in [0, MAX_BUDGET].
run() dispatches on the exact machine class (a subclass is an unknown
machine) and runs a VM program in its own body: one kernel call on the core
after the wrappers. A VM run whose output passes the fixed DEFAULT_OUTPUT_CAP
bits is refused. It never says "never halts": not halting within the budget
is all that can be observed. Machines whose halting is decidable by
construction (tables, loop-free VM variants, dispatchers over those) are
"transparent" and additionally support exact_run / finite_domain.

exact_run() on a loop-free VM is one run() at LOOP_FREE_STEP_CAP. When a
prefix-free program is not seen halting, exact_run() repeats that kernel call
at the cap to tell certain divergence from a cap too small: the RunOutcome
does not carry the kernel's status; the pure kernel answers it from its last
run. ROADMAP item 5 drops the repeat once the benchmark stops pinning calls.

observe() reads one program either way: exactly (no budget, transparent
machines only) or within a step budget. check_budget() is the policy for
which of the two an analysis may ask for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Union

from haltlab import vm
from haltlab.codec import bits_of_index, index_of_bits
from haltlab.errors import ConfigError, ResourceLimitError
from haltlab.vm import DIVERGED, HALTED, OUTPUT_LIMIT

TIME_WRAP_EXTRA_BITS = 2
TIME_WRAP_STEP_OVERHEAD = 1

DEFAULT_OUTPUT_CAP = 1 << 20
# the compiled kernel counts steps in an unsigned 64-bit integer
MAX_BUDGET = 2**64 - 1
# loop-free programs always halt; this cap turns a too-expensive exact run
# into a refusal instead of a wrong verdict
LOOP_FREE_STEP_CAP = 10**7
# run() and the analyses recurse once per dispatcher level; a descriptor
# nested deeper than this is refused before it can exhaust the stack
MAX_DISPATCH_NESTING = 64


def _check_bits(s: str, what: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ConfigError(f"{what} must be a bit string, got {s!r}")
    return s


class RunOutcome(NamedTuple):
    """Budget-relative observation of one run."""

    halted: bool
    stop_time: int | None = None
    output: str | None = None

    @classmethod
    def running(cls) -> "RunOutcome":
        return cls(False)


_NOT_HALTED = RunOutcome.running()
# builds a halted outcome without the generated __new__ and its defaults
_new_outcome = tuple.__new__


@dataclass(frozen=True)
class ToyVM:
    """Ladder-ISA machine with lenient (dense-domain) halting."""

    loop_free: bool = False


@dataclass(frozen=True)
class PrefixFreeVM:
    """Ladder-ISA machine with strict END-at-boundary halting."""

    loop_free: bool = False


@dataclass(frozen=True)
class TableMachine:
    """Finite machine given by explicit entries, kept in index order."""

    entries: tuple[tuple[str, int, str], ...]
    _lookup: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        seen: dict[str, tuple[int, str]] = {}
        for program, stop_time, output in self.entries:
            _check_bits(program, "table program")
            _check_bits(output, "table output")
            if isinstance(stop_time, bool) or not isinstance(stop_time, int) or stop_time < 1:
                raise ConfigError(f"stop_time must be a positive int, got {stop_time!r}")
            if program in seen:
                raise ConfigError(f"duplicate table program {program!r}")
            seen[program] = (stop_time, output)
        object.__setattr__(self, "_lookup", seen)
        ordered = tuple(sorted(self.entries, key=lambda e: index_of_bits(e[0])))
        object.__setattr__(self, "entries", ordered)

    def lookup(self, program: str) -> tuple[int, str] | None:
        return self._lookup.get(program)


@dataclass(frozen=True)
class Dispatcher:
    """Routes 0^i 1 x to submachine i on x; all-zero programs never halt."""

    submachines: tuple["Machine", ...]

    def __post_init__(self) -> None:
        if not self.submachines:
            raise ConfigError("dispatcher needs at least one submachine")


Machine = Union[ToyVM, PrefixFreeVM, TableMachine, Dispatcher]


def time_wrap(program: str) -> str:
    """The timing wrapper: same halting behavior, output = code of stop time."""
    _check_bits(program, "program")
    return "11" + program


def is_transparent(machine: Machine) -> bool:
    """Whether halting is decidable by construction: tables, loop-free VMs,
    and dispatchers over transparent machines. All others are opaque."""
    kind = type(machine)
    if kind is TableMachine:
        return True
    if kind is ToyVM or kind is PrefixFreeVM:
        return machine.loop_free
    if kind is Dispatcher:
        return all(is_transparent(sub) for sub in machine.submachines)
    raise ConfigError(f"unknown machine {machine!r}")


def _route(dispatcher: Dispatcher, program: str) -> tuple[Machine, str] | None:
    """Submachine i and payload x of the program 0^i 1 x; None when there is
    no such submachine, where the program never halts."""
    first_one = program.find("1")
    if first_one < 0 or first_one >= len(dispatcher.submachines):
        return None
    return dispatcher.submachines[first_one], program[first_one + 1 :]


def run(machine: Machine, program: str, budget: int) -> RunOutcome:
    """Run program for at most budget steps; budget-relative by design."""
    if not isinstance(program, str) or program.strip("01"):
        raise ConfigError(f"program must be a bit string, got {program!r}")
    if not isinstance(budget, int) or not 0 <= budget <= MAX_BUDGET:
        raise ConfigError(f"budget must be an int in [0, 2^64 - 1], got {budget!r}")
    kind = type(machine)
    if kind is PrefixFreeVM or kind is ToyVM:
        n = len(program)
        # each pair of leading ones is one "11" mode field; the core starts
        # after the mode field that follows the wrappers
        depth = (n - len(program.lstrip("1"))) // 2
        start = 2 * depth + 2
        core_budget = budget - depth * TIME_WRAP_STEP_OVERHEAD
        if core_budget < 1:
            return _NOT_HALTED
        if start <= n:
            status, stop, out = vm.run_stream(
                program.encode(), start, n, kind is PrefixFreeVM, not machine.loop_free,
                core_budget, DEFAULT_OUTPUT_CAP,
            )
            if status != HALTED:
                if status == OUTPUT_LIMIT:
                    raise ResourceLimitError(
                        f"output exceeded {DEFAULT_OUTPUT_CAP} bits at step {stop}"
                    )
                return _NOT_HALTED
            output = out.decode()
        elif kind is PrefixFreeVM:
            return _NOT_HALTED  # the program ends inside a mode field
        else:
            stop, output = 1, ""
        while depth:
            output = bits_of_index(stop)
            stop += TIME_WRAP_STEP_OVERHEAD
            depth -= 1
        return _new_outcome(RunOutcome, (True, stop, output))
    if kind is TableMachine:
        hit = machine.lookup(program)
        if hit is not None and hit[0] <= budget:
            return _new_outcome(RunOutcome, (True, hit[0], hit[1]))
        return _NOT_HALTED
    if kind is Dispatcher:
        routed = _route(machine, program)
        return _NOT_HALTED if routed is None else run(*routed, budget)
    raise ConfigError(f"unknown machine {machine!r}")


def exact_run(machine: Machine, program: str) -> tuple[int, str] | None:
    """Exact (stop_time, output) on a transparent machine, None = never halts."""
    kind = type(machine)
    if kind is PrefixFreeVM or kind is ToyVM:
        if not machine.loop_free:
            raise ConfigError("exact_run requires a transparent machine")
        halted, stop, output = run(machine, program, LOOP_FREE_STEP_CAP)
        if halted:
            return (stop, output)
        if kind is PrefixFreeVM:
            # loop-free + strict discipline: not halting within the cap is
            # certain divergence, DIVERGED within one pass over the stream, or
            # a SPIN burn larger than the cap. run()'s kernel call is repeated
            # at the cap to read its status, which the pure kernel answers
            # from its last run (ROADMAP item 5 drops the repeat)
            n = len(program)
            start = (n - len(program.lstrip("1"))) // 2 * 2 + 2
            if start > n or vm.run_stream(
                program.encode(), start, n, True, False, LOOP_FREE_STEP_CAP, DEFAULT_OUTPUT_CAP
            )[0] == DIVERGED:
                return None
        raise ResourceLimitError(
            f"loop-free run of {program!r} exceeded {LOOP_FREE_STEP_CAP} steps"
        )
    # run() has checked a VM's program
    _check_bits(program, "program")
    if kind is TableMachine:
        return machine.lookup(program)
    if kind is not Dispatcher:
        raise ConfigError(f"unknown machine {machine!r}")
    if not is_transparent(machine):
        raise ConfigError("exact_run requires a transparent machine")
    routed = _route(machine, program)
    return None if routed is None else exact_run(*routed)


def check_budget(machine: Machine, budget: int | None) -> None:
    """The budget policy: transparent machines are read exactly and take no
    budget; opaque machines need a positive one."""
    if is_transparent(machine):
        if budget is not None:
            raise ConfigError("transparent machines take no budget (verdicts are exact)")
    elif budget is None or budget < 1:
        raise ConfigError(f"opaque machines require a positive budget, got {budget}")


def observe(machine: Machine, program: str, budget: int | None) -> tuple[int, str] | None:
    """(stop_time, output) of one program, or None when it is not seen halting.

    With budget None the machine must be transparent and None means the
    program never halts; with a budget it only means "still running after
    budget steps".
    """
    if budget is None:
        return exact_run(machine, program)
    outcome = run(machine, program, budget)
    return (outcome.stop_time, outcome.output) if outcome.halted else None


def finite_domain(machine: Machine) -> list[tuple[str, int, str]] | None:
    """Full (program, stop_time, output) list for machines with a finite
    domain, in no set order; None when the domain is infinite or unknown."""
    if isinstance(machine, TableMachine):
        return list(machine.entries)
    if isinstance(machine, Dispatcher):
        items: list[tuple[str, int, str]] = []
        for i, sub in enumerate(machine.submachines):
            sub_items = finite_domain(sub)
            if sub_items is None:
                return None
            items.extend(("0" * i + "1" + p, stop, out) for p, stop, out in sub_items)
        return items
    return None


def timed_table(machine: TableMachine) -> TableMachine:
    """Derived table behaving like the timing wrapper of a table: same domain,
    stop one step later, output = code of the original stop time."""
    entries = tuple(
        (program, stop + TIME_WRAP_STEP_OVERHEAD, bits_of_index(stop))
        for program, stop, _ in machine.entries
    )
    return TableMachine(entries)


# ---------------------------------------------------------------------------
# descriptors

def _variant_flag(data: dict) -> bool:
    variant = data.get("variant", "full")
    if variant not in ("full", "loop-free"):
        raise ConfigError(f"unknown variant {variant!r}")
    return variant == "loop-free"


def machine_from_dict(data: dict) -> Machine:
    return _machine_from_dict(data, MAX_DISPATCH_NESTING)


def _machine_from_dict(data: dict, levels: int) -> Machine:
    """Build the machine; `levels` is how many more dispatchers may nest."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"machine descriptor must be an object with 'kind': {data!r}")
    kind = data["kind"]
    if kind == "table":
        entries = data.get("entries")
        if not isinstance(entries, list):
            raise ConfigError("table machine needs an 'entries' list")
        rows = []
        for entry in entries:
            if not isinstance(entry, dict) or "program" not in entry or "stop_time" not in entry:
                raise ConfigError(f"bad table entry {entry!r}")
            rows.append((entry["program"], entry["stop_time"], entry.get("output", "")))
        return TableMachine(tuple(rows))
    if kind in ("toy-vm", "prefix-free-vm"):
        if data.get("isa_version", 1) != 1:
            raise ConfigError(f"unknown isa_version {data['isa_version']!r}")
        return (ToyVM if kind == "toy-vm" else PrefixFreeVM)(loop_free=_variant_flag(data))
    if kind == "dispatcher":
        if levels == 0:
            raise ConfigError(f"dispatchers nest deeper than {MAX_DISPATCH_NESTING} levels")
        subs = data.get("submachines")
        if not isinstance(subs, list) or not subs:
            raise ConfigError("dispatcher needs a non-empty 'submachines' list")
        return Dispatcher(tuple(_machine_from_dict(sub, levels - 1) for sub in subs))
    raise ConfigError(f"unknown machine kind {kind!r}")


_BUILTINS = {
    "toy-vm": ToyVM(),
    "loop-free-vm": ToyVM(loop_free=True),
    "prefix-free-vm": PrefixFreeVM(),
    "prefix-free-loop-free-vm": PrefixFreeVM(loop_free=True),
}


def read_json(path: str | Path, what: str) -> object:
    """Parse a JSON file; an unreadable or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{what} {path} nests too deeply to parse") from exc


def load_machine(source: str | Path) -> Machine:
    """Load from a JSON file path or a builtin:NAME alias."""
    text = str(source)
    if text.startswith("builtin:"):
        name = text.split(":", 1)[1]
        if name not in _BUILTINS:
            raise ConfigError(
                f"unknown builtin machine {name!r}; available: {', '.join(sorted(_BUILTINS))}"
            )
        return _BUILTINS[name]
    return machine_from_dict(read_json(source, "machine file"))
