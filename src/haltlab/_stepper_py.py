"""Pure-Python stepping kernel for the bit-program machine.

This module and its compiled twin, the C extension _stepper.c, implement
byte-identical semantics and one argument contract; haltlab.vm picks one at
import time. docs/machine-isa.md is normative for both: the instruction
ladder, the halting disciplines, the one outcome of an undecodable word and
the kernel interface. Every executed instruction costs one step.

This kernel does not always take those steps one at a time. A taken LOOP
jump whose iteration provably repeats forever adds every whole further
iteration that fits under the budget and the output cap in one go (see
run_stream). It also answers a call that agrees with its last run on the
bytes that run read from that run's result, without stepping. (status,
steps, output) is exactly what stepping one at a time gives; the compiled
kernel keeps no state and does step one at a time.
"""

from __future__ import annotations

RUNNING = 0
HALTED = 1
DIVERGED = 2
OUTPUT_LIMIT = 3

ACC_SATURATION = 2**63 - 1

_ONE = 0x31  # ord("1")
_BUDGET_MAX = 2**64 - 1  # the compiled kernel counts steps in 64 unsigned bits

# opcode ids: a code word 0 1^j is opcode j for j <= 7
_END, _OUT0, _OUT1, _DBL, _SPIN, _TIMER, _LOOP, _ZEROS = range(8)

# the last run: (key, bytes read, least and largest budget it holds for,
# result), replaced whole, so a reader never sees parts of two runs
_last: tuple = (None, b"", 1, 0, None)


def _refuse(bits: object, start: int, total: int, budget: object, output_cap: int) -> None:
    """Raise the error of the first rule of the argument contract broken."""
    if not (isinstance(bits, bytes) and isinstance(budget, int)):
        raise TypeError(f"need bytes bits and an int budget, got {type(bits)} and {type(budget)}")
    if not (0 <= start <= total <= len(bits) and output_cap >= 0):
        raise ValueError(
            f"need 0 <= start <= total <= len(bits) and output_cap >= 0, got "
            f"start={start}, total={total}, len={len(bits)}, output_cap={output_cap}"
        )
    raise OverflowError(f"budget must be in [0, 2^64 - 1], got {budget}")


def run_stream(
    bits: bytes,
    start: int,
    total: int,
    prefix_free: bool,
    allow_loops: bool,
    budget: int,
    output_cap: int,
) -> tuple[int, int, bytes | None]:
    """Execute the instruction stream bits[start:total].

    Returns (status, steps, output). Output is only meaningful for HALTED.
    steps is the stop time for HALTED and the consumed budget for RUNNING.
    LOOP outside the allowed subset is undecodable, like a read past the
    end and a truncated code word.

    An iteration, from the stream start (at acc = 0, or after a taken LOOP
    jump) to the next taken jump, repeats forever when only INC, OUT0 and
    OUT1 ran in between and acc did not fall: each further iteration runs
    the same instructions and takes the jump again. All whole iterations
    that still fit under the budget and the output cap are then added at
    once. The next one cannot reach its LOOP, so acc is never read again
    and the run ends RUNNING or OUTPUT_LIMIT. Its output is never returned:
    the skipped output is only counted, by lowering output_cap by its
    length.

    The last run is kept with the bytes it read, bits[start:reach], reach
    one past the last byte decoded. A call with the same start, total,
    flags and output_cap whose bits hold those bytes gets that run's result
    tuple without stepping: at the same budget, or, when it ended HALTED or
    DIVERGED, at any budget that still reaches its END or undecodable word.

    Raises TypeError unless bits is bytes and budget an int, ValueError
    unless 0 <= start <= total <= len(bits) and output_cap >= 0, and
    OverflowError for a budget outside [0, 2^64 - 1], as _stepper.c does.
    """
    if not (isinstance(bits, bytes) and isinstance(budget, int) and 0 <= budget <= _BUDGET_MAX
            and 0 <= start <= total <= len(bits) and output_cap >= 0):
        _refuse(bits, start, total, budget, output_cap)
    global _last
    key = (start, total, prefix_free, allow_loops, output_cap)
    last_key, read, least, most, result = _last
    if last_key == key and least <= budget <= most and bits.startswith(read, start):
        return result
    pc = consumed = start
    steps = acc = 0
    out = bytearray()
    # acc, steps and output length after the last taken jump, and whether
    # only INC/OUT0/OUT1 ran since then
    jump_acc = jump_steps = jump_len = 0
    only_inc_out = True
    # the budgets the result holds for: a RUNNING or OUTPUT_LIMIT run only
    # its own; an END or an undecodable word every budget from its step on
    least = most = budget
    result = None
    while steps < budget:
        # fetch + decode; a read past the end, a truncated code word and a
        # LOOP outside the allowed subset leave the loop as undecodable
        if pc >= total:
            break
        if bits[pc] == _ONE:  # INC, the instruction the workloads run most
            pc += 1
            if pc > consumed:
                consumed = pc
            steps += 1
            if acc < ACC_SATURATION:
                acc += 1
            continue
        op = 0
        i = pc + 1
        while op < 7 and i < total and bits[i] == _ONE:
            op += 1
            i += 1
        if op < 7 and i >= total:
            consumed = total  # truncated code word
            break
        if op == _LOOP and not allow_loops:
            consumed = max(consumed, i + 1)
            break
        npc = i if op == _ZEROS else i + 1
        if npc > consumed:
            consumed = npc
        # execute, the instructions the workloads run most often first
        steps += 1
        if op == _END:
            least, most = steps, _BUDGET_MAX
            if prefix_free and consumed != total:
                result = (DIVERGED, steps, None)
            else:
                result = (HALTED, steps, bytes(out))
            break
        if op <= _OUT1:
            if len(out) >= output_cap:
                result = (OUTPUT_LIMIT, steps, None)
                break
            out.append(0x2F + op)  # "0" for OUT0, "1" for OUT1
        elif op == _LOOP and acc > 0:
            acc -= 1
            npc = start
            if only_inc_out and acc >= jump_acc:
                span = steps - jump_steps
                grown = len(out) - jump_len
                whole = (budget - steps) // span
                if grown:
                    whole = min(whole, (output_cap - len(out)) // grown)
                steps += whole * span
                output_cap -= whole * grown
            jump_acc, jump_steps, jump_len = acc, steps, len(out)
            only_inc_out = True
        else:  # DBL, SPIN, TIMER, ZEROS, or a LOOP not taken
            only_inc_out = False
            if op == _DBL:
                acc = min(acc << 1, ACC_SATURATION)
            elif op == _SPIN:
                if acc > 0:
                    acc -= 1
                    npc = pc
            elif op == _TIMER:
                acc = steps
            elif op == _ZEROS:
                if acc > output_cap - len(out):
                    result = (OUTPUT_LIMIT, steps, None)
                    break
                out.extend(b"0" * acc)
        pc = npc
    else:
        result = (RUNNING, steps, None)
    if result is None:
        # undecodable: plain halts one step later with empty output,
        # prefix-free never halts
        least, most = steps + 1, _BUDGET_MAX
        result = (DIVERGED, steps, None) if prefix_free else (HALTED, steps + 1, b"")
    _last = (key, bits[start:consumed], least, most, result)
    return result
