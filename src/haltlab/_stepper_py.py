"""Pure-Python stepping kernel for the bit-program machine.

This module and its compiled twin, the C extension _stepper.c, implement
byte-identical semantics and one argument contract; haltlab.vm picks one at
import time. The instruction stream is the "ladder" prefix code documented in
docs/machine-isa.md:

    "1"          INC     accumulator += 1 (saturating)
    "00"         END     halt
    "010"        OUT0    append 0 to the output
    "0110"       OUT1    append 1 to the output
    "01110"      DBL     accumulator *= 2 (saturating)
    "011110"     SPIN    if accumulator > 0: decrement and re-execute
    "0111110"    TIMER   accumulator = index of this step (1-based)
    "01111110"   LOOP    if accumulator > 0: decrement and jump to stream start
    "01111111"   ZEROS   append accumulator zeros to the output

Every executed instruction costs one step. The code is Kraft-complete, so the
only decoding failure is running out of bits mid-code.

This kernel does not always take those steps one at a time. A taken LOOP
jump whose iteration provably repeats forever adds every whole further
iteration that fits under the budget and the output cap in one go (see
run_stream). (status, steps, output) is exactly what stepping one at a time
gives; the compiled kernel does step one at a time.

Halting disciplines:
  plain       running off the end of the stream, or a truncated code, halts
              immediately (one step) with empty output; END halts anywhere.
  prefix-free END halts only when every input bit has been consumed; an early
              END, a truncated code, or a read past the end never halts
              (reported as certain divergence so sweeps can skip the budget).
"""

from __future__ import annotations

RUNNING = 0
HALTED = 1
DIVERGED = 2
OUTPUT_LIMIT = 3

ACC_SATURATION = 2**63 - 1

_ONE = 0x31  # ord("1")
_BUDGET_MAX = 2**64 - 1  # the compiled kernel counts steps in 64 unsigned bits

# opcode ids; ladder position j (number of ones after the leading 0) for j <= 6
_END, _OUT0, _OUT1, _DBL, _SPIN, _TIMER, _LOOP = range(7)
_ZEROS = 7
_INC = 8


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
    LOOP outside the allowed subset behaves like an undecodable code.

    An iteration, from the stream start (at acc = 0, or after a taken LOOP
    jump) to the next taken jump, repeats forever when only INC, OUT0 and
    OUT1 ran in between and acc did not fall: each further iteration runs
    the same instructions and takes the jump again. All whole iterations
    that still fit under the budget and the output cap are then added at
    once. The next one cannot reach its LOOP, so acc is never read again
    and the run ends RUNNING or OUTPUT_LIMIT. Its output is never returned:
    the skipped output is only counted, by lowering output_cap by its
    length.

    Raises ValueError unless 0 <= start <= total <= len(bits) and
    output_cap >= 0, and OverflowError for a budget outside [0, 2^64 - 1].
    """
    if not (0 <= start <= total <= len(bits) and output_cap >= 0):
        raise ValueError(
            f"need 0 <= start <= total <= len(bits) and output_cap >= 0, got "
            f"start={start}, total={total}, len={len(bits)}, output_cap={output_cap}"
        )
    if not 0 <= budget <= _BUDGET_MAX:
        raise OverflowError(f"budget must be in [0, 2^64 - 1], got {budget}")
    pc = start
    consumed = start
    steps = 0
    acc = 0
    out = bytearray()
    # acc, steps and output length after the last taken jump, and whether
    # only INC/OUT0/OUT1 ran since then
    jump_acc = jump_steps = jump_len = 0
    only_inc_out = True
    while steps < budget:
        # fetch + decode
        if pc >= total:
            if prefix_free:
                return (DIVERGED, steps, None)
            return (HALTED, steps + 1, b"")
        if bits[pc] == _ONE:
            op = _INC
            npc = pc + 1
        else:
            i = pc + 1
            ones = 0
            truncated = False
            while ones < 7:
                if i >= total:
                    truncated = True
                    break
                if bits[i] == _ONE:
                    ones += 1
                    i += 1
                else:
                    break
            if truncated:
                if prefix_free:
                    return (DIVERGED, steps, None)
                return (HALTED, steps + 1, b"")
            if ones == 7:
                op = _ZEROS
                npc = i
            else:
                op = ones  # ladder position happens to be the opcode id
                npc = i + 1
        if op == _LOOP and not allow_loops:
            if prefix_free:
                return (DIVERGED, steps, None)
            return (HALTED, steps + 1, b"")
        if npc > consumed:
            consumed = npc
        # execute
        steps += 1
        if op == _END:
            if prefix_free and consumed != total:
                return (DIVERGED, steps, None)
            return (HALTED, steps, bytes(out))
        elif op == _INC:
            if acc < ACC_SATURATION:
                acc += 1
            pc = npc
        elif op == _OUT0:
            if len(out) + 1 > output_cap:
                return (OUTPUT_LIMIT, steps, None)
            out.append(0x30)
            pc = npc
        elif op == _OUT1:
            if len(out) + 1 > output_cap:
                return (OUTPUT_LIMIT, steps, None)
            out.append(_ONE)
            pc = npc
        elif op == _DBL:
            acc <<= 1
            if acc > ACC_SATURATION:
                acc = ACC_SATURATION
            only_inc_out = False
            pc = npc
        elif op == _SPIN:
            only_inc_out = False
            if acc > 0:
                acc -= 1
            else:
                pc = npc
        elif op == _TIMER:
            acc = steps
            only_inc_out = False
            pc = npc
        elif op == _LOOP:
            if acc > 0:
                acc -= 1
                pc = start
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
            else:
                only_inc_out = False
                pc = npc
        else:  # _ZEROS
            only_inc_out = False
            if acc > output_cap - len(out):
                return (OUTPUT_LIMIT, steps, None)
            out.extend(b"0" * acc)
            pc = npc
    return (RUNNING, steps, None)
