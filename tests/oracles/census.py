"""Closed-form halting census of the prefix-free loop-free VM, written
against docs/machine-isa.md only.

On builtin:prefix-free-loop-free-vm a program halts exactly when it parses:
d timing wrappers "11", one of the three plain mode fields, then a core of
code words other than LOOP (which does not decode in the loop-free variant)
closed by an END that reads the last bit. So no run is needed to count the
halting programs of a length:

    C(2) = 1, C(L) = sum of C(L - w) over the word lengths w
    H(N) = sum over d >= 0 of 3 * C(N - 2d - 2)

with C the halting cores and H the halting programs of each length. The
census assumes that no run hits a resource cap, which takes far more
program bits than an enumerable length has; run_bounds bounds what a run of
each length can reach, by a search over the same word lengths.
"""

from fractions import Fraction

# INC, OUT0, OUT1, DBL, SPIN, TIMER, ZEROS
WORD_LENGTHS = (1, 3, 4, 5, 6, 7, 8)
END_LENGTH = 2
MODE_BITS = 2
WRAPPER_BITS = 2
PLAIN_MODES = 3  # "00", "01", "10"; "11" is the wrapper

# each loop-free word but END, by length: its effect on (acc, steps, output
# bits). Every effect is non-decreasing in each coordinate, so an effect
# applied to a bound of the state before a word bounds the state after it.
# The accumulator's saturation only lowers a value and is left out.
WORD_EFFECTS = {
    1: lambda acc, steps, out: (acc + 1, steps + 1, out),  # INC
    3: lambda acc, steps, out: (acc, steps + 1, out + 1),  # OUT0
    4: lambda acc, steps, out: (acc, steps + 1, out + 1),  # OUT1
    5: lambda acc, steps, out: (2 * acc, steps + 1, out),  # DBL
    6: lambda acc, steps, out: (0, steps + acc + 1, out),  # SPIN: acc steps down, one on
    7: lambda acc, steps, out: (steps + 1, steps + 1, out),  # TIMER
    8: lambda acc, steps, out: (acc, steps + 1, out + acc),  # ZEROS
}


def halting_cores(max_len):
    """C(L) for L = 0..max_len."""
    cores = [0] * (max_len + 1)
    for length in range(max_len + 1):
        cores[length] = (length == END_LENGTH) + sum(
            cores[length - w] for w in WORD_LENGTHS if w <= length
        )
    return cores


def halting_counts(max_len):
    """H(N) for N = 0..max_len."""
    cores = halting_cores(max_len)
    return [
        sum(PLAIN_MODES * cores[core] for core in range(n - MODE_BITS, -1, -WRAPPER_BITS))
        for n in range(max_len + 1)
    ]


def kraft_limit():
    """The sum of H(N) 2^-N over all N, from the generating functions:
    C(x) = x^2 / (1 - W(x)) with W(x) the sum of x^w over the word lengths,
    and H(x) = 3 x^2 C(x) / (1 - x^2), at x = 1/2."""
    x = Fraction(1, 2)
    words = sum(x**w for w in WORD_LENGTHS)
    cores = x**END_LENGTH / (1 - words)
    return PLAIN_MODES * x**MODE_BITS * cores / (1 - x**WRAPPER_BITS)


def run_bounds(max_len):
    """(steps, output bits) for N = 0..max_len that no run of a loop-free
    program of N bits, wrappers included, passes, on either discipline.

    reach[b] bounds the state after any words of b bits in all. A core of C
    bits runs words of at most C bits, then one more step: END, an early END
    that diverges, or the undecodable word whose halt costs a step. d
    wrappers add d steps and make the output the code of the stop time minus
    one; a program that ends inside a mode field stops at step d + 1.
    """
    assert set(WORD_EFFECTS) == set(WORD_LENGTHS)
    reach = [(0, 0, 0)]
    for bits in range(1, max_len + 1):
        after = [f(*reach[bits - w]) for w, f in WORD_EFFECTS.items() if w <= bits]
        reach.append(tuple(map(max, zip(*after))))
    # the most steps and output bits of a core of at most C bits
    cores, steps, out = [], 0, 0
    for acc_steps_out in reach:
        steps, out = max(steps, acc_steps_out[1] + 1), max(out, acc_steps_out[2])
        cores.append((steps, out))
    bounds = []
    for n in range(max_len + 1):
        most_steps = most_out = 0
        for depth in range(n // 2 + 1):
            core = n - WRAPPER_BITS * depth - MODE_BITS
            core_steps, core_out = cores[core] if core >= 0 else (1, 0)
            stop = core_steps + depth
            most_steps = max(most_steps, stop)
            most_out = max(most_out, (stop - 1).bit_length() - 1 if depth else core_out)
        bounds.append((most_steps, most_out))
    return bounds
