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
program bits than an enumerable length has.
"""

from fractions import Fraction

# INC, OUT0, OUT1, DBL, SPIN, TIMER, ZEROS
WORD_LENGTHS = (1, 3, 4, 5, 6, 7, 8)
END_LENGTH = 2
MODE_BITS = 2
WRAPPER_BITS = 2
PLAIN_MODES = 3  # "00", "01", "10"; "11" is the wrapper


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
