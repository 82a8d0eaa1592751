"""Bijection between positive integers and bit strings.

Index 1 maps to the empty string, then "0", "1", "00", "01", ... so that
numeric order on indices equals length-then-lexicographic order on strings.
The code of n is the binary expansion of n with the leading 1 removed, which
gives len(bits_of_index(n)) == n.bit_length() - 1 and the sandwich
2**len(x) <= index_of_bits(x) < 2**(len(x)+1).
"""

from __future__ import annotations

_BITSET = frozenset("01")


def bits_of_index(n: int) -> str:
    """Code of index n >= 1: binary expansion without its leading 1."""
    if n < 1:  # bin(n) is "0b1..." only for n >= 1: bin(-5)[3:] is "01"
        raise ValueError(f"index must be >= 1, got {n}")
    return bin(n)[3:]


def index_of_bits(x: str) -> int:
    """Inverse of bits_of_index; the empty string maps to 1."""
    if x and set(x) - _BITSET:
        raise ValueError(f"not a bit string: {x!r}")
    return int("1" + x, 2)

