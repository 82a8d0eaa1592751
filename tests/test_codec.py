from hypothesis import given
from hypothesis import strategies as st
import pytest

from haltlab.codec import bits_of_index, index_of_bits


# first rows of the index <-> string table, written out by hand
KNOWN = [(1, ""), (2, "0"), (3, "1"), (4, "00"), (5, "01"), (6, "10"), (7, "11"), (8, "000")]


@pytest.mark.parametrize("index,bits", KNOWN)
def test_known_rows(index, bits):
    assert bits_of_index(index) == bits
    assert index_of_bits(bits) == index


@given(st.integers(min_value=1, max_value=10**9))
def test_roundtrip(n):
    assert index_of_bits(bits_of_index(n)) == n


@given(st.integers(min_value=1, max_value=10**9))
def test_length_sandwich(n):
    # 2^len <= n < 2^(len+1)
    length = n.bit_length() - 1
    assert len(bits_of_index(n)) == length
    assert 2**length <= n < 2 ** (length + 1)


def test_enumeration_is_numeric_order():
    """Length-then-lex order over strings is plain numeric order over indices."""
    strings = [bits_of_index(n) for n in range(1, 33)]
    assert strings == sorted(strings, key=lambda s: (len(s), s))
    # and within one length the order is lexicographic
    assert strings[3:7] == ["00", "01", "10", "11"]


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=12))
def test_block_prepend_identity(m, i):
    """0^i 1 bin(m) = bin(2^(i+1+|bin(m)|) + m), the dispatcher index identity."""
    length = len(bits_of_index(m))
    assert "0" * i + "1" + bits_of_index(m) == bits_of_index(2 ** (i + 1 + length) + m)


def test_rejects_junk():
    with pytest.raises(Exception):
        index_of_bits("01x")
    for n in (0, -1, -5):  # bin(-5)[3:] is "01"
        with pytest.raises(ValueError):
            bits_of_index(n)
