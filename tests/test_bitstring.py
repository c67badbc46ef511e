"""Bit strings: the value type and its conventions."""

import pytest
from hypothesis import given, strategies as st

import naive
from bibench.bitstring import BitString
from bibench.errors import ValidationError


def bits(text):
    return BitString.from_text(text)


def mirrored(n, index):
    """Where the model's plane mirror, which the symmetry checks compare
    against, moves the byte of one index."""
    plane = bytearray(1 << n)
    plane[index] = 1
    return naive.mirror(bytes(plane), n).index(1)


short = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda i: BitString(n, i)
    )
)


class TestConstruction:
    def test_from_text_msb_first(self):
        x = bits("100")
        assert (x.n, x.index) == (3, 4)
        assert str(x) == "100"

    def test_from_index_pads_leading_zeroes(self):
        assert str(BitString(5, 3)) == "00011"

    def test_rejects_bad_characters(self):
        with pytest.raises(ValidationError):
            BitString.from_text("10x0")

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValidationError):
            BitString.from_text("")
        with pytest.raises(ValidationError):
            BitString(64, 0)
        assert str(BitString(63, (1 << 63) - 1)) == "1" * 63

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValidationError):
            BitString(3, 8)
        with pytest.raises(ValidationError):
            BitString(3, -1)

    def test_hashable_and_frozen(self):
        x = bits("101")
        assert x == BitString(3, 5)
        assert len({x, BitString(3, 5)}) == 1
        with pytest.raises(AttributeError):
            x.index = 0


class TestAccessors:
    def test_bit_positions_one_based_from_left(self):
        x = bits("100110")
        assert [(x.index >> (6 - p)) & 1 for p in range(1, 7)] == [1, 0, 0, 1, 1, 0]

    @given(short)
    def test_model_reversal_reverses_the_text(self, x):
        # The symmetry checks mirror planes by the model's reversal.
        reversed_index = naive.reversed_indices(x.n)[x.index]
        assert str(BitString(x.n, reversed_index)) == str(x)[::-1]

    def test_reverse(self):
        assert mirrored(4, 0b1100) == 0b0011


class TestInvolutions:
    @given(short)
    def test_reverse_involution(self, x):
        assert mirrored(x.n, mirrored(x.n, x.index)) == x.index

    @given(short)
    def test_complement_and_reverse_commute(self, x):
        top = (1 << x.n) - 1
        assert mirrored(x.n, x.index ^ top) == mirrored(x.n, x.index) ^ top

    @given(short)
    def test_text_round_trip(self, x):
        assert BitString.from_text(str(x)) == x
