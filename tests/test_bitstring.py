"""Bit-string container: construction, conventions, and neighbourhood."""

import pytest
from hypothesis import given, strategies as st

from bibench.bitstring import (
    BitString,
    all_strings,
    blocks,
    complement,
    count_ones,
    count_zeroes,
    neighbors,
    reverse,
)
from bibench.errors import ValidationError


def bits(text):
    return BitString.from_text(text)


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

    def test_all_ones_all_zeroes(self):
        assert str(BitString.all_ones(4)) == "1111"
        assert str(BitString.all_zeroes(4)) == "0000"

    def test_rejects_bad_characters(self):
        with pytest.raises(ValidationError):
            BitString.from_text("10x0")

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValidationError):
            BitString.from_text("")
        with pytest.raises(ValidationError):
            BitString.all_ones(64)
        assert count_ones(BitString.all_ones(63)) == 63

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
        assert [x.bit(p) for p in range(1, 7)] == [1, 0, 0, 1, 1, 0]

    def test_counts(self):
        x = bits("100110")
        assert count_ones(x) == 3
        assert count_zeroes(x) == 3

    def test_with_flipped(self):
        assert str(bits("1000").with_flipped(2)) == "1100"
        assert str(bits("1000").with_flipped(1)) == "0000"

    def test_complement(self):
        assert str(complement(bits("1010"))) == "0101"

    def test_reverse(self):
        assert str(reverse(bits("1100"))) == "0011"

    def test_blocks_left_to_right(self):
        x = bits("11010000")
        assert blocks(x, 2) == [(2, 0), (1, 1), (0, 2), (0, 2)]
        assert blocks(x, 4) == [(3, 1), (0, 4)]

    def test_blocks_require_divisible_length(self):
        with pytest.raises(ValidationError):
            blocks(bits("110"), 2)


class TestNeighbours:
    def test_neighbour_count_and_order(self):
        x = bits("000")
        got = [str(y) for y in neighbors(x)]
        assert got == ["100", "010", "001"]

    @given(short)
    def test_neighbours_at_hamming_distance_one(self, x):
        for y in neighbors(x):
            assert bin(x.index ^ y.index).count("1") == 1

    @given(short)
    def test_neighbour_set_size(self, x):
        assert len(set(neighbors(x))) == x.n


class TestInvolutions:
    @given(short)
    def test_complement_involution(self, x):
        assert complement(complement(x)) == x

    @given(short)
    def test_reverse_involution(self, x):
        assert reverse(reverse(x)) == x

    @given(short)
    def test_complement_and_reverse_commute(self, x):
        assert reverse(complement(x)) == complement(reverse(x))

    @given(short)
    def test_text_round_trip(self, x):
        assert BitString.from_text(str(x)) == x

    @given(short)
    def test_counts_sum_to_length(self, x):
        assert count_ones(x) + count_zeroes(x) == x.n


def test_all_strings_enumerates_the_cube():
    xs = list(all_strings(4))
    assert len(xs) == 16
    assert len(set(xs)) == 16
    assert [x.index for x in xs] == list(range(16))
