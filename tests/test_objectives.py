"""Index-level scalar objectives against the naive string forms in naive.py."""

from hypothesis import given, strategies as st

import naive
from bibench.problems import OBJECTIVES, STATISTICS


def scalar(name, x, k=None, l=None):
    """The library's value of one objective at the string x."""
    statistic, table = OBJECTIVES[name]
    n = len(x)
    return table(n, k, l)[STATISTICS[statistic](n, l)(int(x, 2))]


strings = st.integers(min_value=2, max_value=14).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda i: format(i, f"0{n}b")
    )
)


class TestFrozenExamples:
    def test_one_max(self):
        assert scalar("ones", "10110010") == 4
        assert scalar("zeroes", "10110010") == 4

    def test_leading_ones_and_trailing_zeroes(self):
        assert scalar("leading ones", "11100000") == 3
        assert scalar("trailing zeroes", "11100000") == 5
        assert scalar("leading ones", "01111111") == 0
        assert scalar("trailing zeroes", "11111110") == 1

    def test_all_ones_and_all_zeroes_edges(self):
        assert scalar("leading ones", "1111") == 4
        assert scalar("trailing zeroes", "1111") == 0
        assert scalar("leading ones", "0000") == 0
        assert scalar("trailing zeroes", "0000") == 4

    def test_one_jump_shifted_plateau_and_valley(self):
        assert scalar("one-jump", "11111111", k=2) == 10
        assert scalar("one-jump", "11111110", k=2) == 1
        assert scalar("one-jump", "11111100", k=2) == 8
        assert scalar("one-jump", "00000000", k=2) == 2

    def test_zero_jump_mirrors_one_jump(self):
        assert scalar("zero-jump", "00000000", k=2) == 10
        assert scalar("zero-jump", "00000001", k=2) == 1
        assert scalar("zero-jump", "11111111", k=2) == 2

    def test_royal_roads_count_whole_blocks(self):
        assert scalar("all-ones blocks", "11010000", l=2) == 2
        assert scalar("all-zeroes blocks", "11010000", l=2) == 4
        assert scalar("all-ones blocks", "11110000", l=4) == 4
        assert scalar("all-zeroes blocks", "11110000", l=4) == 4

    def test_count_ones_mix(self):
        mix = "ones in first half plus zeroes in second half"
        assert scalar(mix, "11110101") == 6
        assert scalar(mix, "11110000") == 8
        assert scalar(mix, "00001111") == 0


class TestAgainstNaive:
    @given(strings)
    def test_one_max(self, x):
        assert scalar("ones", x) == naive.ones(x, None, None)
        assert scalar("zeroes", x) == naive.zeroes(x, None, None)

    @given(strings)
    def test_leading_ones(self, x):
        assert scalar("leading ones", x) == naive.leading_ones(x, None, None)

    @given(strings)
    def test_trailing_zeroes(self, x):
        assert scalar("trailing zeroes", x) == naive.trailing_zeroes(x, None, None)

    @given(strings, st.integers(min_value=1, max_value=14))
    def test_jumps(self, x, k):
        if k > len(x):
            return
        assert scalar("one-jump", x, k=k) == naive.one_jump(x, k, None)
        assert scalar("zero-jump", x, k=k) == naive.zero_jump(x, k, None)

    @given(strings, st.integers(min_value=1, max_value=14))
    def test_royal_roads(self, x, block):
        if len(x) % block:
            return
        assert scalar("all-ones blocks", x, l=block) == naive.all_ones_blocks(x, None, block)
        assert scalar("all-zeroes blocks", x, l=block) == naive.all_zeroes_blocks(x, None, block)

    @given(strings)
    def test_mix(self, x):
        if len(x) % 2:
            return
        mix = "ones in first half plus zeroes in second half"
        assert scalar(mix, x) == naive.ones_then_zeroes(x, None, None)

    @given(strings, st.integers(min_value=1, max_value=14))
    def test_jump_symmetry_under_complement(self, x, k):
        if k > len(x):
            return
        complement = x.translate(str.maketrans("01", "10"))
        assert scalar("zero-jump", x, k=k) == scalar("one-jump", complement, k=k)
