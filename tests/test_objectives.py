"""Index-level scalar objectives against naive string-based reimplementations."""

from hypothesis import given, strategies as st

from bibench.bitstring import BitString
from bibench.problems import OBJECTIVES, STATISTICS


def bits(text):
    return BitString.from_text(text)


def scalar(name, x, k=None, l=None):
    statistic, table = OBJECTIVES[name]
    return table(x.n, k, l)[STATISTICS[statistic](x.n, l)(x.index)]


def one_max(x):
    return scalar("ones", x)


def leading_ones(x):
    return scalar("leading ones", x)


def trailing_zeroes(x):
    return scalar("trailing zeroes", x)


def one_jump(x, k):
    return scalar("one-jump", x, k=k)


def zero_jump(x, k):
    return scalar("zero-jump", x, k=k)


def one_royal_road(x, block_length):
    return scalar("all-ones blocks", x, l=block_length)


def zero_royal_road(x, block_length):
    return scalar("all-zeroes blocks", x, l=block_length)


def count_ones_mix(x):
    return scalar("ones in first half plus zeroes in second half", x)


def naive_leading_ones(text):
    return len(text) - len(text.lstrip("1"))


def naive_trailing_zeroes(text):
    return len(text) - len(text.rstrip("0"))


def naive_one_jump(text, k):
    n, ones = len(text), text.count("1")
    return k + ones if ones <= n - k or ones == n else n - ones


def naive_zero_jump(text, k):
    n, zeroes = len(text), text.count("0")
    return k + zeroes if zeroes <= n - k or zeroes == n else n - zeroes


def naive_royal(text, block, want):
    chunks = [text[i : i + block] for i in range(0, len(text), block)]
    return block * sum(1 for c in chunks if c == want * block)


def naive_mix(text):
    half = len(text) // 2
    return text[:half].count("1") + text[half:].count("0")


strings = st.integers(min_value=2, max_value=14).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda i: BitString(n, i)
    )
)


class TestFrozenExamples:
    def test_one_max(self):
        assert one_max(bits("10110010")) == 4
        assert scalar("zeroes", bits("10110010")) == 4

    def test_leading_ones_and_trailing_zeroes(self):
        x = bits("11100000")
        assert leading_ones(x) == 3
        assert trailing_zeroes(x) == 5
        assert leading_ones(bits("01111111")) == 0
        assert trailing_zeroes(bits("11111110")) == 1

    def test_all_ones_and_all_zeroes_edges(self):
        ones, zeroes = bits("1111"), bits("0000")
        assert leading_ones(ones) == 4
        assert trailing_zeroes(ones) == 0
        assert leading_ones(zeroes) == 0
        assert trailing_zeroes(zeroes) == 4

    def test_one_jump_shifted_plateau_and_valley(self):
        assert one_jump(bits("11111111"), 2) == 10
        assert one_jump(bits("11111110"), 2) == 1
        assert one_jump(bits("11111100"), 2) == 8
        assert one_jump(bits("00000000"), 2) == 2

    def test_zero_jump_mirrors_one_jump(self):
        assert zero_jump(bits("00000000"), 2) == 10
        assert zero_jump(bits("00000001"), 2) == 1
        assert zero_jump(bits("11111111"), 2) == 2

    def test_royal_roads_count_whole_blocks(self):
        assert one_royal_road(bits("11010000"), 2) == 2
        assert zero_royal_road(bits("11010000"), 2) == 4
        assert one_royal_road(bits("11110000"), 4) == 4
        assert zero_royal_road(bits("11110000"), 4) == 4

    def test_count_ones_mix(self):
        assert count_ones_mix(bits("11110101")) == 6
        assert count_ones_mix(bits("11110000")) == 8
        assert count_ones_mix(bits("00001111")) == 0


class TestAgainstNaive:
    @given(strings)
    def test_one_max(self, x):
        assert one_max(x) == str(x).count("1")
        assert scalar("zeroes", x) == str(x).count("0")

    @given(strings)
    def test_leading_ones(self, x):
        assert leading_ones(x) == naive_leading_ones(str(x))

    @given(strings)
    def test_trailing_zeroes(self, x):
        assert trailing_zeroes(x) == naive_trailing_zeroes(str(x))

    @given(strings, st.integers(min_value=1, max_value=14))
    def test_jumps(self, x, k):
        if k > x.n:
            return
        assert one_jump(x, k) == naive_one_jump(str(x), k)
        assert zero_jump(x, k) == naive_zero_jump(str(x), k)

    @given(strings, st.integers(min_value=1, max_value=14))
    def test_royal_roads(self, x, block):
        if x.n % block:
            return
        assert one_royal_road(x, block) == naive_royal(str(x), block, "1")
        assert zero_royal_road(x, block) == naive_royal(str(x), block, "0")

    @given(strings)
    def test_mix(self, x):
        if x.n % 2:
            return
        assert count_ones_mix(x) == naive_mix(str(x))

    @given(strings, st.integers(min_value=1, max_value=14))
    def test_jump_symmetry_under_complement(self, x, k):
        if k > x.n:
            return
        assert zero_jump(x, k) == one_jump(BitString(x.n, x.index ^ ((1 << x.n) - 1)), k)
