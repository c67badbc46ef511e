"""Fixed-length bit strings over {0,1}^n with exact integer backing.

A BitString of length n is stored as (n, index) where index is the integer
whose binary expansion, read most-significant bit first, is the string left
to right. Position 1 is the leftmost character. Lengths are capped at 63 so
an index always fits machine words comfortably and exhaustive loops stay
addressable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

MAX_LENGTH = 63


def _check_length(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError(f"length must be an int, got {n!r}")
    if not 1 <= n <= MAX_LENGTH:
        raise ValidationError(f"length must be in [1, {MAX_LENGTH}], got {n}")


@dataclass(frozen=True, slots=True, order=True)
class BitString:
    """Immutable bit string; compares and sorts by (length, index)."""

    n: int
    index: int

    def __post_init__(self) -> None:
        _check_length(self.n)
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise ValidationError(f"index must be an int, got {self.index!r}")
        if not 0 <= self.index < (1 << self.n):
            raise ValidationError(
                f"index {self.index} out of range for length {self.n}"
            )

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if not text or any(c not in "01" for c in text):
            raise ValidationError(f"bit string must be nonempty over 0/1, got {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def all_ones(cls, n: int) -> "BitString":
        _check_length(n)
        return cls(n, (1 << n) - 1)

    @classmethod
    def all_zeroes(cls, n: int) -> "BitString":
        return cls(n, 0)

    def __str__(self) -> str:
        return format(self.index, f"0{self.n}b")

    def bit(self, position: int) -> int:
        """Bit value at 1-based position; position 1 is the leftmost."""
        if not 1 <= position <= self.n:
            raise ValidationError(f"position {position} out of range 1..{self.n}")
        return (self.index >> (self.n - position)) & 1

    def with_flipped(self, position: int) -> "BitString":
        if not 1 <= position <= self.n:
            raise ValidationError(f"position {position} out of range 1..{self.n}")
        return BitString(self.n, self.index ^ (1 << (self.n - position)))


def count_ones(x: BitString) -> int:
    return x.index.bit_count()


def count_zeroes(x: BitString) -> int:
    return x.n - x.index.bit_count()


def complement(x: BitString) -> BitString:
    """Flip every bit."""
    return BitString(x.n, x.index ^ ((1 << x.n) - 1))


def reverse(x: BitString) -> BitString:
    """Mirror the string left to right."""
    rev = 0
    idx = x.index
    for _ in range(x.n):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return BitString(x.n, rev)


def neighbors(x: BitString):
    """All Hamming-distance-1 strings, in position order 1..n."""
    for position in range(1, x.n + 1):
        yield BitString(x.n, x.index ^ (1 << (x.n - position)))


def blocks(x: BitString, block_length: int) -> list[tuple[int, int]]:
    """Per-block (ones, zeroes) counts for consecutive blocks of equal length.

    Requires block_length to divide n. Blocks are numbered left to right.
    """
    if not isinstance(block_length, int) or block_length < 1:
        raise ValidationError(f"block length must be a positive int, got {block_length!r}")
    if x.n % block_length:
        raise ValidationError(
            f"block length {block_length} does not divide string length {x.n}"
        )
    count = x.n // block_length
    mask = (1 << block_length) - 1
    out = []
    for j in range(count):
        shift = x.n - (j + 1) * block_length
        ones = ((x.index >> shift) & mask).bit_count()
        out.append((ones, block_length - ones))
    return out


def all_strings(n: int):
    """Every length-n string in ascending index order."""
    _check_length(n)
    for index in range(1 << n):
        yield BitString(n, index)
