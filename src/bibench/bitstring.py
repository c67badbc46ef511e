"""Fixed-length bit strings over {0,1}^n with exact integer backing.

A BitString of length n is stored as (n, index) where index is the integer
whose binary expansion, read most-significant bit first, is the string left
to right. Position 1 is the leftmost character. Lengths are capped at 63 so
an index always fits machine words comfortably and exhaustive loops stay
addressable.

The library computes on raw indices; BitString is the value type at the API
edge (evaluate's input, counterexample text, final archives).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

MAX_LENGTH = 63


@dataclass(frozen=True, slots=True, order=True)
class BitString:
    """Immutable bit string; compares and sorts by (length, index)."""

    n: int
    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValidationError(f"length must be an int, got {self.n!r}")
        if not 1 <= self.n <= MAX_LENGTH:
            raise ValidationError(f"length must be in [1, {MAX_LENGTH}], got {self.n}")
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

    def __str__(self) -> str:
        return format(self.index, f"0{self.n}b")
