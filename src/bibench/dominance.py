"""Pareto dominance and non-dominated sorting for maximized objective pairs."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

ObjectiveVector = tuple[int, int]


def weakly_dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """a is at least as good as b in every objective."""
    return a[0] >= b[0] and a[1] >= b[1]


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """a weakly dominates b and is strictly better somewhere."""
    return a[0] >= b[0] and a[1] >= b[1] and a != b


@dataclass(frozen=True)
class LevelAssignment:
    """Result of non-dominated sorting over a multiset of vectors.

    levels[i] holds the distinct vectors of level i+1 in (f1 desc, f2 desc)
    order; identical vectors share a level.
    """

    levels: tuple[tuple[ObjectiveVector, ...], ...]

    @property
    def level_by_vector(self) -> dict[ObjectiveVector, int]:
        return {v: i + 1 for i, level in enumerate(self.levels) for v in level}


def nondominated_sort(points: Iterable[ObjectiveVector]) -> LevelAssignment:
    """Non-dominated levels in one sweep; level 1 is the non-dominated front.

    In (f1 desc, f2 desc) order every vector that can dominate the current
    one comes before it, and does exactly when its f2 is at least the
    current f2. The best f2 on a level never exceeds the one on the level
    above, so the current vector goes one past the levels whose best f2
    reaches its own.
    """
    # The negated best f2 of each level, ascending for bisect.
    tops: list[int] = []
    levels: list[list[ObjectiveVector]] = []
    for vec in sorted(set(points), reverse=True):
        i = bisect_right(tops, -vec[1])
        if i == len(levels):
            levels.append([])
            tops.append(0)
        levels[i].append(vec)
        tops[i] = -vec[1]
    return LevelAssignment(tuple(map(tuple, levels)))
