"""Pareto dominance and non-dominated sorting for maximized objective pairs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

ObjectiveVector = tuple[int, int]


def weakly_dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """a is at least as good as b in every objective."""
    return a[0] >= b[0] and a[1] >= b[1]


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """a weakly dominates b and is strictly better somewhere."""
    return a[0] >= b[0] and a[1] >= b[1] and a != b


def _maximal(distinct: Iterable[ObjectiveVector]) -> set[ObjectiveVector]:
    # Sweep in (f1 desc, f2 desc) order: a vector is non-dominated iff its f2
    # strictly exceeds every f2 seen at strictly larger f1, and it is the best
    # f2 within its own f1 group.
    best = float("-inf")
    maximal: set[ObjectiveVector] = set()
    group_f1 = None
    for vec in sorted(distinct, reverse=True):
        if vec[0] != group_f1:
            group_f1 = vec[0]
            if vec[1] > best:
                maximal.add(vec)
                best = vec[1]
    return maximal


@dataclass(frozen=True)
class LevelAssignment:
    """Result of non-dominated sorting over a multiset of vectors.

    levels[i] holds the distinct vectors of level i+1 in (f1 desc, f2 desc)
    order; identical vectors share a level; counts carries multiplicities.
    """

    levels: tuple[tuple[ObjectiveVector, ...], ...]
    counts: dict[ObjectiveVector, int]

    @property
    def level_by_vector(self) -> dict[ObjectiveVector, int]:
        return {v: i + 1 for i, level in enumerate(self.levels) for v in level}


def nondominated_sort(points: Iterable[ObjectiveVector]) -> LevelAssignment:
    """Peel non-dominated layers; level 1 is the non-dominated front."""
    counts = Counter(points)
    remaining = set(counts)
    levels = []
    while remaining:
        front = _maximal(remaining)
        levels.append(tuple(sorted(front, reverse=True)))
        remaining -= front
    return LevelAssignment(tuple(levels), dict(counts))
