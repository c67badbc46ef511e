"""Dominance relations and non-dominated sorting, checked against the
pairwise definitions in naive.py."""

from hypothesis import given, strategies as st

import naive
from bibench.dominance import dominates, nondominated_sort, weakly_dominates

vectors = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)
vector_lists = st.lists(vectors, min_size=1, max_size=24)


class TestRelations:
    def test_frozen_cases(self):
        assert weakly_dominates((2, 2), (2, 2))
        assert weakly_dominates((3, 2), (2, 2))
        assert not weakly_dominates((3, 1), (2, 2))
        assert dominates((3, 2), (2, 2))
        assert not dominates((2, 2), (2, 2))
        assert not dominates((3, 1), (1, 3))

    @given(vectors)
    def test_weak_dominance_is_reflexive(self, a):
        assert weakly_dominates(a, a)

    @given(vectors)
    def test_strict_dominance_is_irreflexive(self, a):
        assert not dominates(a, a)

    @given(vectors, vectors, vectors)
    def test_weak_dominance_is_transitive(self, a, b, c):
        if weakly_dominates(a, b) and weakly_dominates(b, c):
            assert weakly_dominates(a, c)

    @given(vectors, vectors)
    def test_strict_dominance_is_asymmetric(self, a, b):
        if dominates(a, b):
            assert not dominates(b, a)

    @given(vectors, vectors)
    def test_strict_implies_weak(self, a, b):
        if dominates(a, b):
            assert weakly_dominates(a, b)


class TestFilter:
    @given(vector_lists)
    def test_survivors_cover_everything(self, points):
        maximal = nondominated_sort(points).levels[0]
        for p in points:
            assert any(weakly_dominates(q, p) for q in maximal)


class TestSorting:
    def test_frozen_levels(self):
        levels = nondominated_sort([(0, 0), (1, 1), (0, 1), (2, 0), (0, 2)]).levels
        assert levels == (
            ((2, 0), (1, 1), (0, 2)),
            ((0, 1),),
            ((0, 0),),
        )

    def test_identical_vectors_share_a_level(self):
        assignment = nondominated_sort([(1, 1), (1, 1), (0, 0)])
        assert assignment.levels == (((1, 1),), ((0, 0),))

    def test_level_lookup(self):
        assignment = nondominated_sort([(1, 1), (0, 0)])
        assert assignment.level_by_vector == {(1, 1): 1, (0, 0): 2}

    @given(vector_lists)
    def test_matches_the_peeling_sort(self, points):
        assert nondominated_sort(points).levels == tuple(
            tuple(sorted(level, reverse=True)) for level in naive.levels(points)
        )

    @given(vector_lists)
    def test_levels_partition_distinct_vectors(self, points):
        assignment = nondominated_sort(points)
        flattened = [v for level in assignment.levels for v in level]
        assert sorted(flattened) == sorted(set(points))

    @given(vector_lists)
    def test_level_one_is_the_filter(self, points):
        maximal = {points[i] for i in naive.pareto_set(points)}
        assert set(nondominated_sort(points).levels[0]) == maximal

    @given(vector_lists)
    def test_each_level_is_mutually_nondominated(self, points):
        for level in nondominated_sort(points).levels:
            for a in level:
                for b in level:
                    assert not dominates(a, b)

    @given(vector_lists)
    def test_every_deeper_vector_is_dominated_by_the_level_above(self, points):
        levels = nondominated_sort(points).levels
        for upper, lower in zip(levels, levels[1:]):
            for v in lower:
                assert any(dominates(u, v) for u in upper)

    @given(vector_lists, st.integers(min_value=0, max_value=5))
    def test_translation_invariance(self, points, shift):
        base = nondominated_sort(points).levels
        moved = nondominated_sort([(a + shift, b + shift) for a, b in points]).levels
        assert base == tuple(
            tuple((a - shift, b - shift) for a, b in level) for level in moved
        )
