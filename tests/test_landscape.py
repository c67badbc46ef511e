"""Exhaustive landscape analysis: frozen exact counts per family, the seven
characteristic flags, separability, symmetry, front shapes, caps and the
one-slot report memo, plus brute-force references for the enumeration
core's flat-array helpers."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibench.bitstring import all_strings, count_ones, neighbors
from bibench.errors import EnumerationCapError, ValidationError
from bibench.landscape import (
    CAP_ENV_VAR,
    DEFAULT_CAP,
    FrontShape,
    _bit_reverser,
    _component_count,
    _report,
    characteristic_profile,
    enumerate_landscape,
    enumeration_cap,
    front_shape,
    is_completely_conflicting,
    is_fully_separable,
    is_symmetric_pair,
    render_report,
    summary_line,
)
from bibench.oracles import grid_instances, verify
from bibench.problems import evaluate, parse_descriptor, validate


def report_for(descriptor):
    return enumerate_landscape(parse_descriptor(descriptor))


class TestFrozenCounts:
    # (descriptor, |PS|, ratio, components, |LO|, levels)
    TABLE = [
        ("omm:n=8", 256, Fraction(1), 1, 0, 1),
        ("lotz:n=8", 9, Fraction(9, 256), 1, 0, 8),
        ("ojzj:n=8,k=2", 240, Fraction(15, 16), 3, 0, 2),
        ("ojzj:n=8,k=1", 256, Fraction(1), 1, 0, 1),
        ("cocz:n=8", 16, Fraction(1, 16), 1, 0, 5),
        ("orzr:n=8,l=4", 4, Fraction(1, 64), 4, 60, 3),
        ("orzr:n=8,l=2", 16, Fraction(1, 16), 16, 0, 5),
        ("omtz:n=8", 9, Fraction(9, 256), 1, 0, 8),
        ("omzj:n=8,k=3", 220, Fraction(55, 64), 2, 0, 3),
        ("omzr:n=8,l=2", 16, Fraction(1, 16), 16, 0, 5),
        ("lozj:n=8,k=3", 7, Fraction(7, 256), 2, 55, 10),
        ("lozr:n=8,l=2", 5, Fraction(5, 256), 5, 11, 9),
        ("ojzr:n=12,k=5,l=3", 156, Fraction(39, 1024), 120, 648, 10),
        ("ojzr:n=12,k=6,l=3", 12, Fraction(3, 1024), 12, 918, 11),
    ]

    @pytest.mark.parametrize("row", TABLE, ids=lambda r: r[0])
    def test_counts(self, row):
        descriptor, ps, ratio, components, lo, levels = row
        rep = report_for(descriptor)
        assert len(rep.pareto_set_indices) == ps
        assert rep.ratio == ratio
        assert rep.component_count == components
        assert len(rep.local_optima_indices) == lo
        assert len(rep.levels) == levels

    def test_lotz_front_is_the_antichain_of_prefixes(self):
        rep = report_for("lotz:n=8")
        assert [v for v, _ in rep.front_counts] == [(i, 8 - i) for i in range(9)]
        assert all(count == 1 for _, count in rep.front_counts)
        assert {str(x) for x in rep.pareto_set} == {
            "1" * i + "0" * (8 - i) for i in range(9)
        }

    def test_omm_front_multiplicities_are_binomials(self):
        rep = report_for("omm:n=8")
        assert rep.front_counts == tuple(
            ((i, 8 - i), [1, 8, 28, 56, 70, 56, 28, 8, 1][i]) for i in range(9)
        )

    def test_ojzj_front_includes_both_jump_peaks(self):
        rep = report_for("ojzj:n=8,k=2")
        vectors = [v for v, _ in rep.front_counts]
        assert vectors[0] == (2, 10)
        assert vectors[-1] == (10, 2)
        assert len(vectors) == 7

    def test_ojzr_concave_witness_carries_the_bulk(self):
        rep = report_for("ojzr:n=12,k=5,l=3")
        assert dict(rep.front_counts)[(12, 3)] == 144
        assert dict(rep.local_front_counts) == {(12, 0): 648}

    def test_pareto_set_strings_are_mutually_nondominated(self):
        inst = parse_descriptor("lozr:n=8,l=2")
        rep = enumerate_landscape(inst)
        values = [evaluate(inst, x) for x in rep.pareto_set]
        for a in values:
            for b in values:
                assert not (a != b and a[0] >= b[0] and a[1] >= b[1])

    def test_local_optima_have_no_dominating_neighbor(self):
        inst = parse_descriptor("lozj:n=8,k=3")
        rep = enumerate_landscape(inst)
        front = {v for v, _ in rep.front_counts}
        for x in rep.local_optima:
            vec = evaluate(inst, x)
            assert vec not in front
            for y in neighbors(x):
                w = evaluate(inst, y)
                assert not (w != vec and w[0] >= vec[0] and w[1] >= vec[1])


class TestOnesTables:
    @pytest.mark.parametrize(
        "descriptor", ["omm:n=6", "lotz:n=6", "ojzj:n=8,k=2", "ojzr:n=12,k=5,l=3"]
    )
    def test_tables_partition_the_cube(self, descriptor):
        rep = report_for(descriptor)
        n = rep.n
        assert [ones for ones, _ in rep.ones_tables] == list(range(n + 1))
        for ones, summary in rep.ones_tables:
            expected = math.comb(n, ones)
            assert sum(c for _, c in summary.f1_counts) == expected
            assert sum(c for _, c in summary.f2_counts) == expected
            assert sum(c for _, c in summary.level_counts) == expected


class TestCharacteristicFlags:
    # flag order: non_symmetric, non_completely_conflicting, disjoint_optima,
    # not_fully_separable, low_ratio_witness, nonlinear_front, has_local_optima
    TABLE = [
        ("omm:n=8", (False, False, False, False, False, False, False)),
        ("lotz:n=8", (False, True, False, True, True, False, False)),
        ("ojzj:n=8,k=2", (False, True, True, True, False, False, False)),
        ("cocz:n=8", (True, True, False, False, True, False, False)),
        ("orzr:n=8,l=4", (False, True, True, True, True, False, True)),
        ("orzr:n=8,l=2", (False, True, True, True, True, False, False)),
        ("omtz:n=8", (True, True, False, True, True, False, False)),
        ("omzj:n=8,k=3", (True, True, True, True, False, False, False)),
        ("omzr:n=8,l=2", (True, True, True, True, True, False, False)),
        ("lozj:n=8,k=3", (True, True, True, True, True, False, True)),
        ("lozr:n=8,l=2", (True, True, True, True, True, False, True)),
        ("ojzr:n=12,k=5,l=3", (True, True, True, True, True, True, True)),
        ("ojzr:n=12,k=6,l=3", (True, True, True, True, True, False, True)),
    ]

    @pytest.mark.parametrize("row", TABLE, ids=lambda r: r[0])
    def test_flags(self, row):
        descriptor, expected = row
        profile = characteristic_profile(parse_descriptor(descriptor))
        assert profile.flags == expected

    def test_flags_property_matches_fields(self):
        p = characteristic_profile(validate("lotz", 6))
        assert p.flags == (
            p.non_symmetric,
            p.non_completely_conflicting,
            p.disjoint_optima,
            p.not_fully_separable,
            p.low_ratio_witness,
            p.nonlinear_front,
            p.has_local_optima,
        )

    def test_low_ratio_threshold_is_inclusive_and_overridable(self):
        inst = validate("ojzj", 8, k=2)
        assert not characteristic_profile(inst).low_ratio_witness
        loose = characteristic_profile(inst, low_ratio_threshold=Fraction(15, 16))
        assert loose.low_ratio_witness


class TestPredicates:
    def test_symmetric_pairs(self):
        for descriptor in ["omm:n=6", "lotz:n=6", "ojzj:n=8,k=2", "orzr:n=8,l=2"]:
            assert is_symmetric_pair(parse_descriptor(descriptor)), descriptor
        for descriptor in ["cocz:n=6", "omtz:n=6", "omzj:n=8,k=3", "lozr:n=8,l=2"]:
            assert not is_symmetric_pair(parse_descriptor(descriptor)), descriptor

    def test_completely_conflicting_only_for_omm(self):
        assert is_completely_conflicting(validate("omm", 8))
        for descriptor in ["lotz:n=8", "cocz:n=8", "ojzj:n=8,k=2", "omtz:n=8"]:
            assert not is_completely_conflicting(parse_descriptor(descriptor))


class TestSeparability:
    def test_counting_objectives_are_separable(self):
        for descriptor, objective in [
            ("omm:n=6", 1),
            ("omm:n=6", 2),
            ("cocz:n=6", 1),
            ("cocz:n=6", 2),
            ("omtz:n=6", 1),
            ("omzj:n=8,k=3", 1),
        ]:
            rep = is_fully_separable(parse_descriptor(descriptor), objective)
            assert rep.separable, (descriptor, objective)
            assert rep.witness is None

    def test_positional_objectives_are_not_separable(self):
        for descriptor, objective in [
            ("lotz:n=6", 1),
            ("lotz:n=6", 2),
            ("omtz:n=6", 2),
            ("ojzj:n=8,k=2", 1),
            ("orzr:n=8,l=2", 1),
            ("lozr:n=8,l=2", 2),
        ]:
            rep = is_fully_separable(parse_descriptor(descriptor), objective)
            assert not rep.separable, (descriptor, objective)

    def test_contributions_reconstruct_the_objective(self):
        from bibench.bitstring import all_strings

        for descriptor, objective in [("omm:n=6", 2), ("cocz:n=6", 2)]:
            inst = parse_descriptor(descriptor)
            rep = is_fully_separable(inst, objective)
            for x in all_strings(6):
                total = sum(
                    pair[x.bit(pos)] for pos, pair in enumerate(rep.contributions, 1)
                )
                assert total == evaluate(inst, x)[objective - 1]

    def test_witness_really_breaks_constancy(self):
        inst = validate("lotz", 6)
        rep = is_fully_separable(inst, 1)
        a, b = rep.witness
        pos = rep.witness_position
        da = evaluate(inst, a.with_flipped(pos))[0] - evaluate(inst, a)[0]
        db = evaluate(inst, b.with_flipped(pos))[0] - evaluate(inst, b)[0]
        assert (da, db) == rep.witness_deltas
        assert da != db

    def test_objective_selector_is_validated(self):
        with pytest.raises(ValidationError):
            is_fully_separable(validate("omm", 4), 3)
        with pytest.raises(ValidationError):
            is_fully_separable(validate("omm", 4), True)


class TestFrontShape:
    def test_ojzr_pair(self):
        assert front_shape(validate("ojzr", 12, k=5, l=3)) is FrontShape.NONLINEAR_CONCAVE
        assert front_shape(validate("ojzr", 12, k=6, l=3)) is FrontShape.LINEAR

    @pytest.mark.parametrize(
        "descriptor",
        [
            "omm:n=8",
            "lotz:n=8",
            "ojzj:n=8,k=2",
            "cocz:n=8",
            "orzr:n=8,l=4",
            "omtz:n=8",
            "omzj:n=8,k=3",
            "omzr:n=8,l=2",
            "lozj:n=8,k=3",
            "lozr:n=8,l=2",
        ],
    )
    def test_everything_else_is_linear_at_desk_scale(self, descriptor):
        assert front_shape(parse_descriptor(descriptor)) is FrontShape.LINEAR


class TestCaps:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        assert enumeration_cap() == DEFAULT_CAP

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        assert enumeration_cap() == 10
        with pytest.raises(EnumerationCapError):
            enumerate_landscape(validate("omm", 12))

    def test_env_var_must_be_a_positive_integer(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "ten")
        with pytest.raises(ValidationError):
            enumeration_cap()
        monkeypatch.setenv(CAP_ENV_VAR, "0")
        with pytest.raises(ValidationError):
            enumeration_cap()

    def test_explicit_cap_beats_env(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "4")
        assert enumerate_landscape(validate("omm", 8), cap=8).n == 8
        with pytest.raises(EnumerationCapError):
            enumerate_landscape(validate("omm", 8), cap=6)

    def test_bad_override(self):
        with pytest.raises(ValidationError):
            enumeration_cap(0)
        with pytest.raises(ValidationError):
            enumeration_cap(True)


class TestReportMemo:
    def test_only_the_latest_report_is_kept(self):
        enumerate_landscape(validate("omm", 6))
        enumerate_landscape(validate("lotz", 6))
        assert _report.cache_info().currsize == 1

    def test_profile_and_verify_reuse_the_report(self):
        inst = validate("ojzr", 12, k=5, l=3)
        enumerate_landscape(inst)
        misses = _report.cache_info().misses
        characteristic_profile(inst)
        verify(inst)
        assert _report.cache_info().misses == misses

    def test_repr_omits_the_value_table(self):
        rep = report_for("omm:n=4")
        assert len(rep.values) == 16
        assert "values=" not in repr(rep)


class TestRendering:
    GOLDEN_OMM2 = (
        "instance: omm:n=2\n"
        "search_space: 4\n"
        "pareto_set: 4\n"
        "pareto_front: 3\n"
        "ratio: 1/1\n"
        "components: 1\n"
        "local_optima: 0\n"
        "levels: 1\n"
        "front:\n"
        "f1,f2,count\n"
        "0,2,1\n"
        "1,1,2\n"
        "2,0,1\n"
        "local_optima_strings:\n"
        "ones_tables:\n"
        "ones,f1_value:count,f2_value:count,level:count\n"
        "0,0:1,2:1,1:1\n"
        "1,1:2,1:2,1:2\n"
        "2,2:1,0:1,1:1\n"
    )

    def test_golden_report(self):
        assert render_report(report_for("omm:n=2")) == self.GOLDEN_OMM2

    def test_render_is_stable(self):
        rep = report_for("lozr:n=8,l=2")
        assert render_report(rep) == render_report(rep)

    def test_summary_line(self):
        assert summary_line(report_for("omm:n=8")) == (
            "|PS|=256 ratio=1/1 components=1 |LO|=0"
        )
        assert summary_line(report_for("ojzj:n=8,k=2")) == (
            "|PS|=240 ratio=15/16 components=3 |LO|=0"
        )


def reference_component_count(members: set[int], n: int) -> int:
    """Connected components of the Hamming-1 graph on members: a set-based
    DFS, the naive reference for the mask flood."""
    seen: set[int] = set()
    components = 0
    for start in members:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            for b in range(n):
                nb = cur ^ (1 << b)
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return components


cube_subsets = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1)))
)


class TestFlatHelpers:
    @given(cube_subsets)
    @settings(max_examples=200)
    def test_mask_component_count_matches_reference(self, case):
        n, members = case
        mask = bytearray(1 << n)
        for i in members:
            mask[i] = 1
        assert _component_count(mask, n) == reference_component_count(members, n)
        assert not any(mask)

    @pytest.mark.parametrize("n", range(1, 64))
    def test_bit_reverser_matches_string_reversal(self, n):
        reverse = _bit_reverser(n)
        top = (1 << n) - 1
        samples = {0, 1, top, top >> 1, 1 << (n - 1), 0x5555555555555555 & top}
        samples.update((i * 0x9E3779B97F4A7C15) & top for i in range(1, 200))
        for i in samples:
            assert reverse(i) == int(format(i, f"0{n}b")[::-1], 2), (n, i)


def _dominates(a, b):
    return a != b and a[0] >= b[0] and a[1] >= b[1]


class TestBruteForceCrossCheck:
    """Pareto set, local optima, components and ones tables of the report
    against a reference built from evaluate, pairwise dominance and BFS."""

    INSTANCES = [
        "omm:n=8",
        "lotz:n=8",
        "ojzj:n=8,k=2",
        "cocz:n=8",
        "orzr:n=8,l=4",
        "omtz:n=8",
        "omzj:n=8,k=3",
        "omzr:n=8,l=2",
        "lozj:n=8,k=3",
        "lozr:n=8,l=2",
        "ojzr:n=8,k=3,l=2",
    ]

    @pytest.mark.parametrize("descriptor", INSTANCES)
    def test_report_matches_reference(self, descriptor):
        inst = parse_descriptor(descriptor)
        n = inst.n
        vec = {x: evaluate(inst, x) for x in all_strings(n)}

        level = {}
        remaining = set(vec.values())
        depth = 0
        while remaining:
            depth += 1
            top = {v for v in remaining if not any(_dominates(w, v) for w in remaining)}
            level.update(dict.fromkeys(top, depth))
            remaining -= top

        pareto = {x for x, v in vec.items() if level[v] == 1}
        local = {
            x
            for x, v in vec.items()
            if x not in pareto and not any(_dominates(vec[y], v) for y in neighbors(x))
        }

        unseen = set(pareto)
        components = 0
        while unseen:
            components += 1
            queue = [unseen.pop()]
            while queue:
                x = queue.pop(0)
                for y in neighbors(x):
                    if y in unseen:
                        unseen.remove(y)
                        queue.append(y)

        tables = []
        for ones in range(n + 1):
            row = [v for x, v in vec.items() if count_ones(x) == ones]
            tables.append(
                (
                    ones,
                    (
                        tuple(sorted(Counter(a for a, _ in row).items())),
                        tuple(sorted(Counter(b for _, b in row).items())),
                        tuple(sorted(Counter(level[v] for v in row).items())),
                    ),
                )
            )

        rep = enumerate_landscape(inst)
        assert all(rep.values[x.index] == v for x, v in vec.items())
        assert rep.pareto_set_indices == tuple(sorted(x.index for x in pareto))
        assert rep.local_optima_indices == tuple(sorted(x.index for x in local))
        assert rep.component_count == components
        assert [
            (ones, (t.f1_counts, t.f2_counts, t.level_counts))
            for ones, t in rep.ones_tables
        ] == tables


small_instances = st.sampled_from(grid_instances(n_values=range(1, 11)))


class TestReportProperties:
    """Properties of the report on random valid instances with n <= 10,
    drawn from every family's parameter rule."""

    @given(small_instances)
    @settings(max_examples=100, deadline=None)
    def test_symmetric_pairs_map_the_pareto_set_onto_itself(self, inst):
        if not is_symmetric_pair(inst):
            return
        n = inst.n
        ps = set(enumerate_landscape(inst).pareto_set_indices)
        mirror = {int(format(i ^ ((1 << n) - 1), f"0{n}b")[::-1], 2) for i in ps}
        assert mirror == ps

    @given(small_instances)
    @settings(max_examples=100, deadline=None)
    def test_ones_table_rows_sum_to_binomials(self, inst):
        n = inst.n
        for ones, summary in enumerate_landscape(inst).ones_tables:
            for counts in (summary.f1_counts, summary.f2_counts, summary.level_counts):
                assert sum(c for _, c in counts) == math.comb(n, ones)
