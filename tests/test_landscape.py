"""Exhaustive landscape analysis: frozen exact counts per family, the seven
characteristic flags, separability, symmetry, front shapes, caps and the
one-slot report memo. The report, the predicates and the enumeration
core's helpers are checked against the definitions in naive.py."""

import contextlib
import dataclasses
import io
import math
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from planes import at_span, objective_planes
from bibench import landscape, problems
from bibench.bitstring import BitString
from bibench.cli import _FIGURE_BUILDERS, FIGURE_KINDS, figure_objective_space, main
from bibench.dominance import nondominated_sort
from bibench.errors import EnumerationCapError, ValidationError
from bibench.landscape import (
    BYTES_PER_STRING,
    CAP_ENV_VAR,
    DEFAULT_CAP,
    MAX_CAP,
    FrontShape,
    _component_count,
    _counting_steps,
    _front_shape,
    _local_optima,
    _binary_lines,
    _members,
    _report,
    _set_lanes,
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
from bibench.oracles import grid_instances, render_verification, verify
from bibench.problems import (
    ProblemInstance,
    _image_counts,
    _join,
    _split,
    _statistic_pairs,
    _union,
    evaluate,
    image_polys,
    index_evaluator,
    parse_descriptor,
)
from test_acceptance import PROFILE_TABLE


def report_for(descriptor):
    return enumerate_landscape(parse_descriptor(descriptor))


# One instance per family at n = 18.
FAMILIES_AT_18 = [
    "omm:n=18", "lotz:n=18", "ojzj:n=18,k=4", "cocz:n=18", "orzr:n=18,l=3",
    "omtz:n=18", "omzj:n=18,k=4", "omzr:n=18,l=3", "lozj:n=18,k=4",
    "lozr:n=18,l=3", "ojzr:n=18,k=7,l=3",
]


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
        assert {str(BitString(8, i)) for i in rep.pareto_set_indices} == {
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
        values = [evaluate(inst, BitString(8, i)) for i in rep.pareto_set_indices]
        for a in values:
            for b in values:
                assert not (a != b and a[0] >= b[0] and a[1] >= b[1])

    def test_local_optima_have_no_dominating_neighbor(self):
        inst = parse_descriptor("lozj:n=8,k=3")
        rep = enumerate_landscape(inst)
        front = {v for v, _ in rep.front_counts}
        vecs = naive.vectors(inst)
        for i in rep.local_optima_indices:
            assert vecs[i] not in front
            assert not any(naive.dominates(vecs[i ^ 1 << b], vecs[i]) for b in range(8))


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
    @pytest.mark.parametrize("row", PROFILE_TABLE, ids=lambda r: r[0])
    def test_flags(self, row):
        descriptor, expected = row
        profile = characteristic_profile(parse_descriptor(descriptor))
        assert profile.flags == expected

    def test_flags_property_matches_fields(self):
        p = characteristic_profile(ProblemInstance("lotz", 6))
        assert p.flags == (
            p.non_symmetric,
            p.non_completely_conflicting,
            p.disjoint_optima,
            p.not_fully_separable,
            p.low_ratio_witness,
            p.nonlinear_front,
            p.has_local_optima,
        )

    def test_low_ratio_threshold_is_inclusive(self):
        half = characteristic_profile(ProblemInstance("cocz", 2))
        assert half.ratio == Fraction(1, 2) and half.low_ratio_witness
        high = characteristic_profile(ProblemInstance("ojzj", 8, k=2))
        assert high.ratio == Fraction(15, 16) and not high.low_ratio_witness


class TestPredicates:
    def test_symmetric_pairs(self):
        for descriptor in ["omm:n=6", "lotz:n=6", "ojzj:n=8,k=2", "orzr:n=8,l=2"]:
            assert is_symmetric_pair(parse_descriptor(descriptor)), descriptor
        for descriptor in ["cocz:n=6", "omtz:n=6", "omzj:n=8,k=3", "lozr:n=8,l=2"]:
            assert not is_symmetric_pair(parse_descriptor(descriptor)), descriptor

    def test_completely_conflicting_only_for_omm(self):
        assert is_completely_conflicting(ProblemInstance("omm", 8))
        for descriptor in ["lotz:n=8", "cocz:n=8", "ojzj:n=8,k=2", "omtz:n=8"]:
            assert not is_completely_conflicting(parse_descriptor(descriptor))

    def test_complete_conflict_matches_the_consecutive_pair_scan(self):
        """One non-dominated level against the definition: consecutive
        distinct vectors never share f1, and f2 strictly falls."""
        for inst in grid_instances(None, range(1, 13)):
            distinct = sorted(enumerate_landscape(inst).vector_counts)
            scan = all(
                b1 != a1 and b2 < a2 for (a1, a2), (b1, b2) in zip(distinct, distinct[1:])
            )
            assert is_completely_conflicting(inst) == scan, inst.descriptor


def plane_is_separable(plane, n):
    """is_fully_separable of an objective whose final values by index are
    the plane, read by an automaton whose state after index bit m is the
    index's low m + 1 bits."""
    tables = [(range(1 << m), [s | 1 << m for s in range(1 << m)]) for m in range(n)]
    with mock.patch.object(landscape, "_objective_tables", return_value=[(tables, plane)]):
        return is_fully_separable(ProblemInstance("omm", n), 1)


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
            inst = parse_descriptor(descriptor)
            assert is_fully_separable(inst, objective) is True, (descriptor, objective)

    def test_positional_objectives_are_not_separable(self):
        for descriptor, objective in [
            ("lotz:n=6", 1),
            ("lotz:n=6", 2),
            ("omtz:n=6", 2),
            ("ojzj:n=8,k=2", 1),
            ("orzr:n=8,l=2", 1),
            ("lozr:n=8,l=2", 2),
        ]:
            inst = parse_descriptor(descriptor)
            assert is_fully_separable(inst, objective) is False, (descriptor, objective)

    def test_the_verdict_is_a_bool(self):
        # A report object would be truthy whatever it said.
        for descriptor in ["omm:n=6", "lotz:n=6", "ojzr:n=63,k=7,l=3"]:
            inst = parse_descriptor(descriptor)
            for objective in (1, 2):
                assert type(is_fully_separable(inst, objective)) is bool, (descriptor, objective)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_witness_after_a_separable_position(self, n):
        # Index bit n - 1, position 1, only adds 63, so the naive witness
        # lies at a later position, and indices with the flipped bit set,
        # which are not contexts, must not count.
        rng = random.Random(n)
        low = [rng.randrange(64) for _ in range(1 << (n - 1))]
        plane = bytes(low + [v + 63 for v in low])
        witness = naive.separability(plane, n)
        assert witness is not None and witness[0] >= 2
        assert plane_is_separable(plane, n) is False, witness

    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_interacting_pair_of_bits_is_found(self, n):
        # A separable plane plus 1 where index bits b and c are both set:
        # only b and c have a flip delta that depends on the context, so
        # the check must reach whichever pair it is.
        rng = random.Random(n)
        weights = [rng.randrange(16) for _ in range(n)]
        plane = [sum(w for m, w in enumerate(weights) if i >> m & 1) for i in range(1 << n)]
        assert plane_is_separable(bytes(plane), n) is True
        for b, c in combinations(range(n), 2):
            pair = bytes(v + (i >> b & i >> c & 1) for i, v in enumerate(plane))
            assert plane_is_separable(pair, n) is False, (b, c)

    def test_one_pass_check_matches_the_scan(self):
        instances = grid_instances(None, range(1, 17))
        assert len(instances) == 434
        for inst in instances:
            planes = objective_planes(inst)
            for objective in (1, 2):
                witness = naive.separability(planes[objective - 1], inst.n)
                assert is_fully_separable(inst, objective) is (witness is None), (
                    inst.descriptor,
                    objective,
                    witness,
                )

    def test_profile_reads_the_same_separability(self):
        instances = grid_instances(None, range(1, 17))
        assert len(instances) == 434
        for inst in instances:
            both = is_fully_separable(inst, 1) and is_fully_separable(inst, 2)
            assert characteristic_profile(inst).not_fully_separable is not both, inst.descriptor

    def test_every_context_counts(self):
        # The majority of three bits: flipping one bit changes it by 0 where
        # the other two are both clear or both set, and by 1 elsewhere.
        plane = bytes(int(i.bit_count() >= 2) for i in range(8))
        assert naive.separability(plane, 3) is not None
        assert plane_is_separable(plane, 3) is False

    def test_reports_beyond_the_grid_check_against_the_evaluator(self):
        # From n = 17 no plane is built to check against, so each verdict is
        # certified by the evaluator. Separable: the value at 0 plus the
        # flip deltas at context 0 of the index's set bits rebuild the value
        # at random indices. Not separable: some bit's flip delta differs
        # from context 0's at a single-bit context or at all ones but that
        # bit.
        rng = random.Random(32)
        for inst in grid_instances(None, range(17, 33)):
            n = inst.n
            evaluator = index_evaluator(inst)
            for objective in (1, 2):

                def value(i):
                    return evaluator(i)[objective - 1]

                base = value(0)
                deltas = [value(1 << b) - base for b in range(n)]
                if is_fully_separable(inst, objective):
                    for i in (rng.getrandbits(n) for _ in range(20)):
                        total = base + sum(d for b, d in enumerate(deltas) if i >> b & 1)
                        assert total == value(i), (inst.descriptor, objective, i)
                    continue
                full = (1 << n) - 1
                witness = next(
                    (
                        (b, c)
                        for b in range(n)
                        for c in [1 << m for m in range(n) if m != b] + [full ^ 1 << b]
                        if value(c | 1 << b) - value(c) != deltas[b]
                    ),
                    None,
                )
                assert witness is not None, (inst.descriptor, objective)

    def test_objective_selector_is_validated(self):
        with pytest.raises(ValidationError):
            is_fully_separable(ProblemInstance("omm", 4), 3)
        for selector in (True, 1.0, Fraction(2)):
            with pytest.raises(ValidationError, match="objective selector must be 1 or 2"):
                is_fully_separable(ProblemInstance("omm", 4), selector)


class TestFrontShape:
    def test_ojzr_pair(self):
        assert front_shape(ProblemInstance("ojzr", 12, k=5, l=3)) is FrontShape.NONLINEAR_CONCAVE
        assert front_shape(ProblemInstance("ojzr", 12, k=6, l=3)) is FrontShape.LINEAR

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

    def test_a_convex_front_is_not_classified(self):
        # Half-mix against all-ones blocks at n = 6, l = 2, a pair of the
        # library's objectives that no family mixes, has a front whose
        # middle point lies above the chord of the other two: neither
        # collinear nor bent below its upper hull, so front_shape raises
        # (and characteristic_profile with it). No catalog instance up to
        # n = 32 has such a front.
        strings = [format(i, "06b") for i in range(64)]
        vecs = [(naive.ones_then_zeroes(x, 0, 2), naive.all_ones_blocks(x, 0, 2)) for x in strings]
        points = sorted({vecs[i] for i in naive.pareto_set(vecs)})
        assert points == [(3, 6), (5, 4), (6, 2)]
        assert naive.front_shape(points) is None
        with pytest.raises(ValidationError, match="neither collinear nor concave"):
            _front_shape(ProblemInstance("omm", 6), points)
        shapes = Counter(front_shape(inst) for inst in grid_instances(None, range(1, 33)))
        assert shapes == {FrontShape.LINEAR: 1582, FrontShape.NONLINEAR_CONCAVE: 190}

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1,
            max_size=10,
            unique_by=lambda v: v[0],
        )
    )
    @settings(max_examples=500)
    def test_turns_match_the_upper_hull(self, points):
        # The classifier reads only the front's points; a front that bends
        # the other way is not classified.
        points = sorted(points)
        try:
            shape = _front_shape(ProblemInstance("omm", 2), points).value
        except ValidationError:
            shape = None
        assert shape == naive.front_shape(points)


class TestCaps:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        assert enumeration_cap() == DEFAULT_CAP

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        assert enumeration_cap() == 10
        with pytest.raises(EnumerationCapError):
            enumerate_landscape(ProblemInstance("omm", 12))

    # One instance per family at n = 63 (cocz at 62, as its n is even), with
    # (symmetric, f1 separable, f2 separable), the n = 8 rows' flags, and
    # (completely conflicting, front shape).
    LINEAR, CONCAVE = FrontShape.LINEAR, FrontShape.NONLINEAR_CONCAVE
    BEYOND = [
        ("omm:n=63", (True, True, True), (True, LINEAR)),
        ("lotz:n=63", (True, False, False), (False, LINEAR)),
        ("ojzj:n=63,k=4", (True, False, False), (False, LINEAR)),
        ("cocz:n=62", (False, True, True), (False, LINEAR)),
        ("orzr:n=63,l=3", (True, False, False), (False, LINEAR)),
        ("omtz:n=63", (False, True, False), (False, LINEAR)),
        ("omzj:n=63,k=4", (False, True, False), (False, LINEAR)),
        ("omzr:n=63,l=3", (False, True, False), (False, LINEAR)),
        ("lozj:n=63,k=4", (False, False, False), (False, LINEAR)),
        ("lozr:n=63,l=3", (False, False, False), (False, LINEAR)),
        ("ojzr:n=63,k=7,l=3", (False, False, False), (False, CONCAVE)),
    ]

    @pytest.mark.parametrize("row", BEYOND, ids=lambda r: r[0])
    def test_symmetry_and_separability_answer_beyond_the_cap(self, row, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        descriptor, expected, image = row
        inst = parse_descriptor(descriptor)
        flags = (is_symmetric_pair(inst), *(is_fully_separable(inst, o) for o in (1, 2)))
        assert flags == expected
        assert (is_completely_conflicting(inst), front_shape(inst)) == image
        with pytest.raises(EnumerationCapError):
            characteristic_profile(inst)

    @pytest.mark.parametrize("descriptor", ["lotz:n=8", "cocz:n=8", "ojzr:n=12,k=5,l=3"])
    def test_symmetry_and_separability_read_no_report(self, descriptor):
        inst = parse_descriptor(descriptor)
        expected = characteristic_profile(inst)
        with contextlib.ExitStack() as stack:
            for name in ("_report", "enumerate_landscape"):
                stack.enter_context(
                    mock.patch.object(landscape, name, side_effect=AssertionError(name))
                )
            assert is_symmetric_pair(inst) is not expected.non_symmetric
            separable = all(is_fully_separable(inst, o) for o in (1, 2))
            assert is_completely_conflicting(inst) is not expected.non_completely_conflicting
            assert front_shape(inst) is expected.front_shape
        assert separable is not expected.not_fully_separable

    def test_env_var_must_be_a_positive_integer(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "ten")
        with pytest.raises(ValidationError):
            enumeration_cap()
        monkeypatch.setenv(CAP_ENV_VAR, "0")
        with pytest.raises(ValidationError):
            enumeration_cap()

    def test_env_var_is_bounded_by_the_memory_estimate(self, monkeypatch):
        # MAX_CAP is a stated constant, not derived from the budget.
        assert MAX_CAP == 29
        monkeypatch.setenv(CAP_ENV_VAR, str(MAX_CAP))
        assert enumeration_cap() == MAX_CAP
        monkeypatch.setenv(CAP_ENV_VAR, str(MAX_CAP + 1))
        with pytest.raises(ValidationError, match=f"at most {MAX_CAP}"):
            enumeration_cap()

    def test_cap_error_states_the_memory_estimate(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        with pytest.raises(EnumerationCapError, match="would need about 96 KiB"):
            enumerate_landscape(ProblemInstance("omm", 12))


class TestImagePredicates:
    def test_profile_reads_the_image_predicates(self):
        # The profile reads conflict and shape from its report, the
        # predicates from the counted image.
        assert len(GRID) == 434
        for inst in GRID:
            profile = characteristic_profile(inst)
            assert profile.non_completely_conflicting is not is_completely_conflicting(inst)
            assert profile.front_shape is front_shape(inst), inst.descriptor

    def test_profile_enumerates_once(self):
        inst = ProblemInstance("ojzr", 12, k=5, l=3)
        with mock.patch.object(
            landscape, "enumerate_landscape", wraps=enumerate_landscape
        ) as enumerate_spy:
            characteristic_profile(inst)
        assert enumerate_spy.call_count == 1


class TestReportMemo:
    def test_only_the_latest_report_is_kept(self):
        enumerate_landscape(ProblemInstance("omm", 6))
        enumerate_landscape(ProblemInstance("lotz", 6))
        assert _report.cache_info().currsize == 1

    def test_profile_and_verify_reuse_the_report(self):
        inst = ProblemInstance("ojzr", 12, k=5, l=3)
        enumerate_landscape(inst)
        misses = _report.cache_info().misses
        characteristic_profile(inst)
        verify(inst)
        assert _report.cache_info().misses == misses

    def test_repr_omits_the_value_table(self):
        rep = report_for("omm:n=4")
        assert not hasattr(rep, "planes")
        assert "planes=" not in repr(rep)

    @pytest.mark.parametrize("descriptor", FAMILIES_AT_18)
    def test_the_memo_holds_no_plane(self, descriptor):
        # The dense path (omm, ojzj, omzj) evaluates its non-members, and
        # verify shows an ojzr mismatch's strings with their values; neither
        # leaves a plane in the memo, and no read leaves an index array.
        # What clearing it frees is the packed bits and the small tables:
        # 0.15 to 0.41 bytes per string, where the two planes alone would
        # be 2 and the two index arrays of a dense Pareto set 4.
        inst = parse_descriptor(descriptor)
        _report.cache_clear()

        def read_everything():
            report = enumerate_landscape(inst)
            characteristic_profile(inst)
            render_report(report)
            verify(inst)
            len(report.pareto_set_indices)
            len(report.local_optima_indices)
            for build in _FIGURE_BUILDERS.values():
                build(report)

        tracemalloc.start()
        try:
            read_everything()
            held = tracemalloc.get_traced_memory()[0]
            _report.cache_clear()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed <= (1 << inst.n) // 2


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


cube_subsets = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1)))
)


class TestFlatHelpers:
    @given(cube_subsets)
    @settings(max_examples=200)
    def test_mask_component_count_matches_reference(self, case):
        # The sparse flood takes the members as a set, which it empties.
        n, members = case
        flooded = set(members)
        assert _component_count(flooded, n) == naive.components(members, n)
        assert not flooded

    def test_dense_profile_builds_no_mask_wider_than_a_block(self):
        # ojzj:n=18,k=4's Pareto set holds 260,170 of 2^18 strings. Both of
        # its objectives read one count, so the local optima and the
        # component count are read from the levels of the cube, and
        # neither derives a mask; the block scan, which would, is not run.
        inst = parse_descriptor("ojzj:n=18,k=4")
        _report.cache_clear()
        with mock.patch.object(landscape, "_bit_clears") as masks:
            assert characteristic_profile(inst).component_count == 3
        masks.assert_not_called()
        _report.cache_clear()

    @pytest.mark.parametrize("n", range(0, 11))
    def test_bit_masks_match_the_index_bits(self, n):
        # Each mask is derived from the one before it, from b = n - 1 down.
        masks = list(landscape._bit_clears(n))
        assert [b for b, _ in masks] == list(reversed(range(n)))
        for b, mask in masks:
            assert mask == sum(1 << i for i in range(1 << n) if not i >> b & 1), b

    @pytest.mark.parametrize("n", range(1, 64))
    def test_bit_reverser_matches_string_reversal(self, n, monkeypatch):
        # The symmetry check reads f2's steps from the last index bit back,
        # so it must agree with complementing and reversing the text of each
        # string: exhaustively up to n = 12, and on sampled strings beyond.
        # Beyond MAX_CAP no plane is built, yet the check still answers.
        if n > MAX_CAP:
            monkeypatch.delenv(CAP_ENV_VAR, raising=False)
            with pytest.raises(EnumerationCapError):
                enumerate_landscape(ProblemInstance("omm", n))
        rng = random.Random(n)
        top = (1 << n) - 1
        if n <= 12:
            picked = range(top + 1)
        else:
            picked = {0, top, *(rng.randrange(top + 1) for _ in range(200))}
        for name in ("lotz", "omtz"):
            inst = ProblemInstance(name, n)
            swapped = all(
                evaluate(inst, BitString(n, i))
                == evaluate(inst, BitString.from_text(f"{i ^ top:0{n}b}"[::-1]))[::-1]
                for i in picked
            )
            assert is_symmetric_pair(inst) == swapped, (name, n)


def reference_render(report):
    """The former render_report: one str.format per local optimum, found by
    reading the packed set's binary text, and the sizes from the index
    arrays."""
    n = report.n
    local = [i for i, c in enumerate(reversed(format(report.local_optima_bits, "b"))) if c == "1"]
    lines = [
        f"instance: {report.instance.descriptor}",
        f"search_space: {1 << n}",
        f"pareto_set: {len(report.pareto_set_indices)}",
        f"pareto_front: {len(report.front_counts)}",
        f"ratio: {report.ratio.numerator}/{report.ratio.denominator}",
        f"components: {report.component_count}",
        f"local_optima: {len(report.local_optima_indices)}",
        f"levels: {len(report.levels)}",
        "front:",
        "f1,f2,count",
    ]
    lines.extend(f"{a},{b},{c}" for (a, b), c in report.front_counts)
    lines.append("local_optima_strings:")
    lines.extend(map(f"{{:0{n}b}}".format, local))
    lines.append("ones_tables:")
    lines.append("ones,f1_value:count,f2_value:count,level:count")
    for ones, summary in report.ones_tables:
        lines.append(
            f"{ones},{';'.join(f'{v}:{c}' for v, c in summary.f1_counts)},"
            f"{';'.join(f'{v}:{c}' for v, c in summary.f2_counts)},"
            f"{';'.join(f'{v}:{c}' for v, c in summary.level_counts)}"
        )
    return "\n".join(lines) + "\n"


GRID = grid_instances(None, range(1, 17))


class TestMirror:
    def test_grid_planes_and_symmetry_match_the_delta_swaps(self):
        for inst in GRID:
            f1, f2 = objective_planes(inst)
            symmetric = naive.mirror(f1[::-1], inst.n) == f2
            assert is_symmetric_pair(inst) == symmetric, inst.descriptor


def packed(members, n):
    """The int over 2^n strings whose bit i is set for each i in members."""
    raw = bytearray((1 << n) + 7 >> 3)
    for i in members:
        raw[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(raw, "little")


def index_arrays(bits, n):
    """The index arrays of a report whose Pareto set and local optima are
    both the packed set bits over 2^n strings."""
    report = landscape.LandscapeReport(ProblemInstance("omm", n), (), (), {}, bits, bits, {})
    return [report.pareto_set_indices, report.local_optima_indices]


def binary_lines(bits, n):
    """The text that _binary_lines yields span by span, joined."""
    return "".join(_binary_lines(bits, n))


class TestBinaryLines:
    """The members of a packed set, listed from its packed bytes: one at a
    time (_members), which the report's index arrays read, and as text
    lines (_binary_lines), through the byte lanes of _set_lanes, both
    yielded per span of nonzero packed bytes."""

    @pytest.mark.parametrize("n", range(1, 26))
    def test_lines_match_format(self, n):
        rng = random.Random(n)
        top = (1 << n) - 1
        picked = {0, top, 1, top >> 1, 1 << (n - 1)}
        picked.update(rng.randrange(top + 1) for _ in range(300))
        expected = "".join(f"{i:0{n}b}\n" for i in sorted(picked))
        assert binary_lines(packed(picked, n), n) == expected
        assert binary_lines(1 << top, n) == "1" * n + "\n"
        assert list(_binary_lines(0, n)) == []

    @given(cube_subsets)
    @settings(max_examples=200)
    def test_members_indices_and_lines_match_sorted_and_format(self, case):
        # Spans of 1 and 3 nonzero bytes split the sets here into many.
        n, members = case
        bits = packed(members, n)
        ordered = sorted(members)
        assert list(_members(bits, n)) == ordered
        assert index_arrays(bits, n) == [array("I", ordered)] * 2
        nonzero = len({i >> 3 for i in members})
        for span in (1, 3, landscape._SPAN):
            with mock.patch.object(landscape, "_SPAN", span):
                pieces = list(_binary_lines(bits, n))
            # One piece per span of nonzero packed bytes.
            assert len(pieces) == -(-nonzero // span), span
            assert "".join(pieces) == "".join(f"{i:0{n}b}\n" for i in ordered), span

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 11, 17, 18, 24, 25])
    def test_lanes_at_their_edges(self, n):
        # Lane 0 holds index bits 0 to 2, and lane q >= 1 the 7 bits from
        # 7q - 4, so each n here ends the index at a lane's first or last
        # bit, or below lane 1.
        rng = random.Random(n)
        top = (1 << n) - 1
        sets = [set(), {top}, {1 << (n - 1)}, {rng.randrange(top + 1) for _ in range(200)}]
        if n <= 18:
            sets.append(set(range(top + 1)))
        for members in sets:
            bits = packed(members, n)
            ordered = sorted(members)
            spans = list(_set_lanes(bits, n))
            assert all(len(lanes) == 1 + len(range(0, n - 3, 7)) for lanes in spans)
            lanes = [b"".join(parts) for parts in zip(*spans)] or [b""]
            assert lanes[0] == bytes(i & 7 for i in ordered)
            for q, lane in enumerate(lanes[1:], 1):
                assert lane == bytes(i >> 7 * q - 4 & 127 for i in ordered), q
            assert list(_members(bits, n)) == ordered
            assert index_arrays(bits, n) == [array("I", ordered)] * 2
            assert binary_lines(bits, n) == "".join(f"{i:0{n}b}\n" for i in ordered)

    def test_grid_reports_match_the_format_renderer(self):
        for inst in GRID:
            report = enumerate_landscape(inst)
            assert render_report(report) == reference_render(report), inst.descriptor

    @pytest.mark.parametrize("descriptor", ["ojzr:n=18,k=7,l=3", "lozj:n=18,k=4", "lozr:n=18,l=3"])
    def test_reports_past_the_grid_match_the_format_renderer(self, descriptor):
        # The grid stops at n = 16; index bits 17 and up are in lane 3.
        report = report_for(descriptor)
        assert report.local_optima_bits >> (1 << 17)
        assert render_report(report) == reference_render(report)


class TestLazyParetoIndices:
    @pytest.mark.parametrize(
        "descriptor", ["omm:n=8", "ojzj:n=10,k=3", "orzr:n=8,l=4", "ojzr:n=12,k=5,l=3"]
    )
    def test_built_on_first_access(self, descriptor):
        _report.cache_clear()
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        characteristic_profile(inst)
        render_report(report)
        summary_line(report)
        assert "pareto_set_indices" not in vars(report)
        f1, f2 = objective_planes(inst)
        front = {v for v, _ in report.front_counts}
        mask = bytes((a, b) in front for a, b in zip(f1, f2))
        indices = report.pareto_set_indices
        assert indices == array("I", compress(range(1 << inst.n), mask))
        assert len(indices) == report.member_bits.bit_count()
        assert "pareto_set_indices" not in vars(report)
        assert report.pareto_set_indices == indices

    def test_reports_differing_in_the_pareto_set_are_unequal(self):
        report = report_for("ojzj:n=8,k=2")
        assert dataclasses.replace(report) == report
        assert dataclasses.replace(report, member_bits=report.member_bits ^ 1) != report


class TestLazyLocalOptima:
    @pytest.mark.parametrize(
        "descriptor",
        ["omm:n=8", "orzr:n=8,l=4", "lozj:n=10,k=3", "lozr:n=12,l=3", "ojzr:n=12,k=5,l=3"],
    )
    def test_built_on_first_access(self, descriptor):
        _report.cache_clear()
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        verify(inst)
        profile = characteristic_profile(inst)
        summary_line(report)
        assert "local_optima_indices" not in vars(report)
        assert "local_front_counts" not in vars(report)
        vecs = list(zip(*objective_planes(inst)))
        local = sorted(naive.local_optima(vecs, naive.pareto_set(vecs)))
        assert report.local_optima_indices == array("I", local)
        assert report.local_front_counts == tuple(sorted(Counter(vecs[i] for i in local).items()))
        assert profile.local_optima_count == len(local) == report.local_optima_bits.bit_count()
        assert "local_optima_indices" not in vars(report)
        assert report.local_optima_indices == report.local_optima_indices
        assert vars(report)["local_front_counts"] is report.local_front_counts

    def test_reports_differing_in_the_local_optima_are_unequal(self):
        report = report_for("lozr:n=8,l=2")
        assert report.local_optima_bits
        changed = report.local_optima_bits ^ (report.local_optima_bits & -report.local_optima_bits)
        assert dataclasses.replace(report, local_optima_bits=changed) != report


class TestLazyComponentCount:
    # One instance per family, n <= 12.
    INSTANCES = [
        "omm:n=8", "lotz:n=8", "ojzj:n=8,k=2", "cocz:n=8", "orzr:n=8,l=4", "omtz:n=8",
        "omzj:n=8,k=3", "omzr:n=8,l=2", "lozj:n=8,k=3", "lozr:n=8,l=2", "ojzr:n=12,k=5,l=3",
    ]

    @pytest.mark.parametrize("descriptor", INSTANCES)
    def test_verify_counts_no_components(self, descriptor):
        inst = parse_descriptor(descriptor)
        _report.cache_clear()
        with mock.patch.object(landscape, "_component_count", side_effect=AssertionError):
            render_verification(verify(inst))
        assert "component_count" not in vars(enumerate_landscape(inst))
        vecs = naive.vectors(inst)
        expected = naive.components(naive.pareto_set(vecs), inst.n)
        assert characteristic_profile(inst).component_count == expected
        _report.cache_clear()

    def test_count_leaves_repr_and_equality(self):
        report = report_for("ojzj:n=8,k=2")
        assert "component_count" not in repr(report)
        assert dataclasses.replace(report) == report
        assert report.component_count == 3


def one_count(inst):
    """Whether both objectives of inst read one count (landscape._one_count)."""
    return landscape._one_count([_counting_steps(t) for t, _ in problems._objective_tables(inst)])


class TestComponentCountFromLevels:
    # Every grid instance up to n = 12, dense one-count Pareto sets (omm,
    # ojzj, omzj, and orzr, omzr and ojzr at l = 1) included.
    INSTANCES = grid_instances(None, range(1, 13))

    def test_grid_counts_match_the_reference(self):
        assert len(self.INSTANCES) == 248
        _report.cache_clear()
        for inst in self.INSTANCES:
            expected = naive.components(naive.pareto_set(naive.vectors(inst)), inst.n)
            assert enumerate_landscape(inst).component_count == expected, inst.descriptor
        _report.cache_clear()

    def test_one_count_instances_are_those_reading_the_ones_count_alone(self):
        # Both objectives count the ones, or the zeroes where each bit is a
        # block, or the strings are one bit long. cocz counts too, but its
        # second objective moves against the first on one half of the bits
        # only, so its pairs of states are not levels of the cube.
        expected = [
            inst
            for inst in self.INSTANCES
            if inst.family in ("omm", "ojzj", "omzj")
            or inst.family in ("orzr", "omzr", "ojzr") and inst.l == 1
            or inst.n == 1
        ]
        assert [inst for inst in self.INSTANCES if one_count(inst)] == expected

    def test_a_lone_level_counts_its_strings(self, monkeypatch):
        # On the catalog a level with no front-selected neighbour holds 0 or
        # n ones, a single string. Value tables that send omm:n=8's counts
        # 2, 3 and 6 onto the front select a run, one component, and a lone
        # level whose C(8, 6) = 28 strings are a component each.
        table = lambda n, k, l: [int(c in (2, 3, 6)) for c in range(n + 1)]
        for name in ("ones", "zeroes"):
            monkeypatch.setitem(problems.OBJECTIVES, name, ("ones", table))
        _report.cache_clear()
        report = enumerate_landscape(ProblemInstance("omm", 8))
        members = set(_members(report.member_bits, 8))
        assert report.component_count == naive.components(members, 8) == 1 + 28
        _report.cache_clear()

    def test_every_dense_pareto_set_beyond_n_10_is_one_count(self):
        # The set flood takes a Python step per member, so it is meant for
        # Pareto sets of at most 1/16 of the cube, or for small cubes: every
        # other Pareto set on the grid reads one count and is counted from
        # its levels. |PS| is summed over the front of the counted image,
        # with no cube.
        for inst in grid_instances(None, range(11, 30)):
            if one_count(inst):
                continue
            polys = image_polys(inst)
            modulus = (1 << inst.n + 1) - 1
            size = sum(polys[v] % modulus for v in nondominated_sort(polys).levels[0])
            assert size <= 1 << inst.n - 4, (inst.descriptor, size)


class TestLazyOnesTables:
    @pytest.mark.parametrize("descriptor", TestLazyComponentCount.INSTANCES)
    def test_verify_builds_no_ones_tables(self, descriptor):
        inst = parse_descriptor(descriptor)
        _report.cache_clear()
        render_verification(verify(inst))
        report = enumerate_landscape(inst)
        assert "ones_tables" not in vars(report)
        assert [
            (t.f1_counts, t.f2_counts, t.level_counts) for _, t in report.ones_tables
        ] == naive.ones_tables(naive.vectors(inst))
        _report.cache_clear()

    def test_tables_leave_repr_and_equality(self):
        report = report_for("ojzj:n=8,k=2")
        assert report.ones_tables[0][1].f1_counts == ((2, 1),)
        assert "ones_tables" in vars(report)
        assert "ones_tables" not in repr(report)
        assert "image_polys" not in repr(report)
        assert dataclasses.replace(report, image_polys={}) == report


def peak_bytes_per_string(call, n):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (1 << n)


def run_quietly(argv):
    """Run the command line tool on argv, which must succeed, with its
    stdout dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


class TestMemory:
    """Peaks of enumeration, and of the predicates and the text after it, so
    each is the call's own."""

    @pytest.mark.parametrize("descriptor", FAMILIES_AT_18)
    def test_image_predicates_peak_below_a_third_of_a_byte_per_string(self, descriptor):
        # The image DP holds packed counts per pair of automaton states, not
        # the cube. Measured with the automata's step tables already built,
        # by one call first, and the DP's memo cleared inside the measured
        # call, so the peak is the DP's own and not what earlier tests left:
        # 0.016 to 0.18 bytes per string at n = 18, lozj and lotz the top.
        inst = parse_descriptor(descriptor)
        is_completely_conflicting(inst)

        def cold(predicate):
            problems._state_pair_polys.cache_clear()
            predicate(inst)

        for predicate in (is_completely_conflicting, front_shape):
            assert peak_bytes_per_string(lambda: cold(predicate), inst.n) <= 0.3

    @pytest.mark.parametrize("descriptor", ["omm:n=18", "lozr:n=18,l=3"])
    def test_symmetry_check_peaks_below_a_fifth_of_a_byte_per_string(self, descriptor):
        # The DP holds tables over the automata's states, not the cube:
        # 0.02 to 0.11 bytes per string over the families at n = 18.
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        assert peak_bytes_per_string(lambda: is_symmetric_pair(inst), inst.n) <= 0.2

    def test_render_peaks_below_eight_bytes_per_string(self):
        # 31,644 local optima, 19 bytes of text each, built once as bytes
        # and once decoded: 4.7 to 4.9 bytes per string.
        inst = parse_descriptor("ojzr:n=18,k=7,l=3")
        report = enumerate_landscape(inst)
        assert peak_bytes_per_string(lambda: render_report(report), inst.n) <= 8

    @pytest.mark.parametrize("descriptor", ["lozj:n=18,k=4", "lozr:n=18,l=3"])
    def test_render_of_few_local_optima_peaks_below_a_byte_per_string(self, descriptor):
        # 3,059 and 3,900 local optima, listed from the packed bytes: 0.55
        # and 0.72 bytes per string, the text and the lanes' first level
        # over the 2^15 packed bytes. Unpacking the set to a 2^18-byte mask
        # took 1.44 and 1.45.
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        assert peak_bytes_per_string(lambda: render_report(report), inst.n) <= 1

    @pytest.mark.parametrize("descriptor", ["lotz:n=18", "lozr:n=18,l=3"])
    def test_sparse_profile_peaks_below_half_a_byte_per_string(self, descriptor):
        # The component count floods the few members of the sparse Pareto
        # sets as a set, found from the packed bytes: 0.25 bytes per
        # string. Unpacking the set to a 2^18-byte mask took 1.38.
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        assert peak_bytes_per_string(lambda: characteristic_profile(inst), inst.n) <= 0.5

    @pytest.mark.parametrize("descriptor", ["ojzj:n=18,k=4", "omzj:n=18,k=4"])
    def test_dense_profile_peaks_below_one_and_a_half_bytes_per_string(self, descriptor):
        # The component count of the dense Pareto sets of ojzj and omzj
        # reads their levels from the image DP's pairs of states and builds
        # nothing over the cube: 0.02 bytes per string, as on omm. A flood
        # over the set's blocks peaked at 0.97 to 1.01.
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        assert peak_bytes_per_string(lambda: characteristic_profile(inst), inst.n) <= 0.1

    @pytest.mark.parametrize("descriptor", FAMILIES_AT_18)
    def test_enumeration_peaks_below_a_third_of_the_budget(self, descriptor):
        # Enumeration's own peak, from no cached report, cells or image DP;
        # the budget covers it together with the profile's. 1.4 to 2.6 bytes
        # per string at n = 18, the top on the scan path (lotz 2.61, omtz
        # 2.38), whose bit planes stay in blocks.
        inst = parse_descriptor(descriptor)
        _report.cache_clear()
        problems._cells.cache_clear()

        def cold():
            problems._state_pair_polys.cache_clear()
            enumerate_landscape(inst)

        peak = peak_bytes_per_string(cold, inst.n)
        assert peak <= 4 < BYTES_PER_STRING // 3

    @pytest.mark.parametrize("descriptor", ["omm:n=18", "ojzj:n=18,k=4", "omzj:n=18,k=4"])
    def test_dense_path_enumeration_builds_no_byte_plane(self, descriptor):
        # omm's Pareto set is the whole cube, so the local-optimum scan
        # returns at once. Both of ojzj's and omzj's objectives read one
        # count, so their local optima are the levels that no neighbouring
        # level dominates, selected from the first objective's cells and
        # joined over the cube: 0.41 bytes per string beside the Pareto set
        # that the report holds, where the block scan took 0.64 to 0.67.
        # The peak, 1.43 to 1.46 on all three, is the Pareto set's
        # selection with the cells it builds. The objectives' byte planes
        # took it to 4.0 to 4.3.
        inst = parse_descriptor(descriptor)
        _report.cache_clear()
        problems._cells.cache_clear()
        assert peak_bytes_per_string(lambda: enumerate_landscape(inst), inst.n) <= 1.6

    def test_landscape_command_peaks_below_a_third_of_the_budget(self, tmp_path):
        # orzr:n=18,l=9 has 244,032 local optima, 93% of the cube. With
        # enumeration, the command peaks at 5.0 to 5.7 bytes per string,
        # writing the text span by span; built whole, the text took it to
        # 36.0 to 37.2.
        inst = parse_descriptor("orzr:n=18,l=9")
        _report.cache_clear()
        problems._cells.cache_clear()
        argv = ["landscape", inst.descriptor, "--out", str(tmp_path / "report.txt")]
        assert peak_bytes_per_string(lambda: run_quietly(argv), inst.n) <= BYTES_PER_STRING // 3

    def test_every_command_on_the_grid_at_18_peaks_within_the_budget(self, tmp_path):
        # Each of the 81 instances is enumerated once, by the landscape
        # command; the figures and verify's claims read the memoized report.
        # The landscape command peaks at 1.2 to 5.0 bytes per string, the top
        # on orzr:n=18,l=9 and l=6; the others at 0.15 to 1.05. With the
        # text built whole, those two took 36.5 and 21.5.
        # Each command writes a new file: truncating and rewriting one file
        # costs tens of milliseconds a close on some filesystems.
        peaks = {}
        for inst in grid_instances(None, (18,)):
            d = inst.descriptor
            commands = [["landscape", d, "--out", str(tmp_path / f"{d}.txt")]]
            commands += [
                ["figure", d, "--kind", kind, "--out", str(tmp_path / f"{d}-{kind}.csv")]
                for kind in FIGURE_KINDS
            ]
            for argv in commands:
                peaks[" ".join(argv[:-2])] = peak_bytes_per_string(lambda: run_quietly(argv), 18)
            peaks[f"verify {d}"] = peak_bytes_per_string(lambda: verify(inst), 18)
        assert len(peaks) == 81 * 5
        worst = max(peaks, key=peaks.get)
        assert peaks[worst] <= BYTES_PER_STRING, (worst, peaks[worst])

    def test_an_empty_set_unpacks_no_mask(self):
        # An empty set's members come without a pass over its 2^n bits.
        assert peak_bytes_per_string(lambda: list(_members(0, 20)), 20) < 1024 / (1 << 20)
        assert index_arrays(0, 20) == [array("I")] * 2

    @pytest.mark.parametrize(
        "descriptor", ["ojzj:n=18,k=4", "ojzr:n=18,k=7,l=3", "orzr:n=18,l=9", "lozr:n=18,l=3"]
    )
    def test_local_front_counts_peak_below_half_a_byte_per_string(self, descriptor):
        # The image is counted on the automata's cells, from the set's
        # packed bytes cut into blocks: 0.16 to 0.30 bytes per string at
        # n = 18, from none to 244,032 local optima, evaluating no string.
        # Building their index array and evaluating each took up to 5.34.
        inst = parse_descriptor(descriptor)
        _report.cache_clear()
        report = enumerate_landscape(inst)
        assert "local_optima_indices" not in vars(report)
        assert peak_bytes_per_string(lambda: report.local_front_counts, inst.n) <= 0.5

    @pytest.mark.parametrize(
        "descriptor",
        [
            "ojzr:n=18,k=7,l=3", "ojzj:n=18,k=4", "lozj:n=18,k=4", "orzr:n=18,l=3",
            "lozr:n=18,l=3", "orzr:n=18,l=9", "lozr:n=18,l=9",
        ],
    )
    def test_closed_forms_peak_below_one_byte_per_string(self, descriptor):
        # The sets are packed, 1/8 byte a string; the closed forms build no
        # byte plane, and the block automata's states do not grow with l.
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        n, k, l = inst.n, inst.k, inst.l

        def closed_forms():
            inst.info.pareto_set(n, k, l)
            inst.info.local_optima(n, k, l)

        assert peak_bytes_per_string(closed_forms, n) <= 1

    @pytest.mark.parametrize("descriptor", ["lotz:n=18", "ojzj:n=18,k=4", "lozr:n=18,l=3"])
    def test_witness_scan_peaks_below_six_bytes_per_string(self, descriptor):
        # The separability DP holds one set of state pairs, not the cube:
        # about 0.008 bytes per string at n = 18 (0.05 when it kept one set
        # per bit for a witness).
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        assert is_fully_separable(inst, 1) is False
        assert peak_bytes_per_string(lambda: is_fully_separable(inst, 1), inst.n) <= 0.02

    def test_image_memo_keeps_below_eight_mib_at_the_longest_strings(self):
        # The 259 grid instances at n = 63 read 18 pairs of automata. Kept
        # in the image memo, they hold 4.9 MiB under tracemalloc, at most
        # 0.94 MiB an entry (lotz, then lozj and lozr at 0.87). The step
        # tables are built first, so only the memo's entries count.
        instances = grid_instances(None, (63,))
        assert len(instances) == 259
        for inst in instances:
            problems._objective_tables(inst)
        problems._state_pair_polys.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for inst in instances:
                image_polys(inst)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        info = problems._state_pair_polys.cache_info()
        assert (info.misses, info.currsize) == (18, 18)
        assert kept <= 8 << 20

    def test_cells_keep_below_a_mebibyte_at_the_cap(self):
        # The automata of the six statistics at n = 24, l = 4 for the block
        # statistics, as the table instances read them. Their index sets
        # keep the same from n = 16 up; the blocks' end states grow as
        # 2^(n - 16): 0.59 MiB at n = 16 and 20, 0.67 MiB at n = 24, 1.85 MiB
        # at n = 28 under tracemalloc. The step tables are built first, so
        # only the cells count.
        automaton = problems._statistic_tables
        automata = {automaton(name, DEFAULT_CAP, 4) for name in problems.OBJECTIVES}
        assert len(automata) == 6
        problems._cells.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for tables in automata:
                problems._cells(tables)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert problems._cells.cache_info().currsize == 6
        assert kept <= 1 << 20


def mask_from_runs(runs):
    return b"".join(bytes([value]) * length for value, length in runs)


# Packed bytes in runs of one byte value, zero or not, each run from one
# byte up to hundreds.
run_masks = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 0x80, 0xA5, 0xFF]), st.sampled_from([1, 2, 7, 63, 64, 65, 200])
    ),
    max_size=12,
).map(mask_from_runs)


def random_packed(seed, size, share):
    """size packed bytes, each nonzero with probability share."""
    rng = random.Random(seed)
    return bytes(rng.randrange(1, 256) if rng.random() < share else 0 for _ in range(size))


def members_by_compress(raw):
    """The packed set whose bytes are raw, padded with zero bytes to the
    2^(n - 3) bytes of the least cube with n >= 3 that holds them, as
    (bits, n), and its members from its unpacked bits."""
    n = (max(len(raw), 1) - 1).bit_length() + 3
    flags = (v >> k & 1 for v in raw for k in range(8))
    return (int.from_bytes(raw, "little"), n), list(compress(range(len(raw) << 3), flags))


def pack_bits(flags):
    """The int whose bit i is byte i of flags, every byte 0 or 1."""
    return int(bytes(flags)[::-1].translate(b"01".ljust(256)), 2)


class TestCountingAutomata:
    # The local-optimum scan reads a counting objective's neighbours from its
    # own final state (_counting_steps). Every automaton of the library, at
    # n = 1..16 and each valid block length.
    @staticmethod
    def automata(n):
        for name, record in problems.STATISTICS.items():
            lengths = [l for l in range(1, n) if n % l == 0] if record.reads_l else [None]
            for l in lengths:
                yield name, l, problems._step_tables(record.automaton, n, l)
        for name, automaton in (("orzr", problems._ORZR_OPTIMA), ("lozr", problems._LOZR_OPTIMA)):
            for l in (l for l in range(1, n) if n % l == 0):
                yield name, l, problems._step_tables(automaton, n, l)

    def test_the_rule_accepts_exactly_the_counts(self):
        # The ones count and the half-mix statistic. A block count at l = 1,
        # where every bit is a block, is the ones or the zeroes count, and
        # at n = 1 leading ones and trailing zeroes are too.
        counts = {"ones", "first-half ones plus second-half zeroes"}
        blocks = {"all-ones blocks", "all-zeroes blocks"}
        for n in range(1, 17):
            for name, l, tables in self.automata(n):
                counting = name in counts or (name in blocks and l == 1) or (
                    n == 1 and name in ("leading ones", "trailing zeroes")
                )
                assert (_counting_steps(tables) is not None) == counting, (name, n, l)

    def test_setting_a_bit_moves_the_final_state_by_its_step(self):
        # Byte x of the state plane is the final state of index x.
        for n in range(1, 11):
            for name, l, tables in self.automata(n):
                steps = _counting_steps(tables)
                if steps is None:
                    continue
                final = problems._state_plane(tables, b"\0")
                half = n // 2
                if name == "first-half ones plus second-half zeroes":
                    assert steps == [-1] * half + [1] * (n - half)
                for m, d in enumerate(steps):
                    for x in range(1 << n):
                        if not x >> m & 1:
                            assert final[x | 1 << m] == final[x] + d, (name, n, l, m, x)


    @pytest.mark.parametrize("set_bits", [3, problems._SET_BITS])
    def test_scan_matches_the_naive_model_on_random_value_tables(self, set_bits):
        # Every ordered pair of statistics, each under a value table drawn at
        # random, often with few values so that ties occur: the scan must
        # read a counting objective's moves in both directions (half-mix
        # moves by -1 on its low half, a block count at l = 1 on every bit)
        # and rank any other objective's values, whatever the table. At a
        # span of 3 the index bits from 3 up compare whole blocks. Where
        # both statistics read one count (_one_count), the local optima are
        # read from the levels, and are checked with the Pareto set passed
        # as the members too: no such catalog instance up to n = 18 has a
        # local optimum outside its Pareto set, but 13 of the 14 such pairs
        # here do.
        rng = random.Random(48)
        nonempty = total = 0
        for n, l in ((6, 2), (8, 1), (9, 3)):
            automata = [
                problems._step_tables(record.automaton, n, l if record.reads_l else None)
                for record in problems.STATISTICS.values()
            ]
            # Per automaton, its tables and its final state at each index.
            cube = [(tables, problems._state_plane(tables, b"\0")) for tables in automata]
            for pair in product(cube, repeat=2):
                objectives = [
                    (tables, bytes(rng.randrange(rng.choice((2, 5, 200))) for _ in range(max(p) + 1)))
                    for tables, p in pair
                ]
                f1, f2 = (problems._translate(p, final) for (_, p), (_, final) in zip(pair, objectives))
                vecs = list(zip(f1, f2))
                expected = sum(1 << i for i in naive.local_optima(vecs, set()))
                with at_span(set_bits):
                    local = _local_optima(objectives, _split(0, n), n)
                    assert local == expected, (n, l, objectives)
                if not landscape._one_count([_counting_steps(t) for t, _ in objectives]):
                    continue
                members = naive.pareto_set(vecs)
                packed = sum(1 << i for i in members)
                expected = sum(1 << i for i in naive.local_optima(vecs, members))
                nonempty += expected != 0
                total += 1
                with at_span(set_bits):
                    local = _local_optima(objectives, _split(packed, n), n)
                    assert local == expected, (n, l, objectives)
        assert (nonempty, total) == (13, 14)


class TestBitSlicedKernels:
    # Every grid instance up to n = 12, where the n = 1 and n = 2 planes are
    # shorter than a byte; the two n=16 instances have dense Pareto sets.
    KERNEL_INSTANCES = grid_instances(None, range(1, 13)) + [
        parse_descriptor(d) for d in ("ojzj:n=16,k=3", "omzj:n=16,k=4")
    ]

    def test_local_optima_match_the_neighbour_check(self):
        # The scan, alone and in the report, on every instance.
        assert len(self.KERNEL_INSTANCES) == 248 + 2
        for inst in self.KERNEL_INSTANCES:
            report = enumerate_landscape(inst)
            f1, f2 = objective_planes(inst)
            vecs = list(zip(f1, f2))
            members = naive.pareto_set(vecs)
            packed = sum(1 << i for i in members)
            expected = sum(1 << i for i in naive.local_optima(vecs, members))
            objectives = problems._objective_tables(inst)
            local = _local_optima(objectives, _split(packed, inst.n), inst.n)
            assert local == expected, inst.descriptor
            assert report.member_bits == packed, inst.descriptor
            assert report.local_optima_bits == expected, inst.descriptor

    # Sets over 8 and 16 indices split every cube from n = 4 and n = 5 into
    # blocks; at the default span no kernel instance is split.
    @pytest.mark.parametrize("set_bits", [3, 4, problems._SET_BITS])
    def test_index_sets_rebuild_the_planes(self, set_bits):
        for inst in self.KERNEL_INSTANCES:
            n = inst.n
            report = enumerate_landscape(inst)
            low = min(n, set_bits)
            objectives = problems._objective_tables(inst)
            finals = [final for _, final in objectives]
            # The statistic pairs that the value tables send onto the front.
            front = set(report.levels[0])
            f1, f2 = finals
            pairs = [(a, b) for a, v in enumerate(f1) for b, w in enumerate(f2) if (v, w) in front]
            with at_span(set_bits):
                cells = [problems._cells(tables) for tables, _ in objectives]
                members = _join(_statistic_pairs(inst.info.objectives, pairs, n, inst.l), n)
                local_optima = _local_optima(objectives, _split(report.member_bits, n), n)
            for (sets, ends), final, plane in zip(cells, finals, objective_planes(inst)):
                # The sets partition the first 2^low indices; the blocks
                # cover the cube.
                assert _union(sets) == (1 << (1 << low)) - 1, inst.descriptor
                assert sum(x.bit_count() for x in sets) == 1 << low, inst.descriptor
                assert len(ends) << low == 1 << n, inst.descriptor
                states = bytearray(1 << low)
                for s, x in enumerate(sets):
                    for i in _members(x, low):
                        states[i] = s
                # The blocks' end states, read through the value table.
                rebuilt = b"".join(
                    states.translate(end.ljust(256, b"\0")).translate(final.ljust(256, b"\0"))
                    for end in ends
                )
                assert rebuilt == plane, inst.descriptor
                # Selected by each value bit of the value table, they
                # rebuild the bit planes.
                for table in landscape._BITS:
                    blocks = problems._select((sets, ends), final.translate(table))
                    bits = problems._join(blocks, n)
                    assert bits == pack_bits(plane.translate(table)), inst.descriptor
            assert members == report.member_bits, inst.descriptor
            assert local_optima == report.local_optima_bits, inst.descriptor

    @pytest.mark.parametrize(
        "descriptor",
        [
            "lotz:n=17",
            "lozj:n=17,k=4",
            "orzr:n=18,l=3",
            "ojzr:n=18,k=7,l=3",
            "cocz:n=18",
            "omzj:n=18,k=4",
            "ojzr:n=18,k=7,l=1",
            "lotz:n=18",
            "omtz:n=18",
            "orzr:n=18,l=2",
            "lozr:n=18,l=2",
        ],
    )
    def test_scan_on_a_split_cube_matches_the_neighbour_check(self, descriptor):
        # At the default span a cube of 2^17 strings is two blocks and one
        # of 2^18 four, so the scan compares strings across blocks for the
        # index bits from 16 up. lozj:n=17 has 2,379 local optima, which a
        # cross-block compare must not mark. Every non-member of the n = 17
        # instances has a dominating neighbour inside its block; 64 of
        # orzr:n=18's have one only in another block. ojzr puts a counting
        # objective beside a ranked block count, and cocz's half-mix moves
        # by -1 on the low half and +1 on the high, where the blocks meet.
        # omzj and ojzr at l = 1 read one count, so their levels are
        # selected per block and the four blocks joined. On lotz and omtz
        # the top block bit marks every string of the two blocks whose top
        # index bit is clear, so the next block bit skips their pair; on
        # orzr and lozr at l = 2 the block bits mark all of the two middle
        # blocks. The scan inside the blocks skips every block so filled.
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        objectives = problems._objective_tables(inst)
        blocks = 1 << inst.n - problems._SET_BITS
        assert all(len(problems._cells(tables)[1]) == blocks for tables, _ in objectives)
        vecs = list(zip(*objective_planes(inst)))
        expected = sum(1 << i for i in naive.local_optima(vecs, naive.pareto_set(vecs)))
        assert _local_optima(objectives, _split(report.member_bits, inst.n), inst.n) == expected

    def test_scan_on_blocks_of_eight_matches_the_naive_model(self):
        # Blocks of 8 indices split every cube from n = 4, so each index bit
        # from 3 up compares whole blocks.
        instances = grid_instances(None, range(1, 11))
        for inst in instances:
            f1, f2 = objective_planes(inst)
            vecs = list(zip(f1, f2))
            members = naive.pareto_set(vecs)
            packed = sum(1 << i for i in members)
            expected = sum(1 << i for i in naive.local_optima(vecs, members))
            objectives = problems._objective_tables(inst)
            with at_span(3):
                local = _local_optima(objectives, _split(packed, inst.n), inst.n)
                assert local == expected, inst.descriptor

    @pytest.mark.parametrize("set_bits", [3, 4])
    def test_scan_inside_the_blocks_runs_only_for_strings_the_block_bits_leave(self, set_bits):
        # The block bits, the index bits from set_bits up, go first. A block
        # all of whose non-members have a dominating neighbour across one of
        # them is full, and the scan inside the blocks skips it; where every
        # block is, the masks of the in-block bits are never made: on this
        # grid, only on cocz.
        skipped = []
        for inst in grid_instances(None, range(set_bits + 1, 11)):
            objectives = problems._objective_tables(inst)
            if landscape._one_count([_counting_steps(t) for t, _ in objectives]):
                continue
            n = inst.n
            vecs = list(zip(*objective_planes(inst)))
            members = set(naive.pareto_set(vecs))
            left = any(
                not any(naive.dominates(vecs[i ^ 1 << b], vecs[i]) for b in range(set_bits, n))
                for i in range(1 << n)
                if i not in members
            )
            if not left:
                skipped.append(inst.descriptor)
            spy = mock.Mock(wraps=landscape._bit_clears)
            with at_span(set_bits), mock.patch.object(landscape, "_bit_clears", spy):
                _local_optima(objectives, _split(sum(1 << i for i in members), n), n)
            assert spy.call_count == left, inst.descriptor
        assert skipped == ["cocz:n=6", "cocz:n=8", "cocz:n=10"][set_bits - 3 :]

    # The member indices that _members lists from packed bytes, against
    # compress over their unpacked bits. The cases end the cube on a
    # nonzero byte or a zero one, and "no-bytes" is the empty int.
    @pytest.mark.parametrize(
        "mask",
        [
            bytes(256),
            b"\xff" * 256,
            b"\x01" + bytes(255),
            bytes(255) + b"\x80",
            b"\xa5\x00" * 128,
            random_packed(7, 4096, 0.5),
            random_packed(8, 4096, 0.01),
            b"",
        ],
        ids=["empty", "full", "first", "last", "alternating", "random", "sparse", "no-bytes"],
    )
    def test_indices_match_compress(self, mask):
        (bits, n), expected = members_by_compress(mask)
        assert list(_members(bits, n)) == expected

    @given(run_masks)
    @settings(max_examples=200)
    def test_indices_match_compress_across_gaps(self, mask):
        (bits, n), expected = members_by_compress(mask)
        assert list(_members(bits, n)) == expected


class TestBruteForceCrossCheck:
    """One instance per family, the first place a family's fault shows."""

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
        check_against_naive(parse_descriptor(descriptor))


def check_planes(inst, f1, f2):
    """What the objective planes f1 and f2 alone decide, against naive.py:
    symmetry, separability, complete conflict, the front's shape, the
    digits of image_polys, and the flags of characteristic_profile that the
    predicates decide. Returns the image's levels, level 1 first, and the
    profile, None for a convex front, on which front_shape and the profile
    raise."""
    n, where = inst.n, inst.descriptor
    symmetric = naive.mirror(f1[::-1], n) == f2
    separable = [naive.separability(plane, n) is None for plane in (f1, f2)]
    levels = naive.levels(zip(f1, f2))
    shape = naive.front_shape(sorted(levels[0]))
    assert is_symmetric_pair(inst) is symmetric, where
    for objective, verdict in enumerate(separable, 1):
        assert is_fully_separable(inst, objective) is verdict, (where, objective)
    assert is_completely_conflicting(inst) is (len(levels) == 1), where
    ones = bytes(map(int.bit_count, range(1 << n)))
    assert unpacked(image_polys(inst), n) == Counter(zip(f1, f2, ones)), where
    if shape is None:
        for call in (front_shape, characteristic_profile):
            with pytest.raises(ValidationError, match="neither collinear nor concave"):
                call(inst)
        return levels, None
    assert front_shape(inst).value == shape, where
    profile = characteristic_profile(inst)
    assert (
        profile.non_symmetric,
        profile.non_completely_conflicting,
        profile.not_fully_separable,
        profile.nonlinear_front,
        profile.front_shape.value,
    ) == (not symmetric, len(levels) > 1, not all(separable), shape == "nonlinear_concave", shape)
    return levels, profile


def check_against_naive(inst, spans=()):
    """Every quantity of the report and the predicates against naive.py,
    from the strings up: the planes, the image and its levels, the Pareto
    set, the local optima and their image, the component count, the ones
    tables, and all of characteristic_profile (check_planes for the rest);
    and the sets again with the cube cut into blocks of 2^span indices for
    each of spans. Returns the profile, None for a convex front."""
    n, where = inst.n, inst.descriptor
    vecs = naive.vectors(inst)
    f1, f2 = objective_planes(inst)
    assert list(zip(f1, f2)) == vecs, where
    levels, profile = check_planes(inst, f1, f2)
    members = naive.pareto_set(vecs)
    local = naive.local_optima(vecs, members)
    components = naive.components(members, n)
    image = Counter(vecs)
    report = enumerate_landscape(inst)
    assert report.levels == tuple(tuple(sorted(level, reverse=True)) for level in levels), where
    assert list(report.vector_counts.items()) == sorted(image.items()), where
    assert report.front_counts == tuple(sorted((v, image[v]) for v in levels[0])), where
    assert report.member_bits == packed(members, n), where
    assert report.local_optima_bits == packed(local, n), where
    assert list(report.pareto_set_indices) == sorted(members), where
    assert list(report.local_optima_indices) == sorted(local), where
    assert report.component_count == components, where
    assert [
        (ones, (t.f1_counts, t.f2_counts, t.level_counts)) for ones, t in report.ones_tables
    ] == list(enumerate(naive.ones_tables(vecs))), where
    local_image = Counter(vecs[i] for i in local)
    assert report.local_front_counts == tuple(sorted(local_image.items())), where
    if profile is not None:
        ratio = Fraction(len(members), 1 << n)
        assert (
            profile.disjoint_optima,
            profile.low_ratio_witness,
            profile.has_local_optima,
            profile.component_count,
            profile.ratio,
            profile.local_optima_count,
        ) == (components > 1, ratio <= Fraction(1, 2), bool(local), components, ratio, len(local))
    for span in spans:
        _report.cache_clear()
        with at_span(span):
            split = enumerate_landscape(inst)
        _report.cache_clear()
        assert split.member_bits == report.member_bits, (where, span)
        assert split.local_optima_bits == report.local_optima_bits, (where, span)
    return profile


# The naive model's function for each of the library's objectives.
NAIVE_OBJECTIVES = {
    "ones": naive.ones,
    "zeroes": naive.zeroes,
    "leading ones": naive.leading_ones,
    "trailing zeroes": naive.trailing_zeroes,
    "one-jump": naive.one_jump,
    "zero-jump": naive.zero_jump,
    "ones in first half plus zeroes in second half": naive.ones_then_zeroes,
    "all-ones blocks": naive.all_ones_blocks,
    "all-zeroes blocks": naive.all_zeroes_blocks,
}


@contextlib.contextmanager
def mixed_pairs(sizes):
    """Inside the with statement, every ordered pair of the objectives is a
    family, registered as a record and in naive.FAMILIES, and the valid
    instances of all of them on the sizes are yielded. A pair takes k with a
    jump and l with a block count, under the catalog's rules: ojzj's on k,
    the block families' on l and cocz's even n with the half-mix. Its
    closed forms are empty."""
    catalog = {info.name: info for info in problems.family_catalog()}
    records, models, instances = {}, {}, []
    for pair in product(problems.OBJECTIVES, repeat=2):
        jump = any(name in problems.JUMP_OBJECTIVES for name in pair)
        blocks = any(name.endswith("blocks") for name in pair)
        half = "ones in first half plus zeroes in second half" in pair
        params = ("k",) * jump + ("l",) * blocks
        rules = [
            catalog[family].rule
            for family, wanted in (("ojzj", jump), ("orzr", blocks), ("cocz", half))
            if wanted
        ]
        name = " x ".join(pair)
        records[name] = problems.FamilyInfo(
            name, pair, params, "the catalog's rules",
            pareto=lambda n, k, l: [], front=lambda n, k, l: set(),
            rule=lambda n, k, l, rules=rules: next(
                (why for why in (rule(n, k, l) for rule in rules) if why), None
            ),
        )
        models[name] = tuple(NAIVE_OBJECTIVES[objective] for objective in pair)
        for n in sizes:
            ks = range(1, n + 1) if "k" in params else (None,)
            ls = range(1, n + 1) if "l" in params else (None,)
            instances.extend(
                (name, n, k, l) for k in ks for l in ls if records[name].rule(n, k, l) is None
            )
    with mock.patch.dict(problems._BY_NAME, records), mock.patch.dict(naive.FAMILIES, models):
        yield [ProblemInstance(*args) for args in instances]


def convex_fronts(instances, spans=()):
    """check_against_naive on each instance; the (objectives, n, l) of those
    whose front is convex."""
    return {
        (inst.info.objectives, inst.n, inst.l)
        for inst in instances
        if check_against_naive(inst, spans) is None
    }


def half_mix_against_blocks(sizes):
    """The (objectives, n, l) of the half-mix statistic paired with either
    block count, both ways round, at each (n, l) of sizes."""
    half = "ones in first half plus zeroes in second half"
    return {
        (pair, n, l)
        for n, l in sizes
        for blocks in ("all-ones blocks", "all-zeroes blocks")
        for pair in ((half, blocks), (blocks, half))
    }


class TestMixAndMatchPairs:
    """The paper builds new functions by mixing and matching single
    objectives, and the engine is general over pairs of automata; so every
    ordered pair of the nine objectives, and the catalog, are checked
    against naive.py by one helper (check_against_naive). The convex
    fronts are the half-mix statistic against a block count, both ways
    round, where front_shape and the profile raise."""

    def test_every_pair_matches_the_naive_model(self):
        # Blocks of 8 indices split every cube from n = 4, so the scan also
        # compares strings across blocks. Some pairs, unlike the catalog
        # instances that the other span tests take, have a full lower block
        # beside an upper one with a string that only its neighbour in the
        # lower block dominates (trailing zeroes against all-zeroes blocks
        # at n = 6, l = 2).
        with mixed_pairs(range(1, 9)) as instances:
            assert len(instances) == 888
            convex = convex_fronts(instances, spans=(3,))
        assert convex == half_mix_against_blocks([(6, 2)])

    @pytest.mark.long
    def test_every_pair_up_to_12_matches_the_naive_model(self):
        with mixed_pairs(range(1, 13)) as instances:
            assert len(instances) == 2018
            convex = convex_fronts(instances, spans=(3, 4))
        assert convex == half_mix_against_blocks([(6, 2), (10, 2), (12, 4)])

    def test_the_catalog_matches_the_naive_model(self):
        # Every grid instance up to n = 12, ojzr with k = n/2 among them,
        # and two dense Pareto sets at n = 16.
        instances = TestBitSlicedKernels.KERNEL_INSTANCES
        assert len(instances) == 248 + 2
        assert convex_fronts(instances) == set()

    def test_the_catalog_planes_from_13_to_16_match_the_naive_model(self):
        # Past n = 12 the strings are not evaluated one by one: the planes,
        # which tests/test_problems.py pins to the evaluator, are checked
        # alone.
        instances = grid_instances(None, range(13, 17))
        assert len(instances) == 186
        for inst in instances:
            assert check_planes(inst, *objective_planes(inst))[1] is not None, inst.descriptor


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


def unpacked(polys, n):
    """The (f1, f2, ones) histogram held in the digits of image_polys."""
    mask = (1 << n + 1) - 1
    return {
        (a, b, j): count
        for (a, b), poly in polys.items()
        for j in range(n + 1)
        if (count := poly >> j * (n + 1) & mask)
    }


def counted_by_string(inst, bits):
    """The image counts of packed bits over the cube, each string evaluated
    through index_evaluator: the set's own strings, or, for a set over half
    the cube, those outside it, taken from the counts of the whole image."""
    n = inst.n
    outside = bits ^ (1 << (1 << n)) - 1
    if bits.bit_count() <= outside.bit_count():
        counts = Counter(map(index_evaluator(inst), _members(bits, n)))
    else:
        counts = Counter(enumerate_landscape(inst).vector_counts)
        counts.subtract(map(index_evaluator(inst), _members(outside, n)))
    return dict(sorted((v, c) for v, c in counts.items() if c))


class TestImageCounts:
    def test_counted_image_matches_the_planes(self):
        """The DP's digits against a count over the planes themselves, the
        ones plane from its index form."""
        ones_planes = {}
        for inst in grid_instances(None, range(1, 17)):
            f1, f2 = objective_planes(inst)
            if inst.n not in ones_planes:
                ones_count = problems.STATISTICS["ones"].index(inst.n, None)
                ones_planes[inst.n] = bytes(map(ones_count, range(1 << inst.n)))
            ones = ones_planes[inst.n]
            polys = problems.image_polys(inst)
            assert unpacked(polys, inst.n) == Counter(zip(f1, f2, ones)), inst.descriptor

    def test_digits_and_remainders_beyond_the_planes(self):
        """For n = 17..24, without the planes: the digits summed over the
        vectors are the binomials, each vector's remainder modulo
        2^(n+1) - 1 is its digit sum, and the counts fill the cube."""
        instances = grid_instances(None, range(17, 25))
        assert len(instances) == 562
        for inst in instances:
            n = inst.n
            polys = problems.image_polys(inst)
            per_vector = Counter()
            per_ones = Counter()
            for (a, b, j), count in unpacked(polys, n).items():
                per_vector[a, b] += count
                per_ones[j] += count
            assert per_ones == {j: math.comb(n, j) for j in range(n + 1)}, inst.descriptor
            modulus = (1 << n + 1) - 1
            assert {v: p % modulus for v, p in polys.items()} == per_vector, inst.descriptor
            assert sum(per_vector.values()) == 1 << n, inst.descriptor

    def test_packed_sets_are_counted_as_their_strings_evaluate(self):
        # Both sets of every grid instance up to n = 18, where the default
        # span splits the cube from n = 17; blocks of 8 and 16 indices split
        # every cube from n = 4 and n = 5.
        for inst in grid_instances(None, range(1, 19)):
            report = enumerate_landscape(inst)
            for bits in (report.member_bits, report.local_optima_bits):
                expected = counted_by_string(inst, bits)
                for set_bits in (problems._SET_BITS, 3, 4)[: 1 if inst.n > 12 else 3]:
                    with at_span(set_bits):
                        counts = _image_counts(inst, bits)
                    assert counts == expected, (inst.descriptor, set_bits)
                    assert list(counts) == sorted(counts), (inst.descriptor, set_bits)

    @given(cube_subsets, st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_packed_set_is_counted_as_its_strings_evaluate(self, case, data):
        n, members = case
        inst = data.draw(st.sampled_from(grid_instances(None, [n])))
        bits = packed(members, n)
        expected = dict(sorted(Counter(map(index_evaluator(inst), members)).items()))
        for set_bits in (3, 4, problems._SET_BITS):
            with at_span(set_bits):
                assert _image_counts(inst, bits) == expected, set_bits

    @given(cube_subsets)
    @settings(max_examples=200)
    def test_split_inverts_join(self, case):
        # One block, whole cubes below a byte included, or blocks of 8, 16
        # or 2^16 indices, as the cells cut the cube at each span.
        n, members = case
        bits = packed(members, n)
        for span in (3, 4, problems._SET_BITS):
            with at_span(span):
                blocks = _split(bits, n)
            low = min(n, span)
            assert len(blocks) == 1 << n - low, span
            assert all(x >> (1 << low) == 0 for x in blocks), span
            assert _join(blocks, n) == bits, span

    def test_vector_counts_ascend(self):
        for descriptor in ["lotz:n=8", "ojzj:n=10,k=3", "ojzr:n=12,k=5,l=3"]:
            keys = list(report_for(descriptor).vector_counts)
            assert keys == sorted(keys), descriptor


def uncached_image(inst):
    """image_polys with the DP on pairs of states run afresh."""
    with mock.patch.object(problems, "_state_pair_polys", problems._state_pair_polys.__wrapped__):
        return image_polys(inst)


class TestImageMemo:
    """The DP on pairs of automaton states is kept per pair of step tables;
    each instance folds it through its own value tables."""

    @pytest.mark.parametrize("order", [1, -1])
    def test_memo_matches_an_uncached_run(self, order):
        problems._state_pair_polys.cache_clear()
        for inst in grid_instances(None, range(1, 17))[::order]:
            image = image_polys(inst)
            assert list(image.items()) == list(uncached_image(inst).items()), inst.descriptor

    @pytest.mark.parametrize(
        "first, second",
        [("ojzr:n=12,k=2,l=3", "ojzr:n=12,k=5,l=3"), ("omm:n=10", "ojzj:n=10,k=2")],
    )
    def test_instances_sharing_both_automata_get_their_own_images(self, first, second):
        problems._state_pair_polys.cache_clear()
        images = [image_polys(parse_descriptor(d)) for d in (first, second)]
        info = problems._state_pair_polys.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert images[0] != images[1]
        assert images == [uncached_image(parse_descriptor(d)) for d in (first, second)]

    def test_a_patched_automaton_reads_no_old_entry(self):
        # The ones automaton swapped for one that counts zeroes: omm's
        # vectors stay (c, n - c), each now counting the strings with c
        # zeroes, and the memo reads the new tables.
        inst = parse_descriptor("omm:n=10")
        image = image_polys(inst)
        ones = problems.STATISTICS["ones"]
        zeroes = ones._replace(automaton=lambda n, l: lambda s, bit, m: s + 1 - bit)
        with mock.patch.dict(problems.STATISTICS, {"ones": zeroes}):
            patched = image_polys(inst)
            assert patched == uncached_image(inst)
        width = inst.n + 1
        assert image == {(c, 10 - c): math.comb(10, c) << c * width for c in range(11)}
        assert patched == {(c, 10 - c): math.comb(10, c) << (10 - c) * width for c in range(11)}
        assert image_polys(inst) == image

    def test_the_grid_reads_each_pair_of_automata_once_it_is_kept(self):
        # The 191 grid instances read 71 distinct pairs of step tables. At
        # maxsize 32, verify in grid order finds 103 of its 191 images kept
        # (93 at 16, 120 at 64, where the misses fall to the 71 pairs). The
        # local-optimum levels of the 50 one-count instances whose Pareto
        # set is not the whole cube read the pair their image has just kept,
        # 50 hits more. A change that keys the memo otherwise, resizes it or
        # runs the DP more often moves these counts.
        instances = grid_instances()
        pairs = {tuple(t for t, _ in problems._objective_tables(i)) for i in instances}
        assert (len(instances), len(pairs)) == (191, 71)
        _report.cache_clear()
        problems._state_pair_polys.cache_clear()
        for inst in instances:
            verify(inst)
        info = problems._state_pair_polys.cache_info()
        assert (info.hits, info.misses) == (153, 88)


class TestCellMemo:
    """The cells are kept per automaton, keyed by its step tables, and a
    change of span clears them (planes.at_span)."""

    def test_cells_built_at_another_span_are_not_read_after_it(self):
        # Kept by the step tables alone, the cells cut into blocks of 8
        # indices came back at the default span, where lotz:n=18 has four
        # blocks of 2^16.
        objectives = problems._objective_tables(parse_descriptor("lotz:n=18"))
        with at_span(3):
            assert [len(problems._cells(tables)[1]) for tables, _ in objectives] == [1 << 15] * 2
        assert [len(problems._cells(tables)[1]) for tables, _ in objectives] == [4] * 2

    def test_the_grid_builds_each_automatons_cells_once(self):
        # The 191 grid instances read 49 automata of statistics and 34 of
        # the orzr and lozr local optima; verify asks for their cells 1,296
        # times. The local-optimum scan asks for both objectives' cells on
        # every instance but the 70 one-count ones (_one_count): the 20
        # whose Pareto set is the whole cube return before reading a cell,
        # and the other 50 select their levels from the first objective's
        # cells alone. A change that keys the cells otherwise, resizes their
        # cache or asks for them more often moves these counts.
        instances = grid_instances()
        statistics = {t for inst in instances for t, _ in problems._objective_tables(inst)}
        assert len(statistics) == 49
        _report.cache_clear()
        problems._cells.cache_clear()
        for inst in instances:
            verify(inst)
        info = problems._cells.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1213, 83, 83)
        # Kept values are shared by every caller, so none can be changed.
        sets, ends = problems._cells(next(iter(statistics)))
        assert type(sets) is type(ends) is tuple and type(ends[0]) is bytes


class TestPlanesOnly:
    # Every grid instance up to n = 12, dense Pareto sets (omm, ojzj, omzj)
    # included.
    INSTANCES = grid_instances(None, range(1, 13))

    def test_enumeration_evaluates_no_string(self, monkeypatch):
        """Enumeration and the profile read only the automata: with every
        index-level statistic raising, each instance still gives the summary
        line and the flags of a run with the statistics in place."""

        def run(inst):
            return summary_line(enumerate_landscape(inst)), characteristic_profile(inst).flags

        expected = {inst: run(inst) for inst in self.INSTANCES}

        def refuse(n, l):
            raise AssertionError("index-level statistic called during enumeration")

        for name, record in problems.STATISTICS.items():
            monkeypatch.setitem(problems.STATISTICS, name, record._replace(index=refuse))
        problems.index_evaluator.cache_clear()
        _report.cache_clear()
        for inst in self.INSTANCES:
            assert run(inst) == expected[inst], inst.descriptor
        ojzr = ProblemInstance("ojzr", 12, k=5, l=3)
        assert expected[ojzr] == ("|PS|=156 ratio=39/1024 components=120 |LO|=648", (True,) * 7)
        _report.cache_clear()

    def test_local_optima_image_evaluates_no_string(self, monkeypatch):
        """The objective-space figure counts the 648 local optima's image
        on the automata, with every index-level statistic raising."""

        def refuse(n, l):
            raise AssertionError("index-level statistic called for the figure")

        for name, record in problems.STATISTICS.items():
            monkeypatch.setitem(problems.STATISTICS, name, record._replace(index=refuse))
        problems.index_evaluator.cache_clear()
        _report.cache_clear()
        report = enumerate_landscape(ProblemInstance("ojzr", 12, k=5, l=3))
        rows = figure_objective_space(report).rows
        assert [row for row in rows if row[3] == "local_optimum"] == [(12, 0, 648, "local_optimum")]
        _report.cache_clear()


class TestBlockLayoutAtTheCap:
    """At the default cap the cells cut the cube into 256 blocks of 2^16
    indices, so eight index bits cross blocks. On sampled strings, 500 at
    random and both ends of every block, the Pareto set, the local optima
    and the counted image agree with brute force; and the components of
    dense Pareto sets, counted from their levels, are those that the
    record's pairs decide."""

    INSTANCES = [
        "lotz:n=24", "ojzj:n=24,k=4", "omm:n=24", "cocz:n=24", "omtz:n=24",
        "omzj:n=24,k=4", "orzr:n=24,l=4", "omzr:n=24,l=4", "lozj:n=24,k=4",
        "lozr:n=24,l=4", "ojzr:n=24,k=7,l=4", "orzr:n=24,l=12",
    ]

    def test_sampled_strings_match_brute_force(self, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        n, span = DEFAULT_CAP, 1 << problems._SET_BITS
        assert n - problems._SET_BITS == 8
        rng = random.Random(1)
        sample = {rng.randrange(1 << n) for _ in range(500)}
        sample.update(i for r in range(0, 1 << n, span) for i in (r, r + span - 1))
        sample = sorted(sample)
        flips = [1 << b for b in range(n)]
        for descriptor in self.INSTANCES:
            inst = parse_descriptor(descriptor)
            report = enumerate_landscape(inst)
            front = set(nondominated_sort(image_polys(inst)).levels[0])
            ev = index_evaluator(inst)
            member, local = (
                bits.to_bytes(1 << n - 3, "little")
                for bits in (report.member_bits, report.local_optima_bits)
            )
            for i in sample:
                a, b = vector = ev(i)
                assert (member[i >> 3] >> (i & 7) & 1) == (vector in front), (descriptor, i)
                dominated = any(
                    c >= a and d >= b and (c, d) != vector for c, d in (ev(i ^ f) for f in flips)
                )
                optimum = vector not in front and not dominated
                assert (local[i >> 3] >> (i & 7) & 1) == optimum, (descriptor, i)
            counts = dict(sorted(Counter(map(ev, sample)).items()))
            assert _image_counts(inst, packed(sample, n)) == counts, descriptor
        _report.cache_clear()

    @pytest.mark.parametrize(
        "descriptor, runs",
        [
            ("ojzj:n=24,k=4", 3),
            ("ojzj:n=24,k=11", 3),
            ("omzj:n=24,k=4", 2),
            ("omzj:n=24,k=11", 2),
            ("omm:n=24", 1),
            ("orzr:n=24,l=1", 1),
            ("omzr:n=24,l=1", 1),
            ("ojzr:n=24,k=7,l=1", 2),
        ],
    )
    def test_dense_components_are_the_runs_of_ones_counts(self, monkeypatch, descriptor, runs):
        # The first statistic is the ones count (at l = 1 each bit is a
        # block), and the second is the ones count (pairs (s, s)) or the
        # zeroes count (pairs (s, n - s)); a flip moves them by one. The
        # strings with s or s + 1 ones are connected, and those with s ones
        # alone only at s = 0 or n: so each maximal run of the pairs' ones
        # counts here is one component. The count reads the levels; the set
        # flood, a step per member, is too slow for millions of members,
        # and raises here.
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        monkeypatch.setattr(landscape, "_component_count", mock.Mock(side_effect=AssertionError))
        inst = parse_descriptor(descriptor)
        n, pairs = inst.n, inst.info.pareto(inst.n, inst.k, inst.l)
        ones = {s for s, _ in pairs}
        assert set(pairs) in ({(s, s) for s in ones}, {(s, n - s) for s in ones})
        lone = [s for s in ones if s - 1 not in ones and s + 1 not in ones]
        assert set(lone) <= {0, n}
        _report.cache_clear()
        report = enumerate_landscape(inst)
        assert report.member_bits == inst.info.pareto_set(n, inst.k, inst.l)
        assert report.member_bits.bit_count() > 1 << n - 4
        assert report.component_count == sum(s - 1 not in ones for s in ones) == runs
        _report.cache_clear()
