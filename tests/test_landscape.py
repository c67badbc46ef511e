"""Exhaustive landscape analysis: frozen exact counts per family, the seven
characteristic flags, separability, symmetry, front shapes, caps and the
one-slot report memo, plus brute-force references for the enumeration
core's plane helpers."""

import dataclasses
import math
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import compress
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibench import landscape, problems
from bibench.bitstring import BitString
from bibench.errors import EnumerationCapError, ValidationError
from bibench.landscape import (
    BYTES_PER_STRING,
    CAP_ENV_VAR,
    DEFAULT_CAP,
    MAX_CAP,
    MEMORY_LIMIT,
    FrontShape,
    SeparabilityReport,
    _bit_component_count,
    _bit_planes,
    _component_count,
    _indices,
    _local_optima,
    _binary_lines,
    _mirror,
    _report,
    _turns,
    _unpack_bits,
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
from bibench.problems import ProblemInstance, _pack_bits, evaluate, parse_descriptor


def report_for(descriptor):
    return enumerate_landscape(parse_descriptor(descriptor))


def flip(x, position):
    return BitString(x.n, x.index ^ (1 << (x.n - position)))


def neighbors(x):
    return [flip(x, position) for position in range(1, x.n + 1)]


def below_upper_hull(points):
    """The former front_shape test: whether some point lies strictly under
    the upper convex hull of points sorted by f1 with all f1 distinct."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    for p in points:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= p[0] <= x2:
                cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
                if cross < 0:
                    return True
                break
    return False


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
        """One non-dominated level against the former check: consecutive
        distinct vectors never share f1, and f2 strictly falls."""
        for inst in grid_instances(None, range(1, 13)):
            distinct = sorted(enumerate_landscape(inst).vector_counts)
            scan = all(
                b1 != a1 and b2 < a2 for (a1, a2), (b1, b2) in zip(distinct, distinct[1:])
            )
            assert is_completely_conflicting(inst) == scan, inst.descriptor


def scan_separability(inst, objective):
    """The former is_fully_separable: a whole-plane scan of every position
    for a context whose flip delta differs from context 0's."""
    n = inst.n
    size = 1 << n
    plane = enumerate_landscape(inst).planes[objective - 1]
    p = int.from_bytes(plane, "little")
    guard = int.from_bytes(b"\x80" * size, "little")
    deltas = []
    for position in range(1, n + 1):
        b = n - position
        step = 1 << b
        first = plane[step] - plane[0]
        contexts = int.from_bytes((b"\xff" * step + bytes(step)) * (size >> (b + 1)), "little")
        lanes = int.from_bytes(bytes([128 + first]) * size, "little")
        offset = (((p >> 8 * step | guard) - p) ^ lanes) & contexts
        if offset:
            i = ((offset & -offset).bit_length() - 1) >> 3
            return SeparabilityReport(
                objective=objective,
                separable=False,
                contributions=None,
                witness_position=position,
                witness=(BitString(n, 0), BitString(n, i)),
                witness_deltas=(first, plane[i + step] - plane[i]),
            )
        deltas.append(first)
    base = plane[0]
    contributions = [(0, d) for d in deltas]
    contributions[0] = (base, base + deltas[0])
    return SeparabilityReport(
        objective=objective,
        separable=True,
        contributions=tuple(contributions),
        witness_position=None,
        witness=None,
        witness_deltas=None,
    )


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
        for descriptor, objective in [("omm:n=6", 2), ("cocz:n=6", 2)]:
            inst = parse_descriptor(descriptor)
            rep = is_fully_separable(inst, objective)
            for x in (BitString(6, i) for i in range(1 << 6)):
                total = sum(pair[int(bit)] for bit, pair in zip(str(x), rep.contributions))
                assert total == evaluate(inst, x)[objective - 1]

    def test_witness_really_breaks_constancy(self):
        inst = ProblemInstance("lotz", 6)
        rep = is_fully_separable(inst, 1)
        a, b = rep.witness
        pos = rep.witness_position
        da = evaluate(inst, flip(a, pos))[0] - evaluate(inst, a)[0]
        db = evaluate(inst, flip(b, pos))[0] - evaluate(inst, b)[0]
        assert (da, db) == rep.witness_deltas
        assert da != db

    @pytest.mark.parametrize(
        "descriptor", ["lotz:n=6", "omtz:n=7", "ojzj:n=8,k=2", "orzr:n=8,l=2", "lozr:n=8,l=2"]
    )
    def test_witness_is_the_first_context_that_differs(self, descriptor):
        # Positions in order 1..n; within one, contexts by index, context 0 first.
        inst = parse_descriptor(descriptor)
        n = inst.n
        for objective in (1, 2):
            expected = None
            for position in range(1, n + 1):
                bit = 1 << (n - position)
                contexts = [i for i in range(1 << n) if not i & bit]
                deltas = [
                    evaluate(inst, BitString(n, i | bit))[objective - 1]
                    - evaluate(inst, BitString(n, i))[objective - 1]
                    for i in contexts
                ]
                odd = next((c for c, d in zip(contexts, deltas) if d != deltas[0]), None)
                if odd is not None:
                    expected = (position, (0, odd), (deltas[0], deltas[contexts.index(odd)]))
                    break
            rep = is_fully_separable(inst, objective)
            found = None if rep.separable else (
                rep.witness_position,
                tuple(x.index for x in rep.witness),
                rep.witness_deltas,
            )
            assert found == expected, (descriptor, objective)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_witness_after_a_separable_position(self, n):
        # Index bit n - 1, position 1, only adds 63, so the witness lies at
        # a later position, and lanes outside the contexts must not count.
        rng = random.Random(n)
        low = [rng.randrange(64) for _ in range(1 << (n - 1))]
        plane = bytes(low + [v + 63 for v in low])
        expected = None
        for position in range(2, n + 1):
            bit = 1 << (n - position)
            contexts = [i for i in range(1 << n) if not i & bit]
            deltas = [plane[i | bit] - plane[i] for i in contexts]
            odd = next((i for i, d in zip(contexts, deltas) if d != deltas[0]), None)
            if odd is not None:
                expected = (position, odd, (deltas[0], plane[odd | bit] - plane[odd]))
                break
        assert expected is not None
        rep = landscape._separability_witness(plane, n, 1)
        assert (rep.witness_position, rep.witness[1].index, rep.witness_deltas) == expected

    def test_one_pass_check_matches_the_scan(self):
        instances = grid_instances(None, range(1, 17))
        assert len(instances) == 434
        for inst in instances:
            for objective in (1, 2):
                assert is_fully_separable(inst, objective) == scan_separability(
                    inst, objective
                ), (inst.descriptor, objective)

    def test_objective_selector_is_validated(self):
        with pytest.raises(ValidationError):
            is_fully_separable(ProblemInstance("omm", 4), 3)
        with pytest.raises(ValidationError):
            is_fully_separable(ProblemInstance("omm", 4), True)


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
        points = sorted(points)
        turns = _turns(points)
        o = points[0]
        collinear = all(
            (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) == 0
            for a, b in zip(points[1:], points[2:])
        )
        assert (not any(turns)) == collinear
        assert (max(turns, default=0) > 0) == below_upper_hull(points)


class TestCaps:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        assert enumeration_cap() == DEFAULT_CAP

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        assert enumeration_cap() == 10
        with pytest.raises(EnumerationCapError):
            enumerate_landscape(ProblemInstance("omm", 12))

    def test_env_var_must_be_a_positive_integer(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "ten")
        with pytest.raises(ValidationError):
            enumeration_cap()
        monkeypatch.setenv(CAP_ENV_VAR, "0")
        with pytest.raises(ValidationError):
            enumeration_cap()

    def test_env_var_is_bounded_by_the_memory_estimate(self, monkeypatch):
        # MAX_CAP is the largest n whose estimated peak fits the limit.
        assert BYTES_PER_STRING << MAX_CAP <= MEMORY_LIMIT < BYTES_PER_STRING << (MAX_CAP + 1)
        monkeypatch.setenv(CAP_ENV_VAR, str(MAX_CAP))
        assert enumeration_cap() == MAX_CAP
        monkeypatch.setenv(CAP_ENV_VAR, str(MAX_CAP + 1))
        with pytest.raises(ValidationError, match=f"at most {MAX_CAP}"):
            enumeration_cap()

    def test_cap_error_states_the_memory_estimate(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        with pytest.raises(EnumerationCapError, match="would need about 96 KiB"):
            enumerate_landscape(ProblemInstance("omm", 12))


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
        assert [len(plane) for plane in rep.planes] == [16, 16]
        assert "planes=" not in repr(rep)


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

    @given(cube_subsets)
    @settings(max_examples=200)
    def test_bit_component_count_matches_reference(self, case):
        n, members = case
        bits = sum(1 << i for i in members)
        assert _bit_component_count(bits, n) == reference_component_count(members, n)

    @pytest.mark.parametrize("n", range(1, 64))
    def test_bit_reverser_matches_string_reversal(self, n):
        # The mirror's index-bit transpositions reverse every n-bit string.
        top = (1 << n) - 1
        samples = {0, 1, top, top >> 1, 1 << (n - 1), 0x5555555555555555 & top}
        samples.update((i * 0x9E3779B97F4A7C15) & top for i in range(1, 200))
        for i in samples:
            j = i
            for b, c in mirror_pairs(n):
                if (j >> b ^ j >> c) & 1:
                    j ^= 1 << b | 1 << c
            assert j == int(format(i, f"0{n}b")[::-1], 2), (n, i)
        # The plane mirror moves the byte of index i to its reversal; two
        # planes carry the low and the high byte of each index.
        if n <= 16:
            size = 1 << n
            for shift in (0, 8):
                plane = bytes((i >> shift) & 0xFF for i in range(size))
                out = _mirror(plane, n)
                for i in range(size):
                    assert out[int(format(i, f"0{n}b")[::-1], 2)] == plane[i], (n, i)


def mirror_pairs(n):
    """Transpositions of index bits whose product reverses an n-bit index."""
    return [(b, n - 1 - b) for b in range(n // 2)]


def reference_mirror(plane, n):
    """The former plane mirror: each transposition of index bits b < c is
    one delta swap on the plane as a big int, so the lanes with bit b set
    and bit c clear trade places with the lanes 2^c - 2^b above them."""
    size = 1 << n
    x = int.from_bytes(plane, "little")
    for b, c in mirror_pairs(n):
        shift = 8 * ((1 << c) - (1 << b))
        period = (bytes(1 << b) + b"\xff" * (1 << b)) * (1 << (c - b - 1)) + bytes(1 << c)
        t = (x ^ x >> shift) & int.from_bytes(period * (size >> (c + 1)), "little")
        x ^= t ^ t << shift
    return x.to_bytes(size, "little")


def reference_render(report):
    """The former render_report: one str.format per local optimum, and the
    Pareto set's size from its index array."""
    n = report.n
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
    lines.extend(map(f"{{:0{n}b}}".format, report.local_optima_indices))
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
    @pytest.mark.parametrize("n", range(1, 17))
    def test_block_transpose_matches_the_delta_swaps(self, n):
        rng = random.Random(n)
        for _ in range(3):
            plane = rng.randbytes(1 << n)
            assert _mirror(plane, n) == reference_mirror(plane, n)

    def test_grid_planes_and_symmetry_match_the_delta_swaps(self):
        for inst in GRID:
            f1, f2 = enumerate_landscape(inst).planes
            for plane in (f1, f2):
                assert _mirror(plane, inst.n) == reference_mirror(plane, inst.n), inst.descriptor
            symmetric = reference_mirror(f1[::-1], inst.n) == f2
            assert is_symmetric_pair(inst) == symmetric, inst.descriptor


class TestBinaryLines:
    @pytest.mark.parametrize("n", range(1, 30))
    def test_lines_match_format(self, n):
        # n = 8, 9, 16, 17, 24 and 25 put the top bit at a lane's edge.
        rng = random.Random(n)
        top = (1 << n) - 1
        picked = {0, top, 1, top >> 1, 1 << (n - 1)}
        picked.update(rng.randrange(top + 1) for _ in range(300))
        indices = array("I", sorted(picked))
        expected = "\n".join(f"{i:0{n}b}" for i in indices) + "\n"
        assert _binary_lines(indices, n) == expected
        assert _binary_lines(array("I", [top]), n) == "1" * n + "\n"
        assert _binary_lines(array("I"), n) == ""

    def test_grid_reports_match_the_format_renderer(self):
        for inst in GRID:
            report = enumerate_landscape(inst)
            assert render_report(report) == reference_render(report), inst.descriptor


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
        f1, f2 = report.planes
        front = {v for v, _ in report.front_counts}
        mask = bytes((a, b) in front for a, b in zip(f1, f2))
        indices = report.pareto_set_indices
        assert indices == array("I", compress(range(1 << inst.n), mask))
        assert len(indices) == report.member_bits.bit_count()
        assert vars(report)["pareto_set_indices"] is indices

    def test_reports_differing_in_the_pareto_set_are_unequal(self):
        report = report_for("ojzj:n=8,k=2")
        assert dataclasses.replace(report) == report
        assert dataclasses.replace(report, member_bits=report.member_bits ^ 1) != report


def reference_local_views(report):
    """Reference for the lazy views: the local optima's index array and
    image counts, built eagerly from the neighbour check's mask."""
    f1, f2 = report.planes
    mask = reference_local_optima(f1, f2, set(report.pareto_set_indices), report.n)
    local = array("I", compress(range(1 << report.n), mask))
    counts = Counter(zip(map(f1.__getitem__, local), map(f2.__getitem__, local)))
    return local, tuple((v, counts[v]) for v in sorted(counts))


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
        local, local_front = reference_local_views(report)
        assert report.local_optima_indices == local
        assert report.local_front_counts == local_front
        assert profile.local_optima_count == len(local) == report.local_optima_bits.bit_count()
        assert vars(report)["local_optima_indices"] is report.local_optima_indices
        assert vars(report)["local_front_counts"] is report.local_front_counts

    def test_reports_differing_in_the_local_optima_are_unequal(self):
        report = report_for("lozr:n=8,l=2")
        assert report.local_optima_bits
        changed = report.local_optima_bits ^ (report.local_optima_bits & -report.local_optima_bits)
        assert dataclasses.replace(report, local_optima_bits=changed) != report


def peak_bytes_per_string(call, n):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (1 << n)


class TestMemory:
    """Peaks of the predicates and the text after enumeration, so each is
    the call's own."""

    @pytest.mark.parametrize("descriptor", ["omm:n=18", "lozr:n=18,l=3"])
    def test_symmetry_check_peaks_below_five_bytes_per_string(self, descriptor):
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        assert peak_bytes_per_string(lambda: is_symmetric_pair(inst), inst.n) <= 4.5

    def test_render_peaks_below_eight_bytes_per_string(self):
        # 31,644 local optima, 19 bytes of text each.
        inst = parse_descriptor("ojzr:n=18,k=7,l=3")
        report = enumerate_landscape(inst)
        assert peak_bytes_per_string(lambda: render_report(report), inst.n) <= 8

    @pytest.mark.parametrize("descriptor", ["lotz:n=18", "ojzj:n=18,k=4", "lozr:n=18,l=3"])
    def test_witness_scan_peaks_below_six_bytes_per_string(self, descriptor):
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        assert not is_fully_separable(inst, 1).separable
        assert peak_bytes_per_string(lambda: is_fully_separable(inst, 1), inst.n) <= 6


def reference_local_optima(f1, f2, members, n):
    """Byte i is 1 when string i is not a member and no neighbour strictly
    dominates it: a check of every neighbour of every string."""
    flips = [1 << b for b in range(n)]
    out = bytearray(1 << n)
    for i in range(1 << n):
        a, c = f1[i], f2[i]
        out[i] = i not in members and not any(
            f1[i ^ m] >= a and f2[i ^ m] >= c and (f1[i ^ m], f2[i ^ m]) != (a, c)
            for m in flips
        )
    return out


def mask_from_runs(runs):
    return b"".join(bytes([value]) * length for value, length in runs)


# Masks of alternating runs around the extraction's 64-byte gap.
run_masks = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from([1, 2, 7, 63, 64, 65, 200])), max_size=12
).map(mask_from_runs)


class TestBitSlicedKernels:
    def test_local_optima_match_the_neighbour_check(self):
        # n = 1 and 2 pad the planes to one 8-byte word.
        for inst in grid_instances(None, range(1, 13)):
            report = enumerate_landscape(inst)
            f1, f2 = report.planes
            members = set(report.pareto_set_indices)
            packed = sum(1 << i for i in members)
            expected = _pack_bits(reference_local_optima(f1, f2, members, inst.n))
            assert _local_optima(f1, f2, packed, inst.n) == expected, inst.descriptor
            assert report.member_bits == packed, inst.descriptor
            assert report.local_optima_bits == expected, inst.descriptor

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=80).map(bytes))
    @settings(max_examples=200)
    def test_bit_planes_rebuild_the_plane(self, plane):
        # Small chunks make several, the last one short.
        for chunk in (8, 24, landscape._CHUNK):
            with mock.patch.object(landscape, "_CHUNK", chunk):
                planes = _bit_planes(plane)
            assert len(planes) == 7
            assert all(p >> len(plane) == 0 for p in planes)
            rebuilt = bytes(
                sum((p >> i & 1) << k for k, p in enumerate(planes)) for i in range(len(plane))
            )
            assert rebuilt == plane, chunk

    @given(cube_subsets)
    @settings(max_examples=100)
    def test_unpacked_bits_pack_back(self, case):
        n, members = case
        size, packed = 1 << n, sum(1 << i for i in members)
        flags = _unpack_bits(packed, size)
        assert len(flags) == size and set(flags) <= {0, 1}
        assert _pack_bits(flags) == packed

    @pytest.mark.parametrize(
        "mask",
        [
            bytes(300),
            b"\x01" * 300,
            b"\x01" + bytes(299),
            bytes(299) + b"\x01",
            b"\x01\x00" * 150,
            bytes(random.Random(7).choice((0, 1)) for _ in range(5000)),
            bytes(random.Random(8).random() < 0.01 for _ in range(5000)),
            b"",
        ],
        ids=["empty", "full", "first", "last", "alternating", "random", "sparse", "no-bytes"],
    )
    def test_indices_match_compress(self, mask):
        assert _indices(mask) == array("I", compress(range(len(mask)), mask))

    @given(run_masks)
    @settings(max_examples=200)
    def test_indices_match_compress_across_gaps(self, mask):
        assert _indices(mask) == array("I", compress(range(len(mask)), mask))


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
        vec = {x: evaluate(inst, x) for x in (BitString(n, i) for i in range(1 << n))}

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
            row = [v for x, v in vec.items() if str(x).count("1") == ones]
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
        f1, f2 = rep.planes
        assert all((f1[x.index], f2[x.index]) == v for x, v in vec.items())
        assert tuple(rep.pareto_set_indices) == tuple(sorted(x.index for x in pareto))
        assert tuple(rep.local_optima_indices) == tuple(sorted(x.index for x in local))
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


class TestImageCounts:
    def test_counted_image_matches_the_planes(self):
        """The DP histogram against a count over the planes themselves."""
        for inst in grid_instances(None, range(1, 17)):
            f1, f2 = enumerate_landscape(inst).planes
            ones = problems.statistic_plane("ones", inst.n, None)
            assert problems.image_counts(inst) == Counter(zip(f1, f2, ones)), inst.descriptor

    def test_vector_counts_ascend(self):
        for descriptor in ["lotz:n=8", "ojzj:n=10,k=3", "ojzr:n=12,k=5,l=3"]:
            keys = list(report_for(descriptor).vector_counts)
            assert keys == sorted(keys), descriptor


class TestPlanesOnly:
    def test_enumeration_evaluates_no_string(self, monkeypatch):
        """Enumeration and the profile read only planes: with every
        index-level statistic raising, both still succeed."""

        def refuse(n, l):
            raise AssertionError("index-level statistic called during enumeration")

        for name in problems.STATISTICS:
            monkeypatch.setitem(problems.STATISTICS, name, refuse)
        problems.index_evaluator.cache_clear()
        _report.cache_clear()
        inst = ProblemInstance("ojzr", 12, k=5, l=3)
        assert summary_line(enumerate_landscape(inst)) == (
            "|PS|=156 ratio=39/1024 components=120 |LO|=648"
        )
        assert characteristic_profile(inst).flags == (True,) * 7
        _report.cache_clear()
