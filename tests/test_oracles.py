"""Tests for closed-form predictions and their verification harness."""

import math
import tracemalloc
from collections import Counter
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes import at_span, objective_planes
from bibench import problems
from bibench.errors import ValidationError
from bibench.landscape import (
    BYTES_PER_STRING,
    CAP_ENV_VAR,
    _image_levels,
    enumerate_landscape,
    summary_line,
)
from bibench.oracles import (
    ClaimResult,
    VerificationReport,
    _bits_claim,
    claimed_front_tuples,
    grid_instances,
    reference_front,
    render_verification,
    verify,
)
from bibench.problems import (
    FAMILY_NAMES,
    MAX_RATIO_N,
    STATISTICS,
    ProblemInstance,
    _orzr_move,
    index_evaluator,
    ojzj_asymptote,
    ojzj_threshold_k,
    ojzr_bound,
    ojzr_within_bound,
    parse_descriptor,
    ratio_ojzj,
    ratio_ojzr,
)

EIGHT_BIT_DESCRIPTORS = (
    "omm:n=8",
    "lotz:n=8",
    "ojzj:n=8,k=2",
    "ojzj:n=8,k=3",
    "cocz:n=8",
    "orzr:n=8,l=4",
    "orzr:n=8,l=2",
    "omtz:n=8",
    "omzj:n=8,k=3",
    "omzr:n=8,l=2",
    "lozj:n=8,k=3",
    "lozr:n=8,l=2",
    "lozr:n=8,l=4",
)


def members(bits, n):
    """The indices a closed form holds; it packs them as an int in
    [0, 2^(2^n)) whose bit i is set when index i is in the set."""
    assert type(bits) is int and 0 <= bits < 1 << (1 << n)
    return {i for i, digit in enumerate(reversed(bin(bits))) if digit == "1"}


def closed_form_front(inst):
    """Objective vectors of the closed-form Pareto set, sorted."""
    ev = index_evaluator(inst)
    mask = inst.info.pareto_set(inst.n, inst.k, inst.l)
    return tuple(sorted({ev(i) for i in members(mask, inst.n)}))


class TestOracleSetsMatchEnumeration:
    @pytest.mark.parametrize("descriptor", EIGHT_BIT_DESCRIPTORS)
    def test_pareto_set(self, descriptor):
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        mask = inst.info.pareto_set(inst.n, inst.k, inst.l)
        assert members(mask, inst.n) == set(report.pareto_set_indices)

    @pytest.mark.parametrize("descriptor", EIGHT_BIT_DESCRIPTORS)
    def test_local_optima(self, descriptor):
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        mask = inst.info.local_optima(inst.n, inst.k, inst.l)
        assert members(mask, inst.n) == set(report.local_optima_indices)

    @pytest.mark.parametrize("descriptor", EIGHT_BIT_DESCRIPTORS)
    def test_front(self, descriptor):
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        assert closed_form_front(inst) == tuple(v for v, _ in report.front_counts)

    def test_ojzr_oracle_is_exact_when_blocks_are_shorter_than_the_gap(self):
        for n, k, l in ((12, 4, 3), (12, 5, 3), (12, 5, 4), (8, 3, 2)):
            inst = ProblemInstance("ojzr", n=n, k=k, l=l)
            report = enumerate_landscape(inst)
            assert members(inst.info.pareto_set(n, k, l), n) == set(report.pareto_set_indices)
            assert members(inst.info.local_optima(n, k, l), n) == set(
                report.local_optima_indices
            )


# The closed forms and the claims of verify() as index sets, the way they
# were computed before they became masks: the references the masks and the
# rendered verification are checked against.


def reference_mark(plane, test):
    return plane.translate(bytes(test(v) for v in range(256)))


def reference_where(*marks):
    both = marks[0]
    for mark in marks[1:]:
        both = (int.from_bytes(both, "little") & int.from_bytes(mark, "little")).to_bytes(
            len(mark), "little"
        )
    return set(compress(range(len(both)), both))


@lru_cache(maxsize=None)
def reference_plane(statistic, n, l):
    """The statistic's byte plane, string by string from its index form."""
    return bytes(map(STATISTICS[statistic].index(n, l), range(1 << n)))


def reference_lozr_move(l, state, ones):
    # The lozr local optima read left to right: full blocks, then an
    # all-zero block, then blocks none of which holds exactly one 1, not all
    # zero (those strings are block prefixes). State 0: only full blocks so
    # far; 1: then a zero block and zero blocks; 2: then some block with two
    # or more ones; 3: rejected.
    if state == 0:
        return 0 if ones == l else 1 if ones == 0 else 3
    if state == 3 or ones == 1:
        return 3
    return 1 if state == 1 and ones == 0 else 2


def reference_block_automaton(n, l, move):
    """The plane of the state an automaton reaches by reading the blocks
    left to right, move(state, ones) its step on a block with that many
    ones, run block by block, 256 states per table."""
    width = 1 << l
    by_ones = [bytes(move(s, ones) for s in range(256)) for ones in range(l + 1)]
    moves = [by_ones[v.bit_count()] for v in range(width)]
    p = b"\0"
    for _ in range(n // l):
        q = bytearray(len(p) * width)
        for v, table in enumerate(moves):
            q[v::width] = p.translate(table)
        p = bytes(q)
    return p


def reference_completed(n, k, l):
    out = {0}
    for j in range(n // l):
        block = ((1 << l) - 1) << (j * l)
        out |= {i | block for i in out}
    return out


def reference_prefixes(n, k, l):
    return {((1 << i) - 1) << (n - i) for i in range(n + 1)}


def reference_ones_mark(n, test):
    return reference_mark(reference_plane("ones", n, None), test)


def reference_ojzr_pareto_set(n, k, l):
    keep = {i for i in reference_completed(n, k, l) if i.bit_count() <= n - k}
    keep |= reference_where(
        reference_ones_mark(n, lambda s: s == n - k),
        reference_mark(reference_plane("all-zeroes blocks", n, l), lambda z: z == k // l),
    )
    return keep | {(1 << n) - 1}


REFERENCE_PARETO_SETS = {
    "omm": lambda n, k, l: set(range(1 << n)),
    "lotz": reference_prefixes,
    "ojzj": lambda n, k, l: reference_where(
        reference_ones_mark(n, lambda s: s in (0, n) or k <= s <= n - k)
    ),
    "cocz": lambda n, k, l: {((1 << n // 2) - 1) << n // 2 | low for low in range(1 << n // 2)},
    "orzr": reference_completed,
    "omtz": reference_prefixes,
    "omzj": lambda n, k, l: reference_where(reference_ones_mark(n, lambda s: s == 0 or s >= k)),
    "omzr": reference_completed,
    "lozj": lambda n, k, l: {0}
    | {i for i in reference_prefixes(n, k, l) if i.bit_count() >= k},
    "lozr": lambda n, k, l: {
        i for i in reference_prefixes(n, k, l) if i.bit_count() % l == 0
    },
    "ojzr": reference_ojzr_pareto_set,
}

REFERENCE_LOCAL_OPTIMA = {
    "orzr": lambda n, k, l: reference_where(reference_mark(
        reference_block_automaton(n, l, partial(_orzr_move, l)), lambda state: state == 1
    )),
    "lozj": lambda n, k, l: reference_where(
        reference_ones_mark(n, lambda s: s == k),
        reference_mark(reference_plane("leading ones", n, None), lambda lead: lead < k),
    ),
    "lozr": lambda n, k, l: reference_where(reference_mark(
        reference_block_automaton(n, l, partial(reference_lozr_move, l)), lambda state: state == 2
    )),
    "ojzr": lambda n, k, l: reference_where(
        reference_ones_mark(n, lambda s: s == n - k),
        reference_mark(reference_plane("all-zeroes blocks", n, l), lambda z: z < k // l),
    ),
}


def reference_set_claim(name, must_match, claimed, actual, describe):
    extra = sorted(claimed - actual)
    missing = sorted(actual - claimed)
    examples = [f"claimed but wrong: {describe(v)}" for v in extra[:5]]
    examples += [f"missing from claim: {describe(v)}" for v in missing[:5]]
    return ClaimResult(
        name, must_match, not extra and not missing,
        f"claimed={len(claimed)} actual={len(actual)}", tuple(examples),
    )


def reference_verify(inst):
    """verify() with its three set claims diffed as index sets; the ratio
    claims and notes, which read no set, are verify()'s own."""
    report = enumerate_landscape(inst)
    n, k, l = inst.n, inst.k, inst.l
    must = inst.info.exact
    pareto = REFERENCE_PARETO_SETS[inst.family](n, k, l)
    local = REFERENCE_LOCAL_OPTIMA.get(inst.family, lambda n, k, l: set())(n, k, l)
    f1, f2 = objective_planes(inst)

    def show(i):
        return f"{format(i, f'0{n}b')} -> ({f1[i]}, {f2[i]})"

    claims = (
        reference_set_claim("pareto_set", must, pareto, set(report.pareto_set_indices), show),
        reference_set_claim(
            "local_optima", must, local, set(report.local_optima_indices), show
        ),
        reference_set_claim(
            "claimed_front", must, set(claimed_front_tuples(inst)),
            {(f1[i], f2[i]) for i in pareto}, str,
        ),
    )
    new = verify(inst)
    return VerificationReport(inst, claims + new.claims[3:], new.notes)


SMALL_GRID = grid_instances(None, range(1, 17))


class TestMasksMatchTheSetReferences:
    def test_masks_equal_the_reference_sets(self):
        assert len(SMALL_GRID) == 434
        for inst in SMALL_GRID:
            n, k, l = inst.n, inst.k, inst.l
            pareto = inst.info.pareto_set(n, k, l)
            assert members(pareto, n) == REFERENCE_PARETO_SETS[inst.family](n, k, l), inst
            local = inst.info.local_optima(n, k, l)
            expected = REFERENCE_LOCAL_OPTIMA.get(inst.family, lambda n, k, l: set())(n, k, l)
            assert members(local, n) == expected, inst.descriptor

    def test_rendered_verification_equals_the_reference(self):
        # Among them are the ojzr instances whose informational claims
        # mismatch, with their counterexample lines.
        mismatched = 0
        for inst in SMALL_GRID:
            report = verify(inst)
            text = render_verification(report)
            assert text == render_verification(reference_verify(inst)), inst.descriptor
            mismatched += not all(claim.matched for claim in report.claims)
        assert mismatched == 117

    @pytest.mark.parametrize("set_bits", [3, 4, problems._SET_BITS])
    def test_completed_equals_the_reference(self, set_bits):
        # Every record's pairs, the completed strings of orzr and omzr among
        # them, and every local-optimum closed form, lozj's and ojzr's pairs
        # among them, selected over blocks of the cube split from n = 4 and
        # n = 5 on.
        with at_span(set_bits):
            for inst in grid_instances(None, range(1, 13)):
                n, k, l = inst.n, inst.k, inst.l
                expected = REFERENCE_PARETO_SETS[inst.family](n, k, l)
                assert members(inst.info.pareto_set(n, k, l), n) == expected, inst.descriptor
                expected = REFERENCE_LOCAL_OPTIMA.get(inst.family, lambda n, k, l: set())(n, k, l)
                assert members(inst.info.local_optima(n, k, l), n) == expected, inst.descriptor

    def test_block_marks_equal_the_left_to_right_reference(self):
        # The closed forms read the blocks right to left, from index bit 0;
        # the reference reads them left to right.
        for n in (*range(2, 17), 18, 20):
            for l in range(1, n // 2 + 1):
                if n % l == 0:
                    for family, move, accept in (
                        ("orzr", _orzr_move, 1), ("lozr", reference_lozr_move, 2)
                    ):
                        plane = reference_block_automaton(n, l, partial(move, l))
                        mark = reference_mark(plane, lambda state: state == accept)
                        # Bit i of the mask is byte i of the mark.
                        expected = int(mark[::-1].translate(b"01".ljust(256)), 2)
                        local = ProblemInstance(family, n, l=l).info.local_optima(n, None, l)
                        assert local == expected, (family, n, l)



def statistic_pair_counts(inst):
    """How many strings have each pair (s1, s2) of the two objectives'
    statistics, with no cube: a DP over the index bits, from bit 0 upward,
    on pairs of the statistics' automaton states, the state after the last
    bit being the statistic (the transfer-matrix method, Stanley,
    Enumerative Combinatorics I, 4.7)."""
    tables1, tables2 = (
        problems._statistic_tables(name, inst.n, inst.l) for name in inst.info.objectives
    )
    counts = {(0, 0): 1}
    for (a0, a1), (b0, b1) in zip(tables1, tables2):
        after = Counter()
        for (a, b), count in counts.items():
            after[a0[a], b0[b]] += count
            after[a1[a], b1[b]] += count
        counts = after
    return counts


def pair_disagreement(inst):
    """How many strings the record's pairs and the true Pareto set disagree
    on. A class (s1, s2) is claimed when it is one of the record's pairs,
    and true when its objective vector lies on the counted image's first
    level."""
    n, k, l = inst.n, inst.k, inst.l
    claimed = set(inst.info.pareto(n, k, l))
    t1, t2 = (problems.OBJECTIVES[name][1](n, k, l) for name in inst.info.objectives)
    front = set(_image_levels(inst)[0])
    return sum(
        count
        for (a, b), count in statistic_pair_counts(inst).items()
        if ((a, b) in claimed) != ((t1[a], t2[b]) in front)
    )


def counted_ratio(inst):
    """The Pareto share from the counted image alone: the strings whose
    vector lies on the image's first level, summed over the digits of
    their packed counts by ones count, over 2^n."""
    n = inst.n
    polys = problems.image_polys(inst)
    digit = (1 << n + 1) - 1
    count = sum(
        polys[v] >> j * (n + 1) & digit for v in _image_levels(inst)[0] for j in range(n + 1)
    )
    return Fraction(count, 1 << n)


class TestPairsBeyondTheCap:
    GRID = grid_instances(None, range(1, 33))

    @pytest.mark.parametrize("set_bits", [3, 4, problems._SET_BITS])
    def test_pairs_select_the_union_of_their_selections(self, set_bits):
        # Each pair alone selects the strings it counts; pairs whose first
        # value repeats, and every record's pairs, ojzr's repeated one among
        # them when l divides k, select the union of their pairs' own
        # selections; a duplicated pair selects what it selects alone.
        with at_span(set_bits):
            for inst in grid_instances(None, range(1, 11)):
                n, k, l = inst.n, inst.k, inst.l

                def select(pairs):
                    blocks = problems._statistic_pairs(inst.info.objectives, pairs, n, l)
                    return problems._join(blocks, n)

                counts = statistic_pair_counts(inst)
                alone = {pair: select([pair]) for pair in counts}
                assert {p: x.bit_count() for p, x in alone.items()} == counts, inst.descriptor
                for a in {a for a, _ in counts}:
                    pairs = [pair for pair in counts if pair[0] == a]
                    union = problems._union(alone[pair] for pair in pairs)
                    assert select(pairs) == select(pairs + pairs[::-1]) == union, inst.descriptor
                pairs = inst.info.pareto(n, k, l)
                union = problems._union(alone.get(pair, 0) for pair in pairs)
                assert inst.info.pareto_set(n, k, l) == union, inst.descriptor

    def test_counted_disagreement(self):
        # Zero on every exact family; the ojzr pairs assume a block length
        # below the gap.
        assert len(self.GRID) == 1772
        disagreeing = Counter()
        for inst in self.GRID:
            if pair_disagreement(inst):
                assert not inst.info.exact, inst.descriptor
                disagreeing[inst.n <= 16] += 1
        assert disagreeing == {True: 31, False: 155}

    def test_record_ratio_claims_on_the_counted_share(self):
        # Every must-match claim holds. ojzr's formula counts its record's
        # pairs, and misses on 186 instances, as many as the 31 + 155 whose
        # pairs disagree with the counted Pareto set (test_counted_disagreement).
        tally = Counter()
        for inst in self.GRID:
            ratio = counted_ratio(inst)
            for name, matched, detail in inst.info.ratio_claims(inst.n, inst.k, inst.l, ratio):
                assert matched or not inst.info.exact, (inst.descriptor, name, detail)
                tally[inst.family, name, matched] += 1
        assert tally == {
            ("ojzj", "ratio_formula", True): 240,
            ("ojzj", "ratio_threshold", True): 240,
            ("ojzr", "ratio_formula", True): 168,
            ("ojzr", "ratio_formula", False): 186,
        }

    def test_counted_fronts_equal_the_printed_fronts(self):
        # Equal on every exact family, so reference_front may trust the
        # printed front as a search target beyond the cap; ojzr's printed
        # front truncates its index range and leaves its special point
        # unshifted.
        differing = Counter()
        for inst in self.GRID:
            if set(_image_levels(inst)[0]) != set(claimed_front_tuples(inst)):
                assert not inst.info.exact, inst.descriptor
                differing[inst.n <= 16] += 1
        assert differing == {True: 117, False: 573}

    def test_counted_disagreement_matches_the_verified_claim(self):
        for inst in SMALL_GRID:
            claim = verify(inst).claims[0]
            assert claim.name == "pareto_set"
            assert bool(pair_disagreement(inst)) == (not claim.matched), inst.descriptor


class TestRatioOjzj:
    def test_frozen_values(self):
        assert ratio_ojzj(6, 2) == Fraction(13, 16)
        assert ratio_ojzj(8, 2) == Fraction(15, 16)
        assert ratio_ojzj(7, 3) == Fraction(9, 16)
        assert ratio_ojzj(20, 9) == Fraction(260339, 524288)

    def test_matches_enumeration(self):
        for n, k in ((6, 1), (6, 2), (8, 3), (10, 4), (12, 5), (7, 3), (9, 4), (11, 5)):
            inst = ProblemInstance("ojzj", n=n, k=k)
            assert ratio_ojzj(n, k) == enumerate_landscape(inst).ratio

    def test_domain(self):
        with pytest.raises(ValidationError):
            ratio_ojzj(8, 0)
        with pytest.raises(ValidationError):
            ratio_ojzj(8, 4)
        with pytest.raises(ValidationError):
            ratio_ojzj(8, True)
        with pytest.raises(ValidationError):
            ratio_ojzj(0, 1)

    @given(st.integers(min_value=8, max_value=80))
    def test_strictly_decreasing_in_k(self, n):
        values = [ratio_ojzj(n, k) for k in range(1, (n - 1) // 2 + 1) if 2 * k < n]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_widest_gap_ladders_decrease(self):
        even = [ratio_ojzj(2 * m, m - 1) for m in range(4, 9)]
        odd = [ratio_ojzj(2 * m + 1, m - 1) for m in range(4, 9)]
        assert even[0] == Fraction(23, 32)
        assert odd[0] == Fraction(211, 256)
        assert all(a > b for a, b in zip(even, even[1:]))
        assert all(a > b for a, b in zip(odd, odd[1:]))


class TestThreshold:
    def test_frozen_values(self):
        expected = {6: 0, 8: 1, 10: 2, 12: 3, 14: 3, 20: 6, 32: 11, 100: 41, 200: 88}
        assert {n: ojzj_threshold_k(n) for n in expected} == expected

    @given(st.integers(min_value=2, max_value=400))
    @settings(max_examples=60)
    def test_guarantee(self, n):
        threshold = ojzj_threshold_k(n)
        assert 2 * threshold < n
        if threshold >= 1:
            assert ratio_ojzj(n, threshold) >= Fraction(1, 2)

    def test_matches_the_formula_with_ln_4_computed_inline(self):
        # The module computes ln 4 once; the formula with ln 4 computed in
        # place, in the same 60-digit context, floors to the same values.
        def inline(n):
            with localcontext() as ctx:
                ctx.prec = 60
                value = Decimal(n) / 2 - (Decimal(n) * Decimal(4).ln() / 2).sqrt()
                return int(value.to_integral_value(rounding=ROUND_FLOOR))

        sizes = [*range(1, 513), 1000, 2047, 2048, 3001, MAX_RATIO_N - 1, MAX_RATIO_N]
        assert [ojzj_threshold_k(n) for n in sizes] == [inline(n) for n in sizes]

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            ojzj_threshold_k(0)
        with pytest.raises(ValidationError):
            ojzj_threshold_k(True)


class TestAsymptote:
    def test_parity_factors(self):
        assert ojzj_asymptote(8) == pytest.approx(3 * math.sqrt(2) / math.sqrt(8 * math.pi))
        assert ojzj_asymptote(9) == pytest.approx(4 * math.sqrt(2) / math.sqrt(9 * math.pi))

    def test_decreases_within_parity(self):
        evens = [ojzj_asymptote(n) for n in range(8, 65, 2)]
        odds = [ojzj_asymptote(n) for n in range(9, 65, 2)]
        assert all(a > b for a, b in zip(evens, evens[1:]))
        assert all(a > b for a, b in zip(odds, odds[1:]))


class TestRatioOjzr:
    def test_frozen_values(self):
        assert ratio_ojzr(8, 3, 2) == Fraction(9, 64)
        assert ratio_ojzr(6, 2, 3) == Fraction(19, 64)
        assert ratio_ojzr(12, 4, 3) == Fraction(3, 256)
        assert ratio_ojzr(12, 5, 3) == Fraction(39, 1024)
        assert ratio_ojzr(12, 5, 4) == Fraction(29, 4096)

    def test_exact_when_blocks_are_shorter_than_the_gap(self):
        for n, k, l in ((12, 4, 3), (12, 5, 3), (12, 5, 4), (8, 3, 2), (14, 5, 2)):
            inst = ProblemInstance("ojzr", n=n, k=k, l=l)
            assert ratio_ojzr(n, k, l) == enumerate_landscape(inst).ratio

    def test_overcounts_when_blocks_are_longer_than_the_gap(self):
        inst = ProblemInstance("ojzr", n=6, k=2, l=3)
        assert ratio_ojzr(6, 2, 3) == Fraction(19, 64)
        assert enumerate_landscape(inst).ratio == Fraction(1, 16)

    def test_unit_block_frozen_values(self):
        table = {
            (8, 3): Fraction(9, 64),
            (10, 3): Fraction(67, 1024),
            (12, 3): Fraction(59, 2048),
            (12, 5): Fraction(163, 4096),
            (14, 3): Fraction(205, 16384),
            (14, 5): Fraction(155, 8192),
        }
        for (n, k), expected in table.items():
            assert ratio_ojzr(n, k, 2) == expected
            assert expected <= Fraction(1, 2)

    def test_pair_block_third_term_identity(self):
        # With l = 2 the third count collapses to a single product.
        for n in (8, 10, 12, 14):
            b = n // 2
            for k in range(3, n // 2, 2):
                tail = 1 + sum(math.comb(b, i) for i in range(-(-k // 2), b + 1))
                term = (n - 2 * (k // 2)) * math.comb(b, k // 2)
                assert ratio_ojzr(n, k, 2) == Fraction(tail + term, 1 << n)

    def test_domain(self):
        with pytest.raises(ValidationError):
            ratio_ojzr(12, 1, 3)
        with pytest.raises(ValidationError):
            ratio_ojzr(12, 6, 4)
        with pytest.raises(ValidationError):
            ratio_ojzr(12, 3, 3)
        with pytest.raises(ValidationError):
            ratio_ojzr(12, 5, 5)
        with pytest.raises(ValidationError):
            ratio_ojzr(6, 2, 6)
        with pytest.raises(ValidationError):
            ratio_ojzr(12, 5, 0)


class TestOjzrBound:
    def test_frozen_values(self):
        assert ojzr_bound(12, 3) == (Fraction(1, 64), -6)
        assert ojzr_bound(12, 4) == (Fraction(1, 256), -8)
        assert ojzr_bound(12, 2) == (Fraction(1, 4), -2)
        assert ojzr_bound(12, 1) == (Fraction(1024), 10)

    def test_squared_value_matches_exponent(self):
        for n in (6, 12, 24, 36):
            for l in (1, 2, 3, 6):
                squared, doubled = ojzr_bound(n, l)
                assert squared == Fraction(2) ** doubled

    def test_rejects_non_divisor(self):
        with pytest.raises(ValidationError):
            ojzr_bound(12, 5)

    def test_within_bound(self):
        assert ojzr_within_bound(12, 4, 3)
        assert ojzr_within_bound(12, 5, 3)
        assert ojzr_within_bound(12, 5, 4)
        assert ojzr_within_bound(36, 13, 4)
        assert not ojzr_within_bound(8, 3, 4)
        assert not ojzr_within_bound(24, 11, 6)

    def test_within_bound_needs_wide_blocks(self):
        with pytest.raises(ValidationError):
            ojzr_within_bound(12, 5, 2)


class TestClaimedFronts:
    def test_omm(self):
        inst = ProblemInstance("omm", n=4)
        assert claimed_front_tuples(inst) == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0))

    def test_ojzj_peaks_and_middle(self):
        inst = ProblemInstance("ojzj", n=8, k=2)
        assert claimed_front_tuples(inst) == (
            (2, 10),
            (4, 8),
            (5, 7),
            (6, 6),
            (7, 5),
            (8, 4),
            (10, 2),
        )

    def test_ojzr_truncation_is_kept_literal(self):
        inst = ProblemInstance("ojzr", n=12, k=3, l=3)
        assert claimed_front_tuples(inst) == ((3, 12), (6, 9), (15, 0))
        assert closed_form_front(inst) == ((3, 12), (6, 9), (9, 6), (12, 3), (15, 0))

    def test_matches_oracle_front_outside_ojzr(self):
        for descriptor in EIGHT_BIT_DESCRIPTORS:
            inst = parse_descriptor(descriptor)
            assert claimed_front_tuples(inst) == closed_form_front(inst)


class TestReferenceFront:
    def test_ojzr_front_is_not_the_printed_one(self):
        inst = ProblemInstance("ojzr", n=6, k=2, l=3)
        assert reference_front(inst) == ((2, 6), (5, 3), (8, 0))
        assert reference_front(inst) != claimed_front_tuples(inst)

    def test_ojzr_front_matches_enumeration(self):
        instances = grid_instances(("ojzr",), range(4, 17))
        assert len(instances) == 136
        for inst in instances:
            enumerated = tuple(v for v, _ in enumerate_landscape(inst).front_counts)
            assert reference_front(inst) == enumerated, inst.descriptor

    def test_ojzr_front_works_beyond_the_enumeration_cap(self):
        front = reference_front(ProblemInstance("ojzr", n=30, k=5, l=3))
        assert front == tuple(sorted(front))
        assert all(a < b and c > d for (a, c), (b, d) in zip(front, front[1:]))

    def test_other_families_use_the_closed_form(self):
        inst = ProblemInstance("omm", n=8)
        assert reference_front(inst) == claimed_front_tuples(inst)

    def test_closed_form_works_beyond_the_enumeration_cap(self):
        inst = ProblemInstance("lotz", n=32)
        front = reference_front(inst)
        assert len(front) == 33
        assert front == claimed_front_tuples(inst)


class TestVerify:
    def test_clean_families_pass_all_claims(self):
        for descriptor in EIGHT_BIT_DESCRIPTORS:
            report = verify(parse_descriptor(descriptor))
            assert report.must_match_ok
            assert all(claim.matched for claim in report.claims)
            assert all(claim.must_match for claim in report.claims)

    def test_ojzj_claim_names(self):
        report = verify(ProblemInstance("ojzj", n=8, k=2))
        names = [claim.name for claim in report.claims]
        assert names == [
            "pareto_set",
            "local_optima",
            "claimed_front",
            "ratio_formula",
            "ratio_threshold",
        ]
        assert any("shifted" in note for note in report.notes)

    def test_plain_family_claim_names(self):
        report = verify(ProblemInstance("lotz", n=6))
        assert [claim.name for claim in report.claims] == [
            "pareto_set",
            "local_optima",
            "claimed_front",
        ]
        assert report.notes == ()

    def test_ojzr_mismatches_are_informational(self):
        report = verify(ProblemInstance("ojzr", n=6, k=2, l=3))
        assert report.must_match_ok
        by_name = {claim.name: claim for claim in report.claims}
        assert not by_name["pareto_set"].matched
        assert by_name["pareto_set"].detail == "claimed=19 actual=4"
        assert not by_name["local_optima"].matched
        assert by_name["local_optima"].detail == "claimed=0 actual=15"
        assert not by_name["claimed_front"].matched
        assert not by_name["ratio_formula"].matched
        assert by_name["ratio_formula"].detail == "formula=19/64 enumerated=1/16"
        assert all(not claim.must_match for claim in report.claims)

    def test_ojzr_formula_claim_absent_outside_its_domain(self):
        report = verify(ProblemInstance("ojzr", n=12, k=3, l=3))
        assert "ratio_formula" not in [claim.name for claim in report.claims]

    def test_counterexamples_show_strings_and_vectors(self):
        report = verify(ProblemInstance("ojzr", n=6, k=2, l=3))
        by_name = {claim.name: claim for claim in report.claims}
        assert by_name["pareto_set"].counterexamples[0] == (
            "claimed but wrong: 001111 -> (6, 0)"
        )
        assert by_name["local_optima"].counterexamples[0] == (
            "missing from claim: 001111 -> (6, 0)"
        )
        assert len(by_name["pareto_set"].counterexamples) == 5

    def test_packed_claims_compare_members_not_sizes(self):
        claim = _bits_claim("s", True, 0b10110, 0b01101, str)
        assert not claim.matched
        assert claim.detail == "claimed=3 actual=3"
        assert claim.counterexamples == (
            "claimed but wrong: 1",
            "claimed but wrong: 4",
            "missing from claim: 0",
            "missing from claim: 3",
        )
        wide = _bits_claim("s", True, (1 << 300) - 1, 1 << 300, str)
        assert wide.counterexamples == (
            *(f"claimed but wrong: {i}" for i in range(5)),
            "missing from claim: 300",
        )

    def test_whole_grid_must_match(self):
        # Even and odd sizes: DEFAULT_GRID_SIZES are all even, so `bibench
        # verify all` never checks odd n.
        for inst in SMALL_GRID:
            assert verify(inst).must_match_ok, inst.descriptor

    def test_odd_sizes_must_match(self):
        # DEFAULT_GRID_SIZES are all even, so `bibench verify all` never checks odd n.
        instances = grid_instances(None, (5, 7, 9, 11))
        assert len(instances) == 74
        for inst in instances:
            assert verify(inst).must_match_ok, inst.descriptor

    def test_split_cubes_must_match(self):
        # From n = 17 the default span cuts the cube into 2 to 16 blocks, so
        # the local-optimum scan compares strings across blocks; every cube
        # of the grid up to n = 16 is one block.
        instances = grid_instances(None, range(17, 21))
        assert len(instances) == 244
        for inst in instances:
            assert verify(inst).must_match_ok, inst.descriptor

    # At n = 26 each cube is 1,024 blocks. After the block bits the scan
    # goes inside 1 of them on lotz, omtz and cocz, 32 on orzr and lozr at
    # l = 2 and 643 on lozj:k=5. Inside, the scan goes on with the half of a
    # block that still has strings to mark: lotz's and omtz's block halves
    # at each index bit from 15 down to 2, cocz's at bits 15 and 14, where
    # its two counting objectives' rise and fall sets are cut, and 256 of
    # lozj's at each bit from 15 down to 1, while the other 387 and those of
    # orzr and lozr never halve. lotz, omtz, cocz and orzr have no local
    # optimum; lozr and lozj have 8,178 and 65,779.
    @pytest.mark.long
    @pytest.mark.parametrize(
        "descriptor",
        [
            "lotz:n=26",
            "omtz:n=26",
            "cocz:n=26",
            "orzr:n=26,l=2",
            "lozr:n=26,l=2",
            "lozj:n=26,k=5",
        ],
    )
    def test_cubes_of_a_thousand_blocks_must_match(self, monkeypatch, descriptor):
        monkeypatch.setenv(CAP_ENV_VAR, "26")
        inst = parse_descriptor(descriptor)
        for tables, _ in problems._objective_tables(inst):
            assert len(problems._cells(tables)[1]) == 1024
        report = verify(inst)
        assert report.must_match_ok
        assert {claim.name: claim for claim in report.claims}["local_optima"].matched

    @pytest.mark.long
    @pytest.mark.parametrize(
        "descriptor, line",
        [
            ("lotz:n=26", "|PS|=27 ratio=27/67108864 components=1 |LO|=0"),
            ("lozr:n=26,l=2", "|PS|=14 ratio=7/33554432 components=14 |LO|=8178"),
        ],
    )
    def test_summary_lines_at_26(self, monkeypatch, descriptor, line):
        monkeypatch.setenv(CAP_ENV_VAR, "26")
        assert summary_line(enumerate_landscape(parse_descriptor(descriptor))) == line

    @pytest.mark.parametrize(
        "descriptor",
        [
            "omm:n=18",
            "lotz:n=18",
            "ojzj:n=18,k=4",
            "cocz:n=18",
            "orzr:n=18,l=3",
            "omtz:n=18",
            "omzj:n=18,k=4",
            "omzr:n=18,l=3",
            "lozj:n=18,k=4",
            "lozr:n=18,l=3",
            "ojzr:n=18,k=7,l=3",
        ],
    )
    def test_verification_memory_is_a_third_of_the_budget(self, descriptor):
        # The report is enumerated first, so the peak is verify's own.
        inst = parse_descriptor(descriptor)
        enumerate_landscape(inst)
        tracemalloc.start()
        try:
            verify(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4 bytes per string, a sixth of the budget: the claims and the
        # report hold packed bits, one bit per string.
        assert peak <= (BYTES_PER_STRING // 6) << inst.n


class TestRenderVerification:
    def test_golden_lotz(self):
        text = render_verification(verify(ProblemInstance("lotz", n=6)))
        assert text == (
            "lotz:n=6\n"
            "  pareto_set: match (must-match) claimed=7 actual=7\n"
            "  local_optima: match (must-match) claimed=0 actual=0\n"
            "  claimed_front: match (must-match) claimed=7 actual=7\n"
        )

    def test_golden_ojzj(self):
        text = render_verification(verify(ProblemInstance("ojzj", n=8, k=2)))
        assert text == (
            "ojzj:n=8,k=2\n"
            "  pareto_set: match (must-match) claimed=240 actual=240\n"
            "  local_optima: match (must-match) claimed=0 actual=0\n"
            "  claimed_front: match (must-match) claimed=7 actual=7\n"
            "  ratio_formula: match (must-match) formula=15/16 enumerated=15/16\n"
            "  ratio_threshold: match (must-match) threshold_k=1 k=2 ratio=15/16\n"
            "  note: jump objectives are shifted: value is k plus the bit"
            " count outside the valley\n"
        )

    def test_mismatches_render_counterexamples(self):
        text = render_verification(verify(ProblemInstance("ojzr", n=6, k=2, l=3)))
        assert "pareto_set: MISMATCH (informational) claimed=19 actual=4" in text
        assert "    - claimed but wrong: 001111 -> (6, 0)" in text


class TestGrid:
    def test_default_grid_counts(self):
        grid = grid_instances()
        assert len(grid) == 191
        counts = Counter(inst.family for inst in grid)
        assert counts == {
            "omm": 5,
            "lotz": 5,
            "ojzj": 20,
            "cocz": 5,
            "orzr": 17,
            "omtz": 5,
            "omzj": 15,
            "omzr": 17,
            "lozj": 15,
            "lozr": 17,
            "ojzr": 70,
        }

    def test_all_instances_distinct_and_valid(self):
        grid = grid_instances()
        descriptors = [inst.descriptor for inst in grid]
        assert len(set(descriptors)) == len(descriptors)
        for descriptor in descriptors:
            parse_descriptor(descriptor)

    @pytest.mark.parametrize("families", ["omm", "o", ""])
    def test_a_bare_string_is_not_read_as_names(self, families):
        # Iterated, "omm" would be the unknown family 'o'.
        with pytest.raises(ValidationError, match=f"got the string {families!r}$"):
            grid_instances(families)

    @pytest.mark.parametrize("n_values", [6, "6", None])
    def test_sizes_must_be_a_sequence(self, n_values):
        # Iterated, 6 would raise a TypeError and "6" would be read digit by
        # digit.
        with pytest.raises(ValidationError, match=f"got {n_values!r}$"):
            grid_instances(None, n_values)

    @pytest.mark.parametrize(
        "families, n", [("ojzj", 6.0), ("ojzr", 10**6), ("ojzr", 10**12), ("omm", True)]
    )
    def test_each_size_must_be_a_valid_length(self, families, n):
        # Unchecked, 6.0 raised a TypeError from range(1, n + 1), and ojzr's
        # rule ran over k and l up to n before an instance was refused: for
        # 0.07 s at 10^6, and with no end in sight at 10^12.
        with pytest.raises(ValidationError, match=f"got {n!r}$"):
            grid_instances((families,), (6, n))

    def test_family_order_is_canonical(self):
        grid = grid_instances(families=("lotz", "omm"))
        assert [inst.descriptor for inst in grid] == [
            "omm:n=6",
            "omm:n=8",
            "omm:n=10",
            "omm:n=12",
            "omm:n=14",
            "lotz:n=6",
            "lotz:n=8",
            "lotz:n=10",
            "lotz:n=12",
            "lotz:n=14",
        ]

    def test_custom_sizes(self):
        grid = grid_instances(families=("ojzj",), n_values=(8,))
        assert [inst.descriptor for inst in grid] == [
            "ojzj:n=8,k=1",
            "ojzj:n=8,k=2",
            "ojzj:n=8,k=3",
        ]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            grid_instances(families=("nope",))

    def test_grid_is_every_instance_validate_accepts(self):
        expected = []
        for family in FAMILY_NAMES:
            for n in range(1, 23):
                for k in (None, *range(1, n + 1)):
                    for l in (None, *range(1, n + 1)):
                        try:
                            expected.append(ProblemInstance(family, n, k, l))
                        except ValidationError:
                            pass
        assert grid_instances(n_values=range(1, 23)) == expected
        assert len(expected) == 816
