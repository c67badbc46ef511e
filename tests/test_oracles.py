"""Tests for closed-form predictions and their verification harness."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibench.errors import EnumerationCapError, ValidationError
from bibench.landscape import enumerate_landscape
from bibench.oracles import (
    claimed_front_tuples,
    grid_instances,
    ojzj_asymptote,
    ojzj_threshold_k,
    ojzr_bound,
    ojzr_within_bound,
    oracle_front,
    oracle_local_optima,
    oracle_pareto_set,
    ratio_ojzj,
    ratio_ojzr,
    reference_front,
    render_verification,
    verify,
)
from bibench.problems import FAMILY_NAMES, parse_descriptor, validate

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


class TestOracleSetsMatchEnumeration:
    @pytest.mark.parametrize("descriptor", EIGHT_BIT_DESCRIPTORS)
    def test_pareto_set(self, descriptor):
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        assert oracle_pareto_set(inst) == report.pareto_set

    @pytest.mark.parametrize("descriptor", EIGHT_BIT_DESCRIPTORS)
    def test_local_optima(self, descriptor):
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        assert oracle_local_optima(inst) == report.local_optima

    @pytest.mark.parametrize("descriptor", EIGHT_BIT_DESCRIPTORS)
    def test_front(self, descriptor):
        inst = parse_descriptor(descriptor)
        report = enumerate_landscape(inst)
        assert oracle_front(inst) == tuple(v for v, _ in report.front_counts)

    def test_ojzr_oracle_is_exact_when_blocks_are_shorter_than_the_gap(self):
        for n, k, l in ((12, 4, 3), (12, 5, 3), (12, 5, 4), (8, 3, 2)):
            inst = validate("ojzr", n=n, k=k, l=l)
            report = enumerate_landscape(inst)
            assert oracle_pareto_set(inst) == report.pareto_set
            assert oracle_local_optima(inst) == report.local_optima


class TestRatioOjzj:
    def test_frozen_values(self):
        assert ratio_ojzj(6, 2) == Fraction(13, 16)
        assert ratio_ojzj(8, 2) == Fraction(15, 16)
        assert ratio_ojzj(7, 3) == Fraction(9, 16)
        assert ratio_ojzj(20, 9) == Fraction(260339, 524288)

    def test_matches_enumeration(self):
        for n, k in ((6, 1), (6, 2), (8, 3), (10, 4), (12, 5)):
            inst = validate("ojzj", n=n, k=k)
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
            inst = validate("ojzr", n=n, k=k, l=l)
            assert ratio_ojzr(n, k, l) == enumerate_landscape(inst).ratio

    def test_overcounts_when_blocks_are_longer_than_the_gap(self):
        inst = validate("ojzr", n=6, k=2, l=3)
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
        inst = validate("omm", n=4)
        assert claimed_front_tuples(inst) == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0))

    def test_ojzj_peaks_and_middle(self):
        inst = validate("ojzj", n=8, k=2)
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
        inst = validate("ojzr", n=12, k=3, l=3)
        assert claimed_front_tuples(inst) == ((3, 12), (6, 9), (15, 0))
        assert oracle_front(inst) == ((3, 12), (6, 9), (9, 6), (12, 3), (15, 0))

    def test_matches_oracle_front_outside_ojzr(self):
        for descriptor in EIGHT_BIT_DESCRIPTORS:
            inst = parse_descriptor(descriptor)
            assert claimed_front_tuples(inst) == oracle_front(inst)


class TestReferenceFront:
    def test_ojzr_uses_enumeration(self):
        inst = validate("ojzr", n=6, k=2, l=3)
        assert reference_front(inst) == ((2, 6), (5, 3), (8, 0))
        assert reference_front(inst) != claimed_front_tuples(inst)

    def test_other_families_use_the_closed_form(self):
        inst = validate("omm", n=8)
        assert reference_front(inst) == claimed_front_tuples(inst)

    def test_closed_form_works_beyond_the_enumeration_cap(self):
        inst = validate("lotz", n=32)
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
        report = verify(validate("ojzj", n=8, k=2))
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
        report = verify(validate("lotz", n=6))
        assert [claim.name for claim in report.claims] == [
            "pareto_set",
            "local_optima",
            "claimed_front",
        ]
        assert report.notes == ()

    def test_ojzr_mismatches_are_informational(self):
        report = verify(validate("ojzr", n=6, k=2, l=3))
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
        report = verify(validate("ojzr", n=12, k=3, l=3))
        assert "ratio_formula" not in [claim.name for claim in report.claims]

    def test_counterexamples_show_strings_and_vectors(self):
        report = verify(validate("ojzr", n=6, k=2, l=3))
        by_name = {claim.name: claim for claim in report.claims}
        assert by_name["pareto_set"].counterexamples[0] == (
            "claimed but wrong: 001111 -> (6, 0)"
        )
        assert by_name["local_optima"].counterexamples[0] == (
            "missing from claim: 001111 -> (6, 0)"
        )
        assert len(by_name["pareto_set"].counterexamples) == 5

    def test_counterexample_limit(self):
        report = verify(validate("ojzr", n=6, k=2, l=3), max_counterexamples=2)
        by_name = {claim.name: claim for claim in report.claims}
        assert len(by_name["pareto_set"].counterexamples) == 2

    def test_counterexample_limit_is_validated(self):
        inst = validate("ojzr", n=6, k=2, l=3)
        for bad in (-1, True, 2.0, "2", None):
            with pytest.raises(ValidationError):
                verify(inst, max_counterexamples=bad)
        report = verify(inst, max_counterexamples=0)
        assert all(claim.counterexamples == () for claim in report.claims)

    def test_whole_grid_must_match(self):
        for inst in grid_instances(n_values=(6, 8)):
            assert verify(inst).must_match_ok, inst.descriptor


class TestRenderVerification:
    def test_golden_lotz(self):
        text = render_verification(verify(validate("lotz", n=6)))
        assert text == (
            "lotz:n=6\n"
            "  pareto_set: match (must-match) claimed=7 actual=7\n"
            "  local_optima: match (must-match) claimed=0 actual=0\n"
            "  claimed_front: match (must-match) claimed=7 actual=7\n"
        )

    def test_golden_ojzj(self):
        text = render_verification(verify(validate("ojzj", n=8, k=2)))
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
        text = render_verification(verify(validate("ojzr", n=6, k=2, l=3)))
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
                            expected.append(validate(family, n, k, l))
                        except ValidationError:
                            pass
        assert grid_instances(n_values=range(1, 23)) == expected
        assert len(expected) == 816


class TestCaps:
    def test_oracle_sets_respect_the_cap(self):
        with pytest.raises(EnumerationCapError):
            oracle_pareto_set(validate("omm", n=30))

    def test_explicit_cap_override(self):
        # The closed-form set for lotz is tiny, so a raised cap is safe here.
        assert len(oracle_pareto_set(validate("lotz", n=26), cap=26)) == 27
