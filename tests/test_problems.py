"""Family catalog, descriptors, validation bounds, and evaluation parity with
naive.py."""

from unittest import mock

import pytest

import naive
from planes import objective_planes
from bibench import problems
from bibench.bitstring import MAX_LENGTH, BitString
from bibench.errors import DescriptorError, ValidationError
from bibench.oracles import grid_instances
from bibench.problems import (
    FAMILY_NAMES,
    OBJECTIVES,
    STATISTICS,
    ProblemInstance,
    _step_tables,
    _where,
    evaluate,
    family_catalog,
    index_evaluator,
    parse_descriptor,
)


class TestCatalog:
    def test_eleven_families_in_order(self):
        assert FAMILY_NAMES == (
            "omm",
            "lotz",
            "ojzj",
            "cocz",
            "orzr",
            "omtz",
            "omzj",
            "omzr",
            "lozj",
            "lozr",
            "ojzr",
        )
        assert tuple(naive.FAMILIES) == FAMILY_NAMES

    def test_parameter_requirements(self):
        params = {info.name: info.params for info in family_catalog()}
        assert params["omm"] == ()
        assert params["ojzj"] == ("k",)
        assert params["orzr"] == ("l",)
        assert params["ojzr"] == ("k", "l")

    def test_families_use_every_scalar_objective(self):
        used = {name for info in family_catalog() for name in info.objectives}
        assert used == set(OBJECTIVES)
        assert {statistic for statistic, _ in OBJECTIVES.values()} == set(STATISTICS)
        assert [info.name for info in family_catalog() if not info.exact] == ["ojzr"]


class TestDescriptors:
    @pytest.mark.parametrize(
        "text",
        ["omm:n=8", "lotz:n=10", "ojzj:n=8,k=2", "orzr:n=8,l=4", "ojzr:n=12,k=5,l=3"],
    )
    def test_round_trip(self, text):
        inst = parse_descriptor(text)
        assert inst.descriptor == text
        assert parse_descriptor(inst.descriptor) == inst

    def test_case_insensitive(self):
        assert parse_descriptor("OJZR:N=12,K=5,L=3") == ProblemInstance("ojzr", 12, k=5, l=3)

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            parse_descriptor("ommx:n=8")

    def test_duplicate_key(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("omm:n=8,n=9")

    def test_bad_value(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("omm:n=eight")

    def test_missing_n(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("omm:k=2")

    def test_missing_colon(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("omm")

    def test_unknown_key(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("omm:n=8,m=2")


class TestValidation:
    def test_n_bounds(self):
        with pytest.raises(ValidationError):
            ProblemInstance("omm", 0)
        with pytest.raises(ValidationError):
            ProblemInstance("omm", 64)
        assert ProblemInstance("omm", 63).n == 63
        with pytest.raises(ValidationError, match=r"n must be in \[1, 63\] \(got n=None\)"):
            ProblemInstance("omm", None)

    def test_param_presence_is_exact(self):
        with pytest.raises(ValidationError):
            ProblemInstance("omm", 8, k=2)
        with pytest.raises(ValidationError):
            ProblemInstance("ojzj", 8)
        with pytest.raises(ValidationError):
            ProblemInstance("ojzr", 8, k=3)
        with pytest.raises(ValidationError):
            ProblemInstance("ojzr", 8, l=2)
        with pytest.raises(ValidationError):
            ProblemInstance("omm", 8, k=3)

    def test_cocz_needs_even_n(self):
        with pytest.raises(ValidationError):
            ProblemInstance("cocz", 7)
        assert ProblemInstance("cocz", 8).family == "cocz"

    def test_ojzj_gap_bounds(self):
        assert ProblemInstance("ojzj", 8, k=1).k == 1
        assert ProblemInstance("ojzj", 8, k=3).k == 3
        with pytest.raises(ValidationError):
            ProblemInstance("ojzj", 8, k=0)
        with pytest.raises(ValidationError):
            ProblemInstance("ojzj", 8, k=4)

    @pytest.mark.parametrize("family", ["omzj", "lozj"])
    def test_mixed_jump_needs_k_above_one(self, family):
        assert ProblemInstance(family, 8, k=2).k == 2
        with pytest.raises(ValidationError):
            ProblemInstance(family, 8, k=1)
        with pytest.raises(ValidationError):
            ProblemInstance(family, 8, k=4)

    def test_ojzr_admits_k_equal_n_halves(self):
        assert ProblemInstance("ojzr", 12, k=6, l=3).k == 6
        with pytest.raises(ValidationError):
            ProblemInstance("ojzr", 12, k=7, l=3)
        with pytest.raises(ValidationError):
            ProblemInstance("ojzr", 12, k=1, l=3)

    @pytest.mark.parametrize("family", ["orzr", "omzr", "lozr"])
    def test_royal_block_divisibility(self, family):
        assert ProblemInstance(family, 8, l=4).l == 4
        assert ProblemInstance(family, 8, l=1).l == 1
        with pytest.raises(ValidationError):
            ProblemInstance(family, 8, l=3)
        with pytest.raises(ValidationError):
            ProblemInstance(family, 8, l=8)
        with pytest.raises(ValidationError):
            ProblemInstance(family, 8, l=0)
        divisor = r"l must be a positive divisor of n \(got n=10, l=3\)"
        with pytest.raises(ValidationError, match=divisor):
            ProblemInstance(family, 10, l=3)
        with pytest.raises(ValidationError, match="l must be a positive divisor of n"):
            ProblemInstance(family, 12, l=5)

    def test_non_integer_parameters(self):
        with pytest.raises(ValidationError):
            ProblemInstance("ojzj", 8, k="2")
        with pytest.raises(ValidationError):
            ProblemInstance("omm", True)

    @pytest.mark.parametrize("family", ["nope", 5, None, "OMM"])
    def test_unknown_family_names_the_valid_ones(self, family):
        valid = "valid: omm, lotz, ojzj, cocz, orzr, omtz, omzj, omzr, lozj, lozr, ojzr"
        with pytest.raises(ValidationError, match=f"^unknown family {family!r}; {valid}$"):
            ProblemInstance(family, 4)


EIGHT_BIT_INSTANCES = [
    ProblemInstance("omm", 8),
    ProblemInstance("lotz", 8),
    ProblemInstance("ojzj", 8, k=1),
    ProblemInstance("ojzj", 8, k=2),
    ProblemInstance("ojzj", 8, k=3),
    ProblemInstance("cocz", 8),
    ProblemInstance("orzr", 8, l=1),
    ProblemInstance("orzr", 8, l=2),
    ProblemInstance("orzr", 8, l=4),
    ProblemInstance("omtz", 8),
    ProblemInstance("omzj", 8, k=2),
    ProblemInstance("omzj", 8, k=3),
    ProblemInstance("omzr", 8, l=2),
    ProblemInstance("omzr", 8, l=4),
    ProblemInstance("lozj", 8, k=2),
    ProblemInstance("lozj", 8, k=3),
    ProblemInstance("lozr", 8, l=2),
    ProblemInstance("lozr", 8, l=4),
    ProblemInstance("ojzr", 8, k=2, l=2),
    ProblemInstance("ojzr", 8, k=3, l=2),
    ProblemInstance("ojzr", 8, k=4, l=2),
    ProblemInstance("ojzr", 8, k=3, l=4),
]


class TestEvaluation:
    def test_frozen_examples(self):
        cases = [
            ("lotz:n=8", "11100000", (3, 5)),
            ("omm:n=8", "10110010", (4, 4)),
            ("cocz:n=8", "11110101", (6, 6)),
            ("ojzj:n=8,k=2", "11111111", (10, 2)),
            ("ojzj:n=8,k=2", "11111110", (1, 3)),
            ("orzr:n=8,l=4", "11110000", (4, 4)),
            ("omtz:n=8", "11100100", (4, 2)),
            ("omzj:n=8,k=3", "00000000", (0, 11)),
            ("omzr:n=8,l=2", "11010000", (3, 4)),
            ("lozj:n=8,k=3", "11100000", (3, 8)),
            ("lozr:n=8,l=2", "11001100", (2, 4)),
            ("ojzr:n=12,k=5,l=3", "111111111111", (17, 0)),
            ("ojzr:n=12,k=5,l=3", "111111100000", (12, 3)),
        ]
        for descriptor, text, expected in cases:
            inst = parse_descriptor(descriptor)
            assert evaluate(inst, BitString.from_text(text)) == expected, descriptor

    # Odd lengths and every family and parameter at n = 7, 9, 10 (75 instances).
    @pytest.mark.parametrize(
        "inst", EIGHT_BIT_INSTANCES + grid_instances(None, (7, 9, 10)), ids=lambda i: i.descriptor
    )
    def test_evaluate_matches_naive_exhaustively(self, inst):
        strings = (BitString(inst.n, i) for i in range(1 << inst.n))
        assert [evaluate(inst, x) for x in strings] == naive.vectors(inst)

    def test_value_tables_fit_one_byte(self):
        # Every objective value is at most n + k < 128, so it fits one byte with
        # the top bit free.
        instances = grid_instances(None, range(1, 64))
        assert len(instances) == 7187
        for inst in instances:
            for name in inst.info.objectives:
                table = OBJECTIVES[name][1](inst.n, inst.k, inst.l)
                assert type(table) is list, name
                assert all(0 <= value <= 127 for value in table), inst.descriptor

    @pytest.mark.parametrize("inst", EIGHT_BIT_INSTANCES, ids=lambda i: i.descriptor)
    def test_index_evaluator_agrees_with_evaluate(self, inst):
        fn = index_evaluator(inst)
        for x in (BitString(8, i) for i in range(1 << 8)):
            assert fn(x.index) == evaluate(inst, x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(ProblemInstance("omm", 8), BitString.from_text("101"))

    def test_non_bit_string_rejected(self):
        with pytest.raises(ValidationError, match="x must be a BitString, got '0101'"):
            evaluate(ProblemInstance("omm", 4), "0101")

    def test_instances_are_value_objects(self):
        a = ProblemInstance("ojzr", 12, k=5, l=3)
        b = ProblemInstance("ojzr", 12, 5, 3)
        assert a == b and hash(a) == hash(b)


def block_lengths(name, n):
    """Block statistics take every block length dividing n, the others none."""
    return [l for l in range(1, n + 1) if n % l == 0] if "blocks" in name else [None]


class TestPlanes:
    """The byte-plane form of each statistic and objective, built from the
    statistic's automaton, against the index-level form."""

    def test_every_statistic_has_a_plane(self):
        # Objectives share step tables across block lengths through the
        # record's reads_l (_objective_tables): a statistic that does not
        # read l builds the same tables at every block length, and a block
        # statistic builds tables of its own for each.
        for name, record in STATISTICS.items():
            for n in range(1, 13):
                divisors = [l for l in range(1, n + 1) if n % l == 0]
                tables = {l: _step_tables(record.automaton, n, l) for l in divisors}
                if record.reads_l:
                    assert len(set(tables.values())) == len(divisors), (name, n)
                else:
                    assert set(tables.values()) == {tables[1]}, (name, n)
                    assert _step_tables(record.automaton, n, None) == tables[1], (name, n)

    @pytest.mark.parametrize("name", list(STATISTICS))
    def test_statistic_planes_match_the_index_form(self, name):
        # The plane as the set of indices at each value, the form the closed
        # forms read (_where). Sets over 8 and 16 indices split every cube
        # from n = 4 and n = 5 into blocks; at the default span none of these
        # cubes is split.
        for n in range(1, 13):
            for l in block_lengths(name, n):
                statistic = STATISTICS[name].index(n, l)
                expected = [0] * (n + 1)
                for i in range(1 << n):
                    expected[statistic(i)] |= 1 << i
                for set_bits in (3, 4, problems._SET_BITS):
                    with mock.patch.object(problems, "_SET_BITS", set_bits):
                        for v, indices in enumerate(expected):
                            mark = _where(STATISTICS[name].automaton, n, l, (v,))
                            assert mark == indices, (name, n, l, v, set_bits)

    @pytest.mark.parametrize("name", list(STATISTICS))
    def test_automaton_states_fit_a_byte(self, name):
        # Every state reachable after each index bit, up to the longest
        # string, since symmetry, separability and the image run the
        # automata at every length. After the last bit the states are the
        # statistic's values: 0 to n, or to the number of blocks.
        for n in range(1, MAX_LENGTH + 1):
            for l in block_lengths(name, n):
                step = STATISTICS[name].automaton(n, l)
                states = {0}
                for m in range(n):
                    states = {step(s, bit, m) for s in states for bit in (0, 1)}
                    assert max(states) < 256, (name, n, l, m)
                assert states == set(range((n // l if l else n) + 1)), (name, n, l)

    def test_objective_planes_match_index_evaluator(self):
        instances = grid_instances(None, range(1, 13))
        assert len(instances) == 248
        for inst in instances:
            ev = index_evaluator(inst)
            f1, f2 = objective_planes(inst)
            assert list(zip(f1, f2)) == [ev(i) for i in range(1 << inst.n)], inst.descriptor
