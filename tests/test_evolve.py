"""Tests for the SEMO/GSEMO archive search and the experiment harness."""

import os
import random
from fractions import Fraction

import pytest

from bibench.bitstring import BitString
from bibench.dominance import dominates, weakly_dominates
from bibench.errors import ValidationError
from bibench.evolve import (
    ALGORITHMS,
    RunConfig,
    Target,
    _check_step,
    _needed_count,
    hitting_time_experiment,
    render_experiment,
    run,
    worker_count,
)
from bibench.oracles import reference_front
from bibench.problems import index_evaluator, validate

OMM10 = validate("omm", n=10)
LOTZ8 = validate("lotz", n=8)
OJZJ14 = validate("ojzj", n=14, k=6)


class TestTargets:
    def test_coverage_decimal_fidelity(self):
        assert Target.coverage(0.6).fraction == Fraction(3, 5)
        assert Target.coverage(0.95).fraction == Fraction(19, 20)
        assert Target.coverage(Fraction(1, 3)).fraction == Fraction(1, 3)
        assert Target.coverage(1).fraction == Fraction(1)

    def test_coverage_range(self):
        for bad in (0, 1.5, True, float("nan"), float("inf"), float("-inf"), "0.5", None):
            with pytest.raises(ValidationError):
                Target.coverage(bad)

    def test_front_point_coerces_ints(self):
        assert Target.front_point((3, 5)).vector == (3, 5)

    @pytest.mark.parametrize("vector", [(1.5, 4.9), (3, 5.0), (True, 5), ("3", 5), (3, 5, 0)])
    def test_front_point_needs_two_ints(self, vector):
        with pytest.raises(ValidationError):
            Target.front_point(vector)

    def test_front_point_must_be_on_the_front(self):
        cfg = RunConfig("semo", LOTZ8, seed=1, budget=100, target=Target.front_point((7, 7)))
        with pytest.raises(ValidationError):
            run(cfg)


class TestRunValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            run(RunConfig("nsga2", OMM10, seed=1, budget=100))
        assert ALGORITHMS == ("semo", "gsemo")

    def test_bad_budget(self):
        with pytest.raises(ValidationError):
            run(RunConfig("semo", OMM10, seed=1, budget=0))
        with pytest.raises(ValidationError):
            run(RunConfig("semo", OMM10, seed=1, budget="100"))
        with pytest.raises(ValidationError):
            run(RunConfig("semo", OMM10, seed=1, budget=True))

    @pytest.mark.parametrize("seed", [-5, -1, None, True, False, 1.0, "x"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # random.Random seeds with |seed|, so seed -5 would repeat seed 5's run,
        # and None would draw an unseeded stream.
        with pytest.raises(ValidationError):
            run(RunConfig("gsemo", OMM10, seed=seed, budget=100))

    def test_seed_zero_and_large_seeds_run(self):
        for seed in (0, 2**80):
            assert run(RunConfig("gsemo", OMM10, seed=seed, budget=10)).evaluations_used == 10

    def test_unknown_target_kind(self):
        with pytest.raises(ValidationError):
            run(RunConfig("semo", OMM10, seed=1, budget=100, target=Target("bogus")))


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = RunConfig("gsemo", LOTZ8, seed=123, budget=5000)
        assert run(cfg) == run(cfg)

    def test_frozen_hitting_times(self):
        # Mersenne Twister output is platform independent, so these exact
        # values pin the whole sampling pipeline.
        result = run(RunConfig("semo", OMM10, seed=42, budget=100_000))
        assert result.hit
        assert result.hitting_time == 521
        assert result.evaluations_used == 521
        result = run(RunConfig("gsemo", LOTZ8, seed=7, budget=100_000))
        assert result.hit
        assert result.hitting_time == 742


class TestArchive:
    def test_full_front_hit_holds_every_front_vector(self):
        result = run(RunConfig("semo", OMM10, seed=42, budget=100_000))
        archive_vectors = {vec for _, vec in result.archive}
        assert archive_vectors == set(reference_front(OMM10))
        assert len(result.archive) == 11

    def test_archive_is_mutually_nondominating(self):
        for seed in range(5):
            result = run(
                RunConfig("gsemo", validate("lozr", n=8, l=2), seed=seed, budget=2000)
            )
            vectors = [vec for _, vec in result.archive]
            assert vectors
            for i, a in enumerate(vectors):
                for j, b in enumerate(vectors):
                    assert i == j or not weakly_dominates(a, b)

    def test_internal_invariant_checker_accepts_real_runs(self):
        result = run(
            RunConfig("gsemo", LOTZ8, seed=2, budget=3000, check_archive=True)
        )
        assert result.evaluations_used >= 1

    def test_step_audit_rejects_a_broken_archive(self):
        _check_step([(0, (2, 1)), (1, (1, 2))], (1, 1))
        with pytest.raises(AssertionError, match="archive invariant"):
            _check_step([(0, (2, 1)), (1, (1, 1))], (1, 1))
        # A vector no held vector weakly dominates must not skip the archive.
        with pytest.raises(AssertionError, match="not weakly dominated"):
            _check_step([(0, (2, 1)), (1, (1, 2))], (2, 2))

    def test_archive_members_evaluate_to_their_vector(self):
        from bibench.problems import evaluate

        result = run(RunConfig("semo", LOTZ8, seed=6, budget=3000))
        for x, vec in result.archive:
            assert evaluate(LOTZ8, x) == vec

    def test_archive_sorted_by_vector(self):
        result = run(RunConfig("semo", OMM10, seed=42, budget=100_000))
        vectors = [vec for _, vec in result.archive]
        assert vectors == sorted(vectors)


class TestStopping:
    def test_budget_exhaustion(self):
        result = run(RunConfig("semo", OJZJ14, seed=3, budget=10))
        assert not result.hit
        assert result.hitting_time is None
        assert result.evaluations_used == 10
        assert len(result.archive) >= 1

    def test_hitting_time_counts_evaluations(self):
        result = run(RunConfig("semo", OMM10, seed=42, budget=100_000))
        assert result.hitting_time == result.evaluations_used <= 100_000

    def test_coverage_target(self):
        cfg = RunConfig(
            "semo", LOTZ8, seed=5, budget=100_000, target=Target.coverage(Fraction(1, 2))
        )
        result = run(cfg)
        assert result.hit
        assert result.hitting_time == 101
        front = set(reference_front(LOTZ8))
        assert sum(1 for _, vec in result.archive if vec in front) >= 5

    def test_front_point_target(self):
        cfg = RunConfig(
            "gsemo", LOTZ8, seed=11, budget=100_000, target=Target.front_point((8, 0))
        )
        result = run(cfg)
        assert result.hit
        assert result.hitting_time == 81
        assert any(vec == (8, 0) for _, vec in result.archive)


class TestExperiment:
    def test_needs_seeds(self):
        with pytest.raises(ValidationError):
            hitting_time_experiment(RunConfig("semo", LOTZ8, seed=0, budget=100), seeds=())

    def test_bad_thread_count_rejected_before_any_run(self):
        template = RunConfig("semo", LOTZ8, seed=0, budget=100)
        for bad in (0, -2, True):
            with pytest.raises(ValidationError):
                hitting_time_experiment(template, seeds=(1,), threads=bad)

    def test_worker_count_is_capped_by_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(1, 10) == 1
        assert worker_count(3, 10) == 3
        assert worker_count(10**9, 10) == 4
        assert worker_count(10**9, 2) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(8, 10) == 1
        for bad in (0, -1, True, False, 2.0, "2"):
            with pytest.raises(ValidationError):
                worker_count(bad, 10)

    def test_results_follow_seed_order(self):
        exp = hitting_time_experiment(
            RunConfig("semo", LOTZ8, seed=0, budget=50_000), seeds=(3, 1, 2)
        )
        assert [r.config.seed for r in exp.results] == [3, 1, 2]

    def test_summary_statistics(self):
        exp = hitting_time_experiment(
            RunConfig("semo", LOTZ8, seed=0, budget=50_000), seeds=(1, 2, 3, 4)
        )
        times = [r.hitting_time for r in exp.results]
        assert times == [603, 229, 382, 232]
        assert exp.success_fraction == Fraction(1)
        assert exp.median_hitting_time == (382 + 232) / 2
        assert exp.mean_hitting_time == sum(times) / 4

    def test_all_misses_summarized_as_none(self):
        exp = hitting_time_experiment(
            RunConfig("semo", OJZJ14, seed=0, budget=10), seeds=(1, 2)
        )
        assert exp.success_fraction == Fraction(0)
        assert exp.median_hitting_time is None
        assert exp.mean_hitting_time is None

    def test_threads_do_not_change_results(self):
        template = RunConfig("semo", LOTZ8, seed=0, budget=50_000)
        serial = hitting_time_experiment(template, seeds=(1, 2, 3, 4))
        parallel = hitting_time_experiment(template, seeds=(1, 2, 3, 4), threads=2)
        assert serial.results == parallel.results
        assert serial.success_fraction == parallel.success_fraction

    def test_render_golden(self):
        exp = hitting_time_experiment(
            RunConfig("gsemo", validate("omm", n=4), seed=0, budget=1000), seeds=(1, 2)
        )
        assert render_experiment(exp) == (
            "seed,hit,hitting_time,evaluations_used\n"
            "1,true,36,36\n"
            "2,true,61,61\n"
            "summary: success=2/2 median_hitting_time=48.5 mean_hitting_time=48.5\n"
        )

    def test_render_misses_use_dashes(self):
        exp = hitting_time_experiment(
            RunConfig("semo", OJZJ14, seed=0, budget=10), seeds=(5,)
        )
        text = render_experiment(exp)
        assert "5,false,-,10\n" in text
        assert "success=0/1 median_hitting_time=- mean_hitting_time=-" in text


def _rand_below(rng, bound):
    bits = (bound - 1).bit_length()
    if bound == 1:
        return 0
    while True:
        value = rng.getrandbits(bits)
        if value < bound:
            return value


def _reference_run(cfg):
    """The plain step loop: every child is evaluated and offered to the
    archive, which is scanned in full each time. Returns what run() reports."""
    n = cfg.instance.n
    ev = index_evaluator(cfg.instance)
    front = set(reference_front(cfg.instance))
    wanted = {cfg.target.vector} if cfg.target.kind == "front_point" else front
    needed = _needed_count(cfg.target, len(wanted))
    rng = random.Random(cfg.seed)
    archive = []
    have = 0

    def consider(idx, vec):
        nonlocal have
        for _, held in archive:
            if weakly_dominates(held, vec):
                return
        archive[:] = [(i, v) for i, v in archive if not dominates(vec, v)]
        archive.append((idx, vec))
        have += vec in wanted

    start = rng.getrandbits(n)
    evaluations = 1
    consider(start, ev(start))
    hitting_time = evaluations if have >= needed else None
    while hitting_time is None and evaluations < cfg.budget:
        parent = archive[_rand_below(rng, len(archive))][0]
        if cfg.algorithm == "gsemo":
            child = parent
            for b in range(n):
                if rng.random() < 1.0 / n:
                    child ^= 1 << b
        else:
            child = parent ^ (1 << _rand_below(rng, n))
        evaluations += 1
        consider(child, ev(child))
        if have >= needed:
            hitting_time = evaluations
    final = tuple((BitString(n, i), v) for i, v in sorted(archive, key=lambda item: item[1]))
    return hitting_time is not None, hitting_time, evaluations, final


# One small instance per family, plus n=1, where SEMO's flip position and a
# one-member archive's parent take no random draw.
EQUIVALENCE_INSTANCES = (
    validate("omm", n=1),
    validate("lotz", n=5),
    validate("ojzj", n=7, k=2),
    validate("cocz", n=6),
    validate("orzr", n=6, l=2),
    validate("omtz", n=5),
    validate("omzj", n=8, k=2),
    validate("omzr", n=6, l=3),
    validate("lozj", n=8, k=3),
    validate("lozr", n=6, l=2),
    validate("ojzr", n=6, k=2, l=2),
)


class TestEquivalence:
    """run() skips the archive for vectors it has offered before and children
    equal to their parent; none of that may change a result or a draw."""

    @pytest.mark.parametrize("inst", EQUIVALENCE_INSTANCES, ids=lambda i: i.descriptor)
    def test_matches_the_plain_step_loop(self, inst):
        corner = max(reference_front(inst))
        targets = (Target.full_front(), Target.coverage(Fraction(1, 2)), Target.front_point(corner))
        for algorithm in ALGORITHMS:
            for budget in (1, 2, 7, 300, 20_000):
                for seed in (0, 1, 2):
                    for target in targets:
                        cfg = RunConfig(
                            algorithm, inst, seed, budget, target, check_archive=seed == 1
                        )
                        result = run(cfg)
                        got = (
                            result.hit,
                            result.hitting_time,
                            result.evaluations_used,
                            result.archive,
                        )
                        assert got == _reference_run(cfg), cfg

    def test_search_workload_hitting_times(self):
        # The seed-1 GSEMO runs on the benchmark's search instances, as the
        # plain step loop gives them.
        for family, params, hitting_time in (
            ("ojzj", {"n": 12, "k": 3}, 25075),
            ("lotz", {"n": 30}, 15954),
        ):
            result = run(RunConfig("gsemo", validate(family, **params), 1, 10**7))
            assert (result.hit, result.hitting_time) == (True, hitting_time)
