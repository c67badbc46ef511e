"""Tests for the SEMO/GSEMO archive search and the experiment harness."""

import concurrent.futures
import dataclasses
import os
from collections import deque
from fractions import Fraction

import naive
import pytest
from audited_loop import audit, audited_run

from bibench import evolve
from bibench.dominance import weakly_dominates
from bibench.errors import ValidationError
from bibench.evolve import (
    ALGORITHMS,
    MAX_SEEDS,
    RunConfig,
    RunResult,
    Target,
    hitting_time_experiment,
    render_experiment,
    run,
)
from bibench.oracles import reference_front
from bibench.problems import ProblemInstance

OMM10 = ProblemInstance("omm", n=10)
LOTZ8 = ProblemInstance("lotz", n=8)
OJZJ14 = ProblemInstance("ojzj", n=14, k=6)


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
        assert Target.front_point([3, 5]).vector == (3, 5)

    @pytest.mark.parametrize(
        "vector", [(1.5, 4.9), (3, 5.0), (True, 5), ("3", 5), (3, 5, 0), 5, None]
    )
    def test_front_point_needs_two_ints(self, vector):
        with pytest.raises(ValidationError, match=r"^front point must be two ints, got "):
            Target.front_point(vector)

    def test_a_target_is_a_vector_and_a_fraction(self):
        assert [field.name for field in dataclasses.fields(Target)] == ["vector", "fraction"]
        assert Target.coverage(1) == Target.full_front() == Target()
        assert hash(Target.coverage(1)) == hash(Target.full_front())
        assert Target.coverage(0.5) == Target(fraction=Fraction(1, 2))
        assert Target.front_point([3, 5]) == Target((3, 5))
        with pytest.raises(ValidationError, match="coverage fraction"):
            Target(fraction=0.5)  # only Target.coverage reads a float as a decimal

    def test_front_point_must_be_on_the_front(self):
        cfg = RunConfig("semo", LOTZ8, seed=1, budget=100, target=Target.front_point((7, 7)))
        with pytest.raises(ValidationError):
            run(cfg)


class TestRunValidation:
    """A RunConfig checks itself when built, so a bad one never reaches run()."""

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            RunConfig("nsga2", OMM10, seed=1, budget=100)
        assert ALGORITHMS == ("semo", "gsemo")

    def test_bad_budget(self):
        with pytest.raises(ValidationError):
            RunConfig("semo", OMM10, seed=1, budget=0)
        with pytest.raises(ValidationError):
            RunConfig("semo", OMM10, seed=1, budget="100")
        with pytest.raises(ValidationError):
            RunConfig("semo", OMM10, seed=1, budget=True)

    @pytest.mark.parametrize("seed", [-5, -1, None, True, False, 1.0, "x"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # random.Random seeds with |seed|, so seed -5 would repeat seed 5's run,
        # and None would draw an unseeded stream.
        with pytest.raises(ValidationError):
            RunConfig("gsemo", OMM10, seed=seed, budget=100)

    def test_seed_zero_and_large_seeds_run(self):
        for seed in (0, 2**80):
            assert run(RunConfig("gsemo", OMM10, seed=seed, budget=10)).evaluations_used == 10

    def test_unknown_target_kind(self):
        with pytest.raises(ValidationError):
            RunConfig("semo", OMM10, seed=1, budget=100, target=Target("bogus"))

    @pytest.mark.parametrize("target", ["full_front", None])
    def test_target_must_be_a_target(self, target):
        with pytest.raises(ValidationError, match="target must be a Target"):
            RunConfig("semo", ProblemInstance("omm", 4), 1, 10, target=target)

    def test_instance_must_be_a_problem_instance(self):
        with pytest.raises(ValidationError, match="instance must be a ProblemInstance"):
            RunConfig("gsemo", "omm:n=4", 1, 10)


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
                RunConfig("gsemo", ProblemInstance("lozr", n=8, l=2), seed=seed, budget=2000)
            )
            vectors = [vec for _, vec in result.archive]
            assert vectors
            for i, a in enumerate(vectors):
                for j, b in enumerate(vectors):
                    assert i == j or not weakly_dominates(a, b)

    def test_audited_loop_accepts_real_runs(self):
        cfg = RunConfig("gsemo", LOTZ8, seed=2, budget=3000)
        assert audited_run(cfg) == run(cfg)

    def test_step_audit_rejects_a_broken_archive(self):
        audit([(2, 1), (1, 2)], [(2, 1), (1, 1), (0, 2)])
        # A dominated member.
        with pytest.raises(AssertionError, match="archive invariant"):
            audit([(2, 1), (1, 1)], [(1, 1)])
        # An offered vector that no held vector weakly dominates would wrongly
        # skip the archive when offered again.
        with pytest.raises(AssertionError, match="not weakly dominated"):
            audit([(2, 1), (1, 2)], [(1, 1), (2, 2)])

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


ORZR_STALL = (
    (ProblemInstance("orzr", n=6, l=2), 64),
    (ProblemInstance("orzr", n=6, l=3), 64),
    (ProblemInstance("orzr", n=8, l=2), 256),
    (ProblemInstance("orzr", n=8, l=4), 256),
    (ProblemInstance("orzr", n=12, l=4), 4096),
)


class TestOrzrStall:
    """SEMO never holds more than one string on orzr with blocks of two or
    more bits: one flip changes one block, so it completes a block or breaks
    one, and never trades one objective for the other. So SEMO hits no
    full-front target there at any budget."""

    @staticmethod
    def reachable_archives(vecs, n):
        """Every archive, a set of indices, that SEMO reaches from a single
        string by a breadth-first search over its steps: any member, any
        one-bit flip, the child offered by the archive rule. Shares no code
        with run."""

        def offer(archive, child):
            v = vecs[child]
            if any(vecs[i][0] >= v[0] and vecs[i][1] >= v[1] for i in archive):
                return archive
            return frozenset(i for i in archive if not naive.dominates(v, vecs[i])) | {child}

        seen = {frozenset([i]) for i in range(1 << n)}
        queue = deque(seen)
        while queue:
            archive = queue.popleft()
            for i in archive:
                for b in range(n):
                    after = offer(archive, i ^ 1 << b)
                    if after not in seen:
                        seen.add(after)
                        queue.append(after)
        return seen

    @pytest.mark.parametrize(
        "inst, count", ORZR_STALL, ids=lambda x: str(getattr(x, "descriptor", x))
    )
    def test_every_reachable_archive_is_one_string(self, inst, count):
        vecs = naive.vectors(inst)
        front = naive.levels(vecs)[0]
        archives = self.reachable_archives(vecs, inst.n)
        assert len(archives) == count
        assert all(len(archive) == 1 for archive in archives)
        assert not any(front <= {vecs[i] for i in archive} for archive in archives)

    @pytest.mark.parametrize("inst", [inst for inst, _ in ORZR_STALL], ids=lambda i: i.descriptor)
    def test_semo_runs_end_on_one_string(self, inst):
        for seed in range(10):
            result = run(RunConfig("semo", inst, seed, budget=2000))
            assert not result.hit, seed
            assert len(result.archive) == 1, seed


class TestExperiment:
    def test_needs_seeds(self):
        with pytest.raises(ValidationError):
            hitting_time_experiment(RunConfig("semo", LOTZ8, seed=0, budget=100), seeds=())

    def test_bad_thread_count_rejected_before_any_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a config, a run or a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
        monkeypatch.setattr(evolve, "replace", fail)
        monkeypatch.setattr(evolve, "run", fail)
        template = RunConfig("semo", LOTZ8, seed=0, budget=100)
        for bad in (0, -1, -2, True, False, 2.0, "2"):
            with pytest.raises(ValidationError, match="^threads must be a positive integer, got "):
                hitting_time_experiment(template, seeds=(1, 2), threads=bad)

    @pytest.mark.parametrize(
        "inst, budget, seeds, target, message",
        [
            (LOTZ8, 0, (1, 2, 3, 4), Target.full_front(), "budget must be a positive int"),
            (LOTZ8, 100, (1, -1, 2, 3), Target.full_front(), "seed must be a non-negative int"),
            (LOTZ8, 100, (1, True, 2, 3), Target.full_front(), "seed must be a non-negative int"),
            (
                ProblemInstance("omm", n=4),
                10,
                (1, 2, 3, 4),
                Target.front_point((9, 9)),
                r"target vector \(9, 9\) is not on the Pareto front of omm:n=4$",
            ),
        ],
        ids=["0-seeds0", "100-seeds1", "100-seeds2", "off-front-target"],
    )
    def test_bad_template_or_seed_starts_no_pool(
        self, monkeypatch, inst, budget, seeds, target, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a run or a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
        monkeypatch.setattr(evolve, "run", fail)
        with pytest.raises(ValidationError, match=f"^{message}"):
            template = RunConfig("semo", inst, seed=0, budget=budget, target=target)
            hitting_time_experiment(template, seeds=seeds, threads=2)

    @pytest.mark.parametrize(
        "seeds",
        [range(MAX_SEEDS + 1), [7] * (MAX_SEEDS + 1), range(10**20)],
        ids=["range", "list", "range-beyond-len"],
    )
    def test_too_many_seeds_start_no_config_run_or_pool(self, monkeypatch, seeds):
        # range(10**20) is too long for len(); building its configs would not end.
        def fail(*args, **kwargs):
            raise AssertionError("a config, a run or a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
        monkeypatch.setattr(evolve, "replace", fail)
        monkeypatch.setattr(evolve, "run", fail)
        template = RunConfig("semo", LOTZ8, seed=0, budget=100)
        with pytest.raises(ValidationError, match=f"^at most {MAX_SEEDS} seeds per experiment"):
            hitting_time_experiment(template, seeds=seeds, threads=2)

    def test_the_seed_bound_admits_max_seeds(self, monkeypatch):
        monkeypatch.setattr(evolve, "run", lambda cfg: RunResult(cfg, False, None, 1, ()))
        template = RunConfig("semo", LOTZ8, seed=0, budget=100)
        exp = hitting_time_experiment(template, seeds=range(MAX_SEEDS))
        assert [r.config.seed for r in exp.results] == list(range(MAX_SEEDS))

    def test_worker_count_is_capped_by_cpus_and_tasks(self, monkeypatch):
        pools = []

        class FakePool:
            # Runs serially in this process and records the pool size asked for.
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize):
                return map(fn, iterable)

        def workers(threads, tasks):
            """The pool size the experiment asks for, or None if it runs serially."""
            pools.clear()
            exp = hitting_time_experiment(template, seeds=range(tasks), threads=threads)
            assert [r.config.seed for r in exp.results] == list(range(tasks))
            return pools[0] if pools else None

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(evolve, "run", lambda cfg: RunResult(cfg, False, None, 1, ()))
        template = RunConfig("semo", LOTZ8, seed=0, budget=100)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert workers(1, 10) is None
        assert workers(3, 10) == 3
        assert workers(10**9, 10) == 4
        assert workers(10**9, 2) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert workers(8, 10) is None

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
            RunConfig("gsemo", ProblemInstance("omm", n=4), seed=0, budget=1000), seeds=(1, 2)
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


# One small instance per family, plus n=1, where SEMO's flip position and a
# one-member archive's parent take no random draw.
EQUIVALENCE_INSTANCES = (
    ProblemInstance("omm", n=1),
    ProblemInstance("lotz", n=5),
    ProblemInstance("ojzj", n=7, k=2),
    ProblemInstance("cocz", n=6),
    ProblemInstance("orzr", n=6, l=2),
    ProblemInstance("omtz", n=5),
    ProblemInstance("omzj", n=8, k=2),
    ProblemInstance("omzr", n=6, l=3),
    ProblemInstance("lozj", n=8, k=3),
    ProblemInstance("lozr", n=6, l=2),
    ProblemInstance("ojzr", n=6, k=2, l=2),
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
                        cfg = RunConfig(algorithm, inst, seed, budget, target)
                        assert run(cfg) == audited_run(cfg), cfg

    def test_search_workload_hitting_times(self):
        # The seed-1 GSEMO runs on the benchmark's search instances, as the
        # plain step loop gives them.
        for family, params, hitting_time in (
            ("ojzj", {"n": 12, "k": 3}, 25075),
            ("lotz", {"n": 30}, 15954),
        ):
            result = run(RunConfig("gsemo", ProblemInstance(family, **params), 1, 10**7))
            assert (result.hit, result.hitting_time) == (True, hitting_time)
