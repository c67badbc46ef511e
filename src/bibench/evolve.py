"""Baseline Pareto-archive search: SEMO and GSEMO, plus a seeded experiment
harness for hitting-time measurements.

Determinism contract: runs are driven by random.Random (Mersenne Twister),
whose output for a given integer seed is identical across platforms and
Python versions. Bounded integers are drawn by rejection on getrandbits and
per-bit mutation uses random() against 1/n, so no library call with a
version-dependent algorithm is involved. Same config, same seed: bit
identical results everywhere.

Each distinct objective vector meets the archive at most once per run. Once
a vector has been offered, some archive member weakly dominates it for the
rest of the run: the member that rejected it, or the vector itself if it was
accepted, and a member is evicted only by a newcomer that dominates it and so
takes over that role. Offering the vector again would therefore change
nothing, so a child whose vector was offered before skips the archive, and a
child equal to its parent (GSEMO flipping no bit) skips the objective call
too; both still count as evaluations. The skips make no random draw and the
archive changes exactly as before, so results and RNG consumption are those
of offering every child. The seen set holds at most 128^2 vectors, since
every objective value is in 0..127.
"""

from __future__ import annotations

import numbers
import os
import random
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .bitstring import BitString
from .dominance import dominates, weakly_dominates
from .errors import ValidationError
from .oracles import reference_front
from .problems import ObjectiveVector, ProblemInstance, index_evaluator

ALGORITHMS = ("semo", "gsemo")


@dataclass(frozen=True)
class Target:
    """Stopping target for a run.

    kind "full_front": every Pareto-front vector present in the archive.
    kind "front_point": one named front vector present.
    kind "coverage": at least the given fraction of front vectors present.
    """

    kind: str
    vector: ObjectiveVector | None = None
    fraction: Fraction | None = None

    @classmethod
    def full_front(cls) -> "Target":
        return cls("full_front")

    @classmethod
    def front_point(cls, vector: ObjectiveVector) -> "Target":
        if len(vector) != 2 or any(not isinstance(c, int) or isinstance(c, bool) for c in vector):
            raise ValidationError(f"front point must be two ints, got {vector!r}")
        return cls("front_point", vector=tuple(vector))

    @classmethod
    def coverage(cls, fraction) -> "Target":
        """Target a fraction in (0, 1], given as an int, a Fraction or a float."""
        # NaN fails the range test, as does every infinity.
        if (
            isinstance(fraction, bool)
            or not isinstance(fraction, (numbers.Rational, float))
            or not 0 < fraction <= 1
        ):
            raise ValidationError(f"coverage fraction must be in (0, 1], got {fraction!r}")
        # Floats go through str() so 0.95 means the decimal 95/100, not the
        # binary double slightly above it.
        frac = Fraction(str(fraction)) if isinstance(fraction, float) else Fraction(fraction)
        return cls("coverage", fraction=frac)


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    instance: ProblemInstance
    seed: int
    budget: int
    target: Target = Target.full_front()
    check_archive: bool = False


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    hit: bool
    hitting_time: int | None
    evaluations_used: int
    archive: tuple[tuple[BitString, ObjectiveVector], ...]


def _check_step(archive: list[tuple[int, ObjectiveVector]], vec: ObjectiveVector) -> None:
    """Audit after a step: the archive is mutually non-dominated, and some
    held vector weakly dominates the child's vector, which is what lets a
    later child with that vector skip the archive."""
    vectors = [held for _, held in archive]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j and weakly_dominates(a, b):
                raise AssertionError(f"archive invariant violated: {a} vs {b}")
    if not any(weakly_dominates(held, vec) for held in vectors):
        raise AssertionError(f"offered vector {vec} is not weakly dominated by the archive")


def _needed_count(target: Target, front_size: int) -> int:
    if target.kind == "full_front":
        return front_size
    if target.kind == "coverage":
        num = target.fraction.numerator * front_size
        den = target.fraction.denominator
        return -(-num // den)
    return 1


def run(cfg: RunConfig) -> RunResult:
    """Execute one seeded run until the target is hit or the budget is spent."""
    if cfg.algorithm not in ALGORITHMS:
        raise ValidationError(f"algorithm must be one of {ALGORITHMS}, got {cfg.algorithm!r}")
    if not isinstance(cfg.budget, int) or isinstance(cfg.budget, bool) or cfg.budget < 1:
        raise ValidationError(f"budget must be a positive int, got {cfg.budget!r}")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        # random.Random seeds with |seed|, so a negative seed would repeat
        # the run of its absolute value.
        raise ValidationError(f"seed must be a non-negative int, got {cfg.seed!r}")
    if cfg.target.kind not in ("full_front", "front_point", "coverage"):
        raise ValidationError(f"unknown target kind {cfg.target.kind!r}")

    inst = cfg.instance
    n = inst.n
    ev = index_evaluator(inst)
    front = set(reference_front(inst))
    if cfg.target.kind == "front_point":
        if cfg.target.vector not in front:
            raise ValidationError(
                f"target vector {cfg.target.vector} is not on the Pareto front of {inst.descriptor}"
            )
        wanted = {cfg.target.vector}
    else:
        wanted = front
    needed = _needed_count(cfg.target, len(wanted))

    rng = random.Random(cfg.seed)
    getrandbits = rng.getrandbits
    rand = rng.random
    gsemo = cfg.algorithm == "gsemo"
    check = cfg.check_archive
    flip_p = 1.0 / n
    masks = [1 << b for b in range(n)]
    flip_bits = (n - 1).bit_length()

    start = getrandbits(n)
    vec = ev(start)
    archive: list[tuple[int, ObjectiveVector]] = [(start, vec)]
    # Every vector offered to the archive so far; each stays weakly dominated
    # by a held vector for the rest of the run (module docstring).
    seen = {vec}
    parents = [start]
    size = 1
    parent_bits = 0
    have = int(vec in wanted)
    hit = have >= needed
    hitting_time = 1 if hit else None
    evaluations = 1

    if not hit:
        for evaluations in range(2, cfg.budget + 1):
            # Uniform draws below a bound by rejection on getrandbits; a
            # bound of 1 takes getrandbits(0), which consumes no state.
            r = getrandbits(parent_bits)
            while r >= size:
                r = getrandbits(parent_bits)
            parent = parents[r]
            if gsemo:
                child = parent
                for mask in masks:
                    if rand() < flip_p:
                        child ^= mask
            else:
                r = getrandbits(flip_bits)
                while r >= n:
                    r = getrandbits(flip_bits)
                child = parent ^ masks[r]
            if child != parent:
                vec = ev(child)
                if vec not in seen:
                    seen.add(vec)
                    if not any(weakly_dominates(held, vec) for _, held in archive):
                        archive = [(i, v) for i, v in archive if not dominates(vec, v)]
                        archive.append((child, vec))
                        parents = [i for i, _ in archive]
                        size = len(parents)
                        parent_bits = (size - 1).bit_length()
                        if vec in wanted:
                            # Front vectors are globally non-dominated, so once
                            # present they can never be evicted; counting them
                            # is monotone.
                            have += 1
                            if have >= needed:
                                hit = True
                                hitting_time = evaluations
            if check:
                _check_step(archive, ev(child))
            if hit:
                break

    final = tuple(
        (BitString(n, idx), vec) for idx, vec in sorted(archive, key=lambda item: item[1])
    )
    return RunResult(cfg, hit, hitting_time, evaluations, final)


def worker_count(threads: int, tasks: int) -> int:
    """Worker processes for `tasks` jobs: `threads`, capped at one per CPU and
    per task, since a pool starts all its workers up front."""
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ValidationError(f"threads must be a positive integer, got {threads!r}")
    return min(threads, os.cpu_count() or 1, tasks)


def parallel_map(fn, items: Sequence, threads: int) -> list:
    """[fn(item) for item in items], in item order. With threads > 1 the
    calls run in worker processes, which inherit the environment, so the
    enumeration cap set there holds in them too. Like multiprocessing's
    Pool.map, each worker is sent its share of items in about four chunks."""
    workers = worker_count(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


@dataclass(frozen=True)
class ExperimentResult:
    template: RunConfig
    results: tuple[RunResult, ...]
    success_fraction: Fraction
    median_hitting_time: float | int | None
    mean_hitting_time: float | None


def hitting_time_experiment(
    template: RunConfig, seeds: Sequence[int], threads: int = 1
) -> ExperimentResult:
    """Run the template once per seed and summarize the hitting times.

    Runs are independent; with threads > 1 they execute in worker processes.
    Results are collected in seed order either way, so the outcome does not
    depend on the degree of parallelism.
    """
    if not seeds:
        raise ValidationError("experiment needs at least one seed")
    results = tuple(parallel_map(run, [replace(template, seed=seed) for seed in seeds], threads))
    times = [r.hitting_time for r in results if r.hit]
    return ExperimentResult(
        template=template,
        results=results,
        success_fraction=Fraction(len(times), len(results)),
        median_hitting_time=statistics.median(times) if times else None,
        mean_hitting_time=statistics.fmean(times) if times else None,
    )


def render_experiment(experiment: ExperimentResult) -> str:
    """Per-seed rows plus a summary line, stable formatting."""
    lines = ["seed,hit,hitting_time,evaluations_used"]
    for result in experiment.results:
        ht = result.hitting_time if result.hitting_time is not None else "-"
        lines.append(
            f"{result.config.seed},{str(result.hit).lower()},{ht},{result.evaluations_used}"
        )
    hits = sum(result.hit for result in experiment.results)
    median = experiment.median_hitting_time
    mean = experiment.mean_hitting_time
    lines.append(
        f"summary: success={hits}/{len(experiment.results)}"
        f" median_hitting_time={'-' if median is None else median}"
        f" mean_hitting_time={'-' if mean is None else mean}"
    )
    return "\n".join(lines) + "\n"
