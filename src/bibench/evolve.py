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
every objective value is in 0..127. tests/audited_loop.py holds that plain
loop; it asserts the archive invariants after every archive change, and the
tests check that run() equals it draw for draw.
"""

from __future__ import annotations

import numbers
import os
import random
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .bitstring import BitString
from .dominance import ObjectiveVector, dominates, weakly_dominates
from .errors import ValidationError
from .oracles import reference_front
from .problems import ProblemInstance, index_evaluator

ALGORITHMS = ("semo", "gsemo")

# Each seed is one run and one output row; the bound is checked before any config is built.
MAX_SEEDS = 100_000


@dataclass(frozen=True)
class Target:
    """Stopping target for a run, checked when built.

    kind "full_front": every Pareto-front vector present in the archive.
    kind "front_point": one named front vector present.
    kind "coverage": at least the given fraction of front vectors present.
    """

    kind: str
    vector: ObjectiveVector | None = None
    fraction: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("full_front", "front_point", "coverage"):
            raise ValidationError(f"unknown target kind {self.kind!r}")
        if self.kind == "front_point" and not (
            isinstance(self.vector, tuple)
            and len(self.vector) == 2
            and all(isinstance(c, int) and not isinstance(c, bool) for c in self.vector)
        ):
            raise ValidationError(f"front point must be two ints, got {self.vector!r}")
        if self.kind == "coverage" and (
            isinstance(self.fraction, bool)
            or not isinstance(self.fraction, numbers.Rational)
            or not 0 < self.fraction <= 1
        ):
            raise ValidationError(f"coverage fraction must be in (0, 1], got {self.fraction!r}")
        if (self.vector is not None) + (self.fraction is not None) > (self.kind != "full_front"):
            raise ValidationError(f"a {self.kind} target sets only its own field, got {self!r}")

    @classmethod
    def full_front(cls) -> "Target":
        return cls("full_front")

    @classmethod
    def front_point(cls, vector: ObjectiveVector) -> "Target":
        return cls("front_point", vector=tuple(vector) if isinstance(vector, Sequence) else vector)

    @classmethod
    def coverage(cls, fraction) -> "Target":
        """Target a fraction in (0, 1], given as an int, a Fraction or a float."""
        # Floats in (0, 1] go through str() so 0.95 means the decimal 95/100, not
        # the binary double above it; anything else, NaN included, is left to the check.
        if isinstance(fraction, float) and 0 < fraction <= 1:
            fraction = Fraction(str(fraction))
        return cls("coverage", fraction=fraction)


@dataclass(frozen=True)
class RunConfig:
    """One seeded run, checked when built."""

    algorithm: str
    instance: ProblemInstance
    seed: int
    budget: int
    target: Target = Target.full_front()

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not isinstance(self.instance, ProblemInstance):
            raise ValidationError(f"instance must be a ProblemInstance, got {self.instance!r}")
        if not isinstance(self.target, Target):
            raise ValidationError(f"target must be a Target, got {self.target!r}")
        if not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget < 1:
            raise ValidationError(f"budget must be a positive int, got {self.budget!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            # random.Random seeds with |seed|: seed -5 would repeat seed 5's run.
            raise ValidationError(f"seed must be a non-negative int, got {self.seed!r}")


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    hit: bool
    hitting_time: int | None
    evaluations_used: int
    archive: tuple[tuple[BitString, ObjectiveVector], ...]


def _resolve_target(cfg: RunConfig) -> tuple[set[ObjectiveVector], int]:
    """The front vectors that count toward the config's target, and how many
    of them the archive must hold. Raises ValidationError for a front point
    that is not on the front."""
    inst, target = cfg.instance, cfg.target
    front = set(reference_front(inst))
    if target.kind == "front_point":
        if target.vector not in front:
            raise ValidationError(
                f"target vector {target.vector} is not on the Pareto front of {inst.descriptor}"
            )
        return {target.vector}, 1
    if target.kind == "coverage":
        return front, -(-target.fraction.numerator * len(front) // target.fraction.denominator)
    return front, len(front)


def run(cfg: RunConfig) -> RunResult:
    """Execute one seeded run until the target is hit or the budget is spent."""
    inst = cfg.instance
    n = inst.n
    ev = index_evaluator(inst)
    wanted, needed = _resolve_target(cfg)

    rng = random.Random(cfg.seed)
    getrandbits = rng.getrandbits
    rand = rng.random
    gsemo = cfg.algorithm == "gsemo"
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
            if hit:
                break

    final = tuple(
        (BitString(n, idx), vec) for idx, vec in sorted(archive, key=lambda item: item[1])
    )
    return RunResult(cfg, hit, hitting_time, evaluations, final)


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

    Runs are independent; with threads > 1 they execute in worker processes,
    each sent its share of runs in about four chunks, as multiprocessing's
    Pool.map does. Results are collected in seed order either way, so the
    outcome does not depend on the degree of parallelism. More than
    MAX_SEEDS seeds, a bad thread count and a front point off the front are
    rejected before any run config is built.
    """
    seeds = list(islice(seeds, MAX_SEEDS + 1))
    if not seeds:
        raise ValidationError("experiment needs at least one seed")
    if len(seeds) > MAX_SEEDS:
        raise ValidationError(f"at most {MAX_SEEDS} seeds per experiment, got more")
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ValidationError(f"threads must be a positive integer, got {threads!r}")
    _resolve_target(template)
    configs = [replace(template, seed=seed) for seed in seeds]
    # A pool starts all its workers up front, so use no more than one per CPU and per run.
    workers = min(threads, os.cpu_count() or 1, len(configs))
    if workers <= 1:
        results = tuple(map(run, configs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(configs) // (4 * workers))
            results = tuple(pool.map(run, configs, chunksize=chunksize))
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
