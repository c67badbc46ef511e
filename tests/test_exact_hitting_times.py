"""Exact expected hitting times of SEMO and GSEMO on tiny instances, against
the mean of seeded runs.

For n <= 6 the archive is the state of a finite Markov chain. A step picks a
parent uniformly from the archive, draws a child with the mutation's exact
probabilities (one uniform bit flip for SEMO, each bit flipped with
probability 1/n for GSEMO) and offers it by the archive rule. The chain
stops once the archive holds the target's count of wanted front vectors;
E[T] is the expected number of steps to stop from a uniform start, plus one
for the start's evaluation. The chain uses only naive.py and its own rules,
none of the code of run or the audited loop, so a bias that both share (in
parent sampling, mutation or the stopping rule) shows as a gap between E[T]
and the seeded mean.

Every accepted child enlarges the set of vectors the archive weakly
dominates, so the chain has no cycle apart from its self-loops, and each
archive's expected steps follow from its successors' (Kemeny & Snell,
Finite Markov Chains, 1960):
h(A) = (1 + sum over B != A of P(A, B) h(B)) / (1 - P(A, A)).
"""

import math
import statistics
from fractions import Fraction

import naive
import pytest

from bibench.evolve import RunConfig, Target, run
from bibench.problems import parse_descriptor


def weakly_dominates(a, b):
    return a[0] >= b[0] and a[1] >= b[1]


def offer(archive, child, vecs):
    """The archive after offering child: rejected if a member weakly dominates
    it, else added in place of the members it dominates."""
    vec = vecs[child]
    if any(weakly_dominates(vecs[i], vec) for i in archive):
        return archive
    return frozenset([i for i in archive if not naive.dominates(vec, vecs[i])] + [child])


def exact_hitting_time(algorithm, inst, wanted, needed):
    """E[T] of the chain that stops once the archive holds `needed` vectors of
    `wanted`, or of the Pareto front when `wanted` is None."""
    n = inst.n
    vecs = naive.vectors(inst)
    if wanted is None:
        wanted = {vecs[i] for i in naive.pareto_set(vecs)}
    # More than the wanted vectors would never stop the chain.
    assert needed <= len(wanted)
    p = 1 / n
    if algorithm == "semo":
        moves = [(1 << b, p) for b in range(n)]
    else:
        moves = [(m, p ** m.bit_count() * (1 - p) ** (n - m.bit_count())) for m in range(1 << n)]
    steps = {}

    def expected_steps(archive):
        if sum(vecs[i] in wanted for i in archive) >= needed:
            return 0.0
        if archive not in steps:
            stay, total = 0.0, 1.0
            for parent in archive:
                for mask, chance in moves:
                    chance /= len(archive)
                    after = offer(archive, parent ^ mask, vecs)
                    if after == archive:
                        stay += chance
                    else:
                        total += chance * expected_steps(after)
            steps[archive] = total / (1 - stay)
        return steps[archive]

    return 1 + statistics.fmean(expected_steps(frozenset([s])) for s in range(1 << n))


# (algorithm, descriptor, target, wanted vectors or None for the front, how
# many of them stop a run, E[T] to two places as an earlier, separately
# written chain gave it). The front vectors: lotz and omm n + 1, ojzj:n=5,k=2
# four.
CASES = [
    ("semo", "lotz:n=4", Target.full_front(), None, 5, 39.23),
    ("semo", "lotz:n=5", Target.full_front(), None, 6, 71.06),
    ("semo", "omm:n=5", Target.full_front(), None, 6, 44.50),
    ("gsemo", "lotz:n=4", Target.full_front(), None, 5, 48.97),
    ("gsemo", "ojzj:n=5,k=2", Target.full_front(), None, 4, 153.00),
    ("gsemo", "lotz:n=4", Target.front_point((4, 0)), {(4, 0)}, 1, None),
    ("gsemo", "lotz:n=4", Target.coverage(Fraction(1, 2)), None, 3, None),
]
IDS = [
    "semo-lotz:n=4", "semo-lotz:n=5", "semo-omm:n=5", "gsemo-lotz:n=4", "gsemo-ojzj:n=5,k=2",
    "gsemo-lotz:n=4-front_point=4,0", "gsemo-lotz:n=4-coverage=1/2",
]
# Fixed before any of these runs was looked at; the seeded mean must lie
# within 4 standard errors of E[T].
SEEDS = range(10_000, 14_000)


@pytest.mark.parametrize("algorithm, descriptor, target, wanted, needed, rounded", CASES, ids=IDS)
def test_seeded_mean_hitting_time_is_the_exact_one(
    algorithm, descriptor, target, wanted, needed, rounded
):
    inst = parse_descriptor(descriptor)
    exact = exact_hitting_time(algorithm, inst, wanted, needed)
    if rounded is not None:
        assert round(exact, 2) == rounded
    results = [run(RunConfig(algorithm, inst, seed, 10**6, target)) for seed in SEEDS]
    assert all(result.hit for result in results)
    times = [result.hitting_time for result in results]
    error = statistics.stdev(times) / math.sqrt(len(times))
    mean = statistics.fmean(times)
    assert abs(mean - exact) <= 4 * error, (exact, mean, error)
