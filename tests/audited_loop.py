"""The plain SEMO/GSEMO step loop, audited on every archive change.

Every child is evaluated and offered to the archive, which is scanned in
full each time. After every archive change the loop asserts the two
invariants that let bibench.evolve.run skip work: the archive is mutually
non-dominated, and every vector offered so far is weakly dominated by a held
vector. run() must return what this loop returns, draw for draw.
"""

import math
import random

from bibench.bitstring import BitString
from bibench.dominance import dominates, weakly_dominates
from bibench.evolve import RunResult
from bibench.oracles import reference_front
from bibench.problems import index_evaluator


def audit(held, offered):
    """Assert that the held vectors are mutually non-dominated and that each
    offered vector is weakly dominated by a held one."""
    for i, a in enumerate(held):
        for j, b in enumerate(held):
            assert i == j or not weakly_dominates(a, b), f"archive invariant violated: {a} vs {b}"
    for vec in offered:
        assert any(
            weakly_dominates(h, vec) for h in held
        ), f"offered vector {vec} is not weakly dominated by the archive"


def _rand_below(rng, bound):
    bits = (bound - 1).bit_length()
    if bound == 1:
        return 0
    while True:
        value = rng.getrandbits(bits)
        if value < bound:
            return value


def audited_run(cfg):
    """The RunResult that run(cfg) must return, from the plain loop."""
    n = cfg.instance.n
    ev = index_evaluator(cfg.instance)
    # The front vectors equal to the named one, or all of them if none is named.
    wanted = {v for v in reference_front(cfg.instance) if cfg.target.vector in (None, v)}
    needed = math.ceil(cfg.target.fraction * len(wanted))
    rng = random.Random(cfg.seed)
    archive = []
    offered = set()
    have = 0

    def consider(idx, vec):
        nonlocal have
        offered.add(vec)
        for _, held in archive:
            if weakly_dominates(held, vec):
                return
        archive[:] = [(i, v) for i, v in archive if not dominates(vec, v)]
        archive.append((idx, vec))
        have += vec in wanted
        audit([v for _, v in archive], offered)

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
    return RunResult(cfg, hitting_time is not None, hitting_time, evaluations, final)
