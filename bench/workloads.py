"""What each benchmark workload runs, and how its outputs are checked.

Shared by worker.py, which times one repetition, and freeze.py, which writes
the expected outputs to expected.json. Importing this module imports
bibench, so the caller puts the checkout's ``src`` directory on ``sys.path``
first.

Every operation goes through ``call(name, fn, *args)``, which is a plain
call in an untimed or untraced repetition and a span in a traced one, so the
traced and untraced runs execute the same library calls in the same order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from bibench.evolve import RunConfig, run
from bibench.landscape import (
    characteristic_profile,
    enumerate_landscape,
    render_report,
    summary_line,
)
from bibench.oracles import (
    DEFAULT_GRID_SIZES,
    grid_instances,
    reference_front,
    render_verification,
    verify,
)
from bibench.problems import ProblemInstance, evaluate, parse_descriptor

# The seed whose outputs expected.json freezes exactly; every other seed is
# checked by invariants only.
DEFAULT_SEED = 0
SEARCH_BUDGET = 10**7
# Search repetition r of workload seed s runs seed block s * REP_STRIDE + r,
# so the repetitions of a run time distinct seeds; a run never makes
# REP_STRIDE repetitions.
REP_STRIDE = 1000

# verify-grid: the paper's one-command check; many small cubes, so oracle
#   work and per-instance overhead dominate, and the 191 instances churn the
#   report cache.
# landscape-dense: a Pareto set of 260,170 of 2^18 strings, so Pareto-set
#   materialisation, component counting and memory dominate.
# landscape-sparse: Pareto sets of 19 and 223 strings over 18 and 16 levels,
#   and 31,644 local optima; evaluation, sorting, the local-optimum scan and
#   the symmetry check dominate, and component counting is trivial.
# search: seeded GSEMO; enumeration is bypassed because the reference fronts
#   are closed forms.
# The landscape instances use n=18, not 20: the per-string code is the same,
# and a repetition of a few seconds can be repeated several times in a run,
# whose median time is then steady on a shared host.
SPECS = {
    "verify-grid": {"kind": "verify", "grid": DEFAULT_GRID_SIZES},
    "landscape-dense": {"kind": "landscape", "instances": ("ojzj:n=18,k=4",)},
    "landscape-sparse": {
        "kind": "landscape",
        "instances": ("lotz:n=18", "ojzr:n=18,k=7,l=3"),
    },
    "search": {
        "kind": "search",
        "instances": ("ojzj:n=12,k=3", "lotz:n=30"),
        "seeds": 64,
    },
}

# The same workloads at n <= 10 with 3 search seeds; they finish in seconds
# and exercise every code path of the full ones.
SMOKE_SPECS = {
    "verify-grid": {"kind": "verify", "grid": (6, 8, 10)},
    "landscape-dense": {"kind": "landscape", "instances": ("ojzj:n=10,k=2",)},
    "landscape-sparse": {
        "kind": "landscape",
        "instances": ("lotz:n=10", "ojzr:n=10,k=3,l=2"),
    },
    "search": {"kind": "search", "instances": ("ojzj:n=8,k=2", "lotz:n=10"), "seeds": 3},
}

# The library calls run_op and setup make, per workload kind.
PATH_CALLS = {
    "verify": {
        "landscape.enumerate_landscape",
        "oracles.verify",
        "oracles.render_verification",
    },
    "landscape": {
        "landscape.enumerate_landscape",
        "landscape.characteristic_profile",
        "landscape.render_report",
        "landscape.summary_line",
    },
    "search": {"oracles.reference_front", "evolve.run"},
}

# Unit of `throughput` per workload kind.
WORK_UNITS = {"verify": "instances", "landscape": "strings", "search": "evaluations"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    instances: tuple[ProblemInstance, ...]
    seeds: int = 0

    def operations(self, seed: int, rep: int) -> list[tuple[str, object]]:
        """(op id, argument) pairs of one repetition, in execution order."""
        if self.kind != "search":
            return [(inst.descriptor, inst) for inst in self.instances]
        first = (seed * REP_STRIDE + rep) * self.seeds + 1
        return [
            (f"{inst.descriptor}#{s}", RunConfig("gsemo", inst, s, SEARCH_BUDGET))
            for inst in self.instances
            for s in range(first, first + self.seeds)
        ]


def build(name: str, smoke: bool) -> Workload:
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    if spec["kind"] == "verify":
        instances = grid_instances(None, spec["grid"])
    else:
        instances = [parse_descriptor(d) for d in spec["instances"]]
    return Workload(name, spec["kind"], tuple(instances), spec.get("seeds", 0))


def setup(wl: Workload, call) -> dict[str, tuple]:
    """Work done once before the measured phase: the search targets."""
    if wl.kind != "search":
        return {}
    return {
        inst.descriptor: call("oracles.reference_front", reference_front, inst)
        for inst in wl.instances
    }


def plain_call(name, fn, *args):
    """The `call` of an untraced repetition."""
    return fn(*args)


def run_op(kind: str, arg, call):
    """One operation; its output is what check() inspects."""
    if kind == "verify":
        # verify() would enumerate anyway; calling enumerate_landscape first
        # lets the traced run time enumeration and the closed forms apart.
        call("landscape.enumerate_landscape", enumerate_landscape, arg)
        report = call("oracles.verify", verify, arg)
        text = call("oracles.render_verification", render_verification, report)
        mismatch = any(not c.matched for c in report.claims)
        return text, report.must_match_ok, mismatch
    if kind == "landscape":
        report = call("landscape.enumerate_landscape", enumerate_landscape, arg)
        profile = call("landscape.characteristic_profile", characteristic_profile, arg)
        text = call("landscape.render_report", render_report, report)
        line = call("landscape.summary_line", summary_line, report)
        return line, len(report.levels), list(profile.flags), text
    return call("evolve.run", run, arg)


def work(kind: str, arg, output) -> int:
    """Units of `throughput` one operation contributes."""
    if kind == "verify":
        return 1
    if kind == "landscape":
        return 1 << arg.n
    return output.evaluations_used


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(kind: str, output):
    """JSON-ready summary of an output, as frozen in expected.json."""
    if kind == "verify":
        text, ok, mismatch = output
        return {"sha256": digest(text), "must_match_ok": ok, "mismatch": mismatch}
    if kind == "landscape":
        line, levels, flags, text = output
        return {"summary": line, "levels": levels, "flags": flags, "report_sha256": digest(text)}
    archive = ";".join(f"{x}:{v[0]},{v[1]}" for x, v in output.archive)
    return [output.hit, output.hitting_time, output.evaluations_used, digest(archive)]


def verify_summary(outputs) -> dict[str, str]:
    """The `bibench verify` summary line and a digest of its per-instance text."""
    failures = sum(1 for _, ok, _ in outputs if not ok)
    informational = sum(1 for _, ok, mismatch in outputs if ok and mismatch)
    return {
        "summary": f"instances={len(outputs)} must_match_failures={failures}"
        f" informational_mismatches={informational}",
        "text_sha256": digest("".join(text for text, _, _ in outputs)),
    }


def search_invariants(cfg: RunConfig, result, front) -> str | None:
    """What must hold for any seed: the budget, a mutually non-dominated
    archive of correctly evaluated strings, and a hit exactly when the whole
    reference front is held."""
    if result.evaluations_used > cfg.budget:
        return f"evaluations_used {result.evaluations_used} exceeds the budget"
    vectors = [v for _, v in result.archive]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j and a[0] >= b[0] and a[1] >= b[1]:
                return f"archive holds {a} and {b}, which do not mutually non-dominate"
    for x, v in result.archive:
        if evaluate(cfg.instance, x) != v:
            return f"archive maps {x} to {v}"
    if result.hit != set(front).issubset(vectors):
        return f"hit={result.hit} disagrees with the archive's front coverage"
    if result.hit and result.hitting_time != result.evaluations_used:
        return "hitting_time differs from evaluations_used"
    if not result.hit and result.evaluations_used != cfg.budget:
        return "a run that missed stopped before its budget"
    return None


def check(wl: Workload, seed: int, op_id: str, arg, output, expected, fronts) -> str | None:
    """None when the output is correct, else the reason it is not."""
    found = fingerprint(wl.kind, output)
    if wl.kind == "search":
        problem = search_invariants(arg, output, fronts[arg.instance.descriptor])
        if problem:
            return problem
        if seed != DEFAULT_SEED:
            return None
        want = expected["runs"].get(op_id)
        if want is None:
            return None
    else:
        want = expected["outputs"].get(op_id)
    if found != want:
        return f"output {found} differs from the expected {want}"
    return None
