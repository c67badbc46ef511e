"""bibench benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload verify-grid --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --workload search --smoke  # n <= 10, 3 seeds

Workloads and metric names live in BENCHMARK.json at the repository root.
Each repetition of a workload runs in a fresh interpreter (worker.py), one
after another, so there is one single-threaded process under load at a time.

--trace 0 runs REPETITIONS repetitions, scaled by --seconds over the default
run_seconds and at least two, each after one set-up-only start, then
reports the end-to-end metrics. Operation times are scaled to the reference
machine's speed by a kernel sampled while they run (see speed.py), and an
operation that several repetitions run counts with its median scaled time;
the unscaled times are kept in the record file. setup_s is the median
unscaled set-up time.
--trace 1 runs one untraced and one traced repetition and reports the
per-layer metrics; the spans go to .bench_out/spans-<...>.jsonl.
trace.overhead_s is the traced operations' scaled time minus the untraced
ones'.

Every operation's output is checked (see workloads.check). The last line of
stdout is one JSON object: correct, attempted, failed and metrics; the whole
record, with provenance, goes to .bench_out/. Exits non-zero, without that
line, when a repetition cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# Repetitions per run at the default --seconds, sized so that each workload
# measures about that long on a 2-core Xeon at 2.1 GHz. Search repeats more:
# every repetition adds new seeds, and its p50 and p90 move with the seeds.
REPETITIONS = {
    "verify-grid": 2,
    "landscape-dense": 5,
    "landscape-sparse": 6,
    "search": 4,
}
# Every run ends within this many seconds of starting, workers included.
DEADLINE_S = 170


class BenchError(Exception):
    """A repetition could not run, so there is no result to report."""


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--launch", repr(launch)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def measure(base: list[str], count: int, deadline: float):
    """End-to-end metrics over untraced repetitions."""
    setups, reps = [], []
    for rep in range(count):
        setups.append(spawn([*base, "--mode", "setup"], deadline)["setup_s"])
        reps.append(spawn([*base, "--mode", "run", "--rep", str(rep)], deadline))
    op_ms, work = per_op(reps)
    metrics = {
        "throughput": sum(work) / (sum(op_ms) / 1000),
        "op_p50_ms": percentile(op_ms, 0.5),
        "op_p90_ms": percentile(op_ms, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
    }
    return metrics, reps, {}


def per_op(reps: list[dict]) -> tuple[list[float], list[int]]:
    """Each distinct operation's median scaled time over the repetitions
    that ran it, in ms, and its work."""
    times: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for r in reps:
        for op, ms, units in zip(r["ops"], r["latencies_ms"], r["work"]):
            times.setdefault(op, []).append(ms)
            work[op] = units
    return [statistics.median(t) for t in times.values()], list(work.values())


def trace(base: list[str], spans: Path, deadline: float):
    """Per-layer metrics from a traced repetition, next to an untraced one."""
    untraced = spawn([*base, "--mode", "run"], deadline)
    traced = spawn([*base, "--mode", "trace", "--spans", str(spans)], deadline)
    metrics = dict(traced["layers"])
    untraced_s = sum(untraced["latencies_ms"]) / 1000
    metrics["trace.overhead_s"] = sum(traced["latencies_ms"]) / 1000 - untraced_s
    extra = {"path_layers_s": traced["path_layers"], "untraced_s": untraced_s}
    return metrics, [untraced, traced], extra


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Digest of the library sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(workload: str, args, spec: dict, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace:
        metrics, reps, extra = trace(base, OUT / f"spans-{tag}.jsonl", deadline)
    else:
        share = args.seconds / spec["run_seconds"]
        count = 1 if args.smoke else max(2, round(REPETITIONS[workload] * share))
        metrics, reps, extra = measure(base, count, deadline)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    attempted = sum(r["attempted"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    rep_errors = [e for r in reps for e in r["rep_errors"]]
    result = {
        "correct": not errors and not rep_errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    provenance = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "instances": reps[0]["instances"],
        "search_seeds": [r["search_seeds"] for r in reps if "search_seeds" in r],
        "repetitions": len(reps),
        "work_unit": reps[0]["work_unit"],
    }
    record = {
        "provenance": provenance,
        **result,
        "errors": errors + rep_errors,
        "repetitions": [
            {
                k: r[k]
                for k in ("setup_s", "peak_rss_mb", "latencies_ms", "raw_latencies_ms")
            }
            for r in reps
        ],
    }
    record.update(extra)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in result["metrics"].items():
        unit = m["unit"]
        if name == "throughput":
            unit += f" ({provenance['work_unit']}/s)"
        print(f"{workload:17} {name:38} {m['value']:14.6g} {unit}")
    print(f"{workload:17} {'error_rate':38} {len(errors) / attempted:14.6g} "
          f"({len(errors)} of {attempted} operations)")
    for e in (errors + rep_errors)[:5]:
        print(f"{workload:17} FAILED {e}")
    if args.trace:
        layers = record["path_layers_s"]
        shown = " ".join(f"{k}={v:.3f}" for k, v in sorted(layers.items()))
        print(f"{workload:17} path self time (s): {shown}; sum={sum(layers.values()):.3f}"
              f" untraced={record['untraced_s']:.3f}")
    shown = {k: v for k, v in provenance.items() if k != "instances"}
    print("provenance " + json.dumps({**shown, "instance_count": len(provenance["instances"])}))
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="n <= 10, 3 seeds, one repetition")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "bibench" / "__init__.py").is_file():
        print(f"no bibench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        # Each workload gets the full deadline, so `all` may run longer.
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[workload] = run_workload(workload, args, spec, deadline)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
