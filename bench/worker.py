"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, so the library's lru_caches
and the process's peak RSS never carry over between repetitions:

    python3 bench/worker.py --workload search --seed 0 --rep 0 --mode run \
        --launch <CLOCK_MONOTONIC at start> [--smoke]

--mode setup stops after set-up; --mode run times the operations; --mode
trace also records spans and runs the layer probes. The last line of stdout
is one JSON object. An operation that raises is recorded as failed and the
repetition goes on; a failure to set up exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Budget of the one GSEMO run the traced repetition makes per instance on
# workloads that do not search, so every layer is measured on every workload.
EVOLVE_PROBE_BUDGET = 2000

def probe(inst, on_path: set[str], call, counts: dict) -> None:
    """Time the layer calls that the operation on `inst` does not make on
    its own, or makes inside another call, so each layer is measured. Runs
    right after that operation, while the library's caches hold its report."""
    from bibench import dominance, evolve, landscape, oracles, problems

    n = inst.n
    if n > landscape.enumeration_cap():
        return
    ev = problems.index_evaluator(inst)
    values = call("problems.index_evaluator", lambda: [ev(i) for i in range(1 << n)])
    counts["strings"] += len(values)
    levels = call("dominance.nondominated_sort", dominance.nondominated_sort, values)
    counts["levels"] += len(levels.levels)
    del values, levels
    for name, fn, args in (
        ("landscape.enumerate_landscape", landscape.enumerate_landscape, (inst,)),
        ("landscape.characteristic_profile", landscape.characteristic_profile, (inst,)),
        ("landscape.is_symmetric_pair", landscape.is_symmetric_pair, (inst,)),
        ("landscape.is_completely_conflicting", landscape.is_completely_conflicting, (inst,)),
        ("landscape.is_fully_separable", landscape.is_fully_separable, (inst, 1)),
        ("landscape.is_fully_separable", landscape.is_fully_separable, (inst, 2)),
        ("landscape.front_shape", landscape.front_shape, (inst,)),
        ("oracles.reference_front", oracles.reference_front, (inst,)),
    ):
        if name not in on_path:
            call(name, fn, *args)
    report = landscape.enumerate_landscape(inst)
    counts["pareto_set_size"] += len(report.pareto_set_indices)
    counts["component_count"] += report.component_count
    counts["local_optima_count"] += len(report.local_optima_indices)
    if "landscape.render_report" not in on_path:
        call("landscape.render_report", landscape.render_report, report)
    if "oracles.verify" not in on_path:
        verified = call("oracles.verify", oracles.verify, inst)
        call("oracles.render_verification", oracles.render_verification, verified)
    if "evolve.run" not in on_path:
        cfg = evolve.RunConfig("gsemo", inst, 1, EVOLVE_PROBE_BUDGET)
        result = call("evolve.run", evolve.run, cfg)
        counts["evaluations"] += result.evaluations_used
        counts["hits"] += result.hit


def layer_metrics(tracer, counts: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced repetition."""
    evaluate = tracer.total("problems.index_evaluator")
    sort = tracer.total("dominance.nondominated_sort")
    enum = tracer.total("landscape.enumerate_landscape")
    runs = tracer.durations("evolve.run")
    rss_growth = sum(
        s["rss_end"] - s["rss_start"]
        for s in tracer.spans
        if s["name"] == "landscape.enumerate_landscape"
    )
    return {
        "problems.evaluate_s": evaluate,
        "problems.strings_per_s": counts["strings"] / evaluate,
        "dominance.nondominated_sort_s": sort,
        "dominance.levels": counts["levels"],
        "landscape.enumerate_landscape_s": enum,
        # Derived: enumeration minus the evaluate and sort passes it contains.
        "landscape.enumerate_self_s": enum - evaluate - sort,
        "landscape.characteristic_profile_s": tracer.total("landscape.characteristic_profile"),
        "landscape.is_symmetric_pair_s": tracer.total("landscape.is_symmetric_pair"),
        "landscape.is_completely_conflicting_s": tracer.total(
            "landscape.is_completely_conflicting"
        ),
        "landscape.is_fully_separable_s": tracer.total("landscape.is_fully_separable"),
        "landscape.front_shape_s": tracer.total("landscape.front_shape"),
        "landscape.render_report_s": tracer.total("landscape.render_report"),
        "landscape.rss_growth_mb": rss_growth / 2**20,
        "landscape.bytes_per_string": rss_growth / counts["strings"],
        "landscape.pareto_set_size": counts["pareto_set_size"],
        "landscape.component_count": counts["component_count"],
        "landscape.local_optima_count": counts["local_optima_count"],
        "oracles.verify_s": tracer.total("oracles.verify"),
        "oracles.render_s": tracer.total("oracles.render_verification"),
        "oracles.reference_front_s": tracer.total("oracles.reference_front"),
        "evolve.run_s": statistics.median(runs),
        "evolve.evals_per_s": counts["evaluations"] / sum(runs),
        "evolve.evaluations": counts["evaluations"],
        "evolve.hits": counts["hits"],
    }


def path_layers(tracer, kind: str) -> dict[str, float]:
    """Self time per layer along the blocking path (the operations).

    Enumeration evaluates and sorts inside one library call. The probes time
    those passes on their own, and on workloads that enumerate on the path
    that share moves from `landscape` to `problems` and `dominance`: a
    derived split."""
    layers = tracer.self_times("bench.op")
    if kind != "search":
        for name, layer in (
            ("problems.index_evaluator", "problems"),
            ("dominance.nondominated_sort", "dominance"),
        ):
            layers[layer] = tracer.total(name)
            layers["landscape"] -= layers[layer]
    return layers


def run_phase(W, wl, operations, call, tracer, counts):
    """Run and time every operation; with a tracer, also probe the layers.
    Returns the outputs, each operation's time in seconds, and the same
    times scaled to the reference machine's speed."""
    outputs, windows = [], []
    on_path = W.PATH_CALLS[wl.kind]
    with SpeedSampler() as sampler:
        for op, arg in operations:
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = W.run_op(wl.kind, arg, call)
                else:
                    tracer.op = op
                    with tracer.span("bench.op"):
                        output = W.run_op(wl.kind, arg, call)
            except Exception as exc:  # a failed operation is counted, not fatal
                output = exc
            windows.append((start, time.perf_counter()))
            outputs.append(output)
            if tracer is not None and wl.kind != "search":
                with tracer.span("bench.probe"):
                    probe(arg, on_path, call, counts)

    if tracer is not None and wl.kind == "search":
        for inst in wl.instances:
            tracer.op = inst.descriptor
            with tracer.span("bench.probe"):
                probe(inst, on_path, call, counts)
        for output in outputs:
            if not isinstance(output, Exception):
                counts["evaluations"] += output.evaluations_used
                counts["hits"] += output.hit
    raw = [end - start for start, end in windows]
    return outputs, raw, [sampler.scaled(start, end) for start, end in windows]


def check_outputs(W, wl, seed, operations, outputs, fronts, expected):
    """Per-operation failure reasons (None when correct), and failures of
    the repetition as a whole."""
    errors = [
        f"raised {output!r}"
        if isinstance(output, Exception)
        else W.check(wl, seed, op, arg, output, expected, fronts)
        for (op, arg), output in zip(operations, outputs)
    ]
    if wl.kind == "search":
        # A second run of the first seed of each instance must reproduce it.
        for inst in wl.instances:
            i = next(i for i, (_, cfg) in enumerate(operations) if cfg.instance == inst)
            if errors[i] is None:
                again = W.fingerprint("search", W.run(operations[i][1]))
                if again != W.fingerprint("search", outputs[i]):
                    errors[i] = f"a repeat run gave {again}"
    rep_errors = []
    if wl.kind == "verify" and not any(isinstance(o, Exception) for o in outputs):
        for key, value in W.verify_summary(outputs).items():
            if value != expected[key]:
                rep_errors.append(f"{key} {value!r} differs from the expected {expected[key]!r}")
    return errors, rep_errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="file the traced repetition writes its spans to")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import bibench

    if not Path(bibench.__file__).resolve().is_relative_to(SRC):
        print(f"bibench imported from {bibench.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    import workloads as W

    tracer = Tracer() if args.mode == "trace" else None
    call = W.plain_call if tracer is None else tracer.call
    wl = W.build(args.workload, args.smoke)
    fronts = W.setup(wl, call)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launch
    result = {"setup_s": setup_s, "instances": [i.descriptor for i in wl.instances]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    operations = wl.operations(args.seed, args.rep)
    counts = Counter()
    outputs, latencies, scaled = run_phase(W, wl, operations, call, tracer, counts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below is outside the measured phase.
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    expected = expected["smoke" if args.smoke else "full"][args.workload]
    errors, rep_errors = check_outputs(
        W, wl, args.seed, operations, outputs, fronts, expected
    )
    result.update(
        peak_rss_mb=peak_rss_mb,
        work_unit=W.WORK_UNITS[wl.kind],
        work=[
            0 if isinstance(out, Exception) else W.work(wl.kind, arg, out)
            for (_, arg), out in zip(operations, outputs)
        ],
        ops=[op for op, _ in operations],
        latencies_ms=[t * 1000 for t in scaled],
        raw_latencies_ms=[t * 1000 for t in latencies],
        errors=[{"op": op, "error": e} for (op, _), e in zip(operations, errors) if e],
        rep_errors=rep_errors,
        attempted=len(operations),
    )
    if wl.kind == "search":
        result["search_seeds"] = [operations[0][1].seed, operations[-1][1].seed]
    if tracer is not None:
        # Spans are not scaled one by one; the repetition's mean scale brings
        # their times to the reference speed as well.
        factor = sum(scaled) / sum(latencies)
        result["path_layers"] = {
            k: v * factor for k, v in path_layers(tracer, wl.kind).items()
        }
        result["layers"] = {
            k: v / factor if k.endswith("_per_s") else v * factor if k.endswith("_s") else v
            for k, v in layer_metrics(tracer, counts).items()
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
