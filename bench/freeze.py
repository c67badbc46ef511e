"""Write expected.json, the outputs every benchmark operation must reproduce.

    python3 bench/freeze.py

Runs each workload's operations, untimed, for workloads.DEFAULT_SEED, at full
and smoke size; search keeps the seed blocks of its first FROZEN_REPS
repetitions. bibench's outputs are meant to stay byte-identical, so rerun
this only for a change that alters them on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as W  # noqa: E402

FROZEN_REPS = {"full": 4, "smoke": 1}


def freeze(name: str, size: str) -> dict:
    wl = W.build(name, size == "smoke")
    reps = FROZEN_REPS[size] if wl.kind == "search" else 1
    ops = [op for rep in range(reps) for op in wl.operations(W.DEFAULT_SEED, rep)]
    outputs = [W.run_op(wl.kind, arg, W.plain_call) for _, arg in ops]
    fingerprints = {op: W.fingerprint(wl.kind, out) for (op, _), out in zip(ops, outputs)}
    if wl.kind == "search":
        return {"runs": fingerprints}
    entry = {"outputs": fingerprints}
    if wl.kind == "verify":
        entry.update(W.verify_summary(outputs))
    return entry


def dump(value, depth: int = 0) -> str:
    """JSON with one line per frozen output (they sit four levels down)."""
    if depth == 4 or not isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    pad = " " * (depth + 1)
    items = [f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}" for k, v in sorted(value.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"


def main() -> None:
    expected = {
        size: {name: freeze(name, size) for name in W.SPECS} for size in ("smoke", "full")
    }
    (BENCH / "expected.json").write_text(dump(expected) + "\n")


if __name__ == "__main__":
    main()
