"""Tests of the benchmark itself, on its smoke-size workloads:

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_has_every_metric(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", trace, "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_search_seed_without_frozen_outputs_is_checked_by_invariants():
    result = result_of(bench("--workload", "search", "--seed", "7", "--smoke"))
    assert result["correct"] is True and result["failed"] == 0


def test_frozen_grid_text_is_the_verify_command_output():
    frozen = json.loads((BENCH / "expected.json").read_text())["smoke"]["verify-grid"]
    proc = subprocess.run(
        [sys.executable, "-m", "bibench", "verify", "all", "--n-max", "10"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *body, summary = proc.stdout.splitlines(keepends=True)
    assert summary.rstrip("\n") == frozen["summary"]
    assert hashlib.sha256("".join(body).encode()).hexdigest()[:16] == frozen["text_sha256"]


def test_wrong_output_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["smoke"]["landscape-sparse"]["outputs"]["lotz:n=10"]["levels"] += 1
    path.write_text(json.dumps(expected))
    result = result_of(bench("--workload", "landscape-sparse", "--smoke", root=root))
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2


def test_raising_operation_counts_as_failed_and_the_run_goes_on(tmp_path):
    root = copy_checkout(tmp_path)
    oracles = root / "src" / "bibench" / "oracles.py"
    text = oracles.read_text()
    head = '    """Stable plain-text rendering of one instance\'s verification."""\n'
    assert head in text
    oracles.write_text(
        text.replace(
            head,
            head + '    if report.instance.descriptor == "omm:n=6":\n'
            '        raise RuntimeError("injected")\n',
        )
    )
    result = result_of(bench("--workload", "verify-grid", "--smoke", root=root))
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 87


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc = bench("--workload", "search", "--smoke", root=root)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaled_time_removes_sampler_time_and_applies_mean_speed():
    sys.path.insert(0, str(BENCH))
    from speed import REFERENCE_S, SpeedSampler

    sampler = SpeedSampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.durations = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S]
    # Two samples inside [0.5, 2.5): speeds 1/2 and 1/4, their time removed.
    inside = 2.0 - 6 * REFERENCE_S
    assert sampler.scaled(0.5, 2.5) == pytest.approx(inside * (0.5 + 0.25) / 2)
    # No sample inside [2.1, 2.9): the samples either side give the speed.
    assert sampler.scaled(2.1, 2.9) == pytest.approx(0.8 * (0.25 + 1.0) / 2)
