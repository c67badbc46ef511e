"""Tests for the command line interface and the figure-data exporters."""

import concurrent.futures
import contextlib
import hashlib
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibench.cli import (
    _FIGURE_BUILDERS,
    FIGURE_KINDS,
    _build_parser,
    figure_levels_vs_ones,
    figure_objective_space,
    figure_objectives_vs_ones,
    main,
)
from bibench import landscape
from bibench.errors import ValidationError
from bibench.landscape import (
    CAP_ENV_VAR,
    MAX_CAP,
    LandscapeReport,
    enumerate_landscape,
    render_report,
)
from bibench.oracles import ClaimResult, VerificationReport, grid_instances
from bibench.problems import FAMILY_NAMES, parse_descriptor


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_descriptor_form(self, capsys):
        assert run_main(capsys, ["eval", "lotz:n=8", "11100000"]) == (0, "(3,5)\n", "")

    def test_descriptor_is_the_only_instance_form(self, capsys, tmp_path):
        # A parameter flag next to a descriptor is a usage error, not ignored.
        argv = ["landscape", "orzr:n=8,l=2", "--l", "4", "--out", str(tmp_path / "x.txt")]
        rc, out, err = run_main(capsys, argv)
        assert (rc, out) == (1, "")
        assert err.startswith("error:")
        assert not (tmp_path / "x.txt").exists()

    def test_bad_bits(self, capsys):
        rc, _, err = run_main(capsys, ["eval", "lotz:n=8", "11x00000"])
        assert rc == 1
        assert err.startswith("error:")

    def test_length_mismatch(self, capsys):
        rc, _, err = run_main(capsys, ["eval", "lotz:n=8", "111"])
        assert rc == 1
        assert err.startswith("error:")


class TestLandscapeCommand:
    def test_writes_report_and_prints_summary(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        rc, out, err = run_main(capsys, ["landscape", "lotz:n=8", "--out", str(out_file)])
        assert (rc, out, err) == (0, "|PS|=9 ratio=9/256 components=1 |LO|=0\n", "")
        expected = render_report(enumerate_landscape(parse_descriptor("lotz:n=8")))
        assert out_file.read_text(encoding="utf-8") == expected

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_main(capsys, ["landscape", "ojzj:n=8,k=2", "--out", str(a)])
        run_main(capsys, ["landscape", "ojzj:n=8,k=2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "instances",
        [
            grid_instances(None, range(1, 17)),
            [parse_descriptor(d) for d in ("ojzr:n=18,k=7,l=3", "lozj:n=18,k=4", "lozr:n=18,l=3")],
        ],
        ids=["grid", "n18"],
    )
    def test_the_file_is_the_rendered_report(self, capsys, tmp_path, instances):
        # The command writes the report's pieces one by one; spans of 1 and
        # 3 nonzero packed bytes split the local optima into many pieces.
        # Each call writes a new file, deleted once read: truncating and
        # rewriting one file costs tens of milliseconds a close on some
        # filesystems.
        for inst in instances:
            expected = render_report(enumerate_landscape(inst)).encode()
            for span in (1, 3, landscape._SPAN):
                out = tmp_path / f"{inst.descriptor}-{span}.txt"
                with mock.patch.object(landscape, "_SPAN", span):
                    rc, _, err = run_main(capsys, ["landscape", inst.descriptor, "--out", str(out)])
                assert (rc, err) == (0, "")
                assert out.read_bytes() == expected, (inst.descriptor, span)
                out.unlink()

    def test_an_error_in_the_report_leaves_no_file(self, capsys, tmp_path):
        # The head and the tail are built before the file is opened.
        def refuse(report):
            raise ValidationError("no ones tables")

        out = tmp_path / "report.txt"
        with mock.patch.object(LandscapeReport, "ones_tables", property(refuse)):
            rc, stdout, err = run_main(capsys, ["landscape", "ojzr:n=12,k=5,l=3", "--out", str(out)])
        assert (rc, stdout, err) == (1, "", "error: no ones tables\n")
        assert not out.exists()

    def test_cap_guard(self, capsys, tmp_path):
        rc, _, err = run_main(
            capsys, ["landscape", "omm:n=30", "--out", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "exceeds the enumeration cap" in err


class TestRatioCommand:
    def test_ojzj(self, capsys):
        rc, out, _ = run_main(capsys, ["ratio", "ojzj", "--n", "8", "--k", "2"])
        assert rc == 0
        assert out == (
            "ratio = 15/16 (0.937500)\n"
            "threshold_k = 1\n"
            "ratio >= 1/2: true\n"
        )

    def test_ojzj_rejects_block_length(self, capsys):
        rc, _, err = run_main(capsys, ["ratio", "ojzj", "--n", "8", "--k", "2", "--l", "1"])
        assert rc == 1
        assert "ojzj takes no --l" in err

    def test_ojzr_needs_block_length(self, capsys):
        rc, out, err = run_main(capsys, ["ratio", "ojzr", "--n", "12", "--k", "5"])
        assert (rc, out, err) == (1, "", "error: ojzr needs --l\n")

    @pytest.mark.parametrize(
        "argv",
        [["ojzj", "--n", "14300", "--k", "3"], ["ojzr", "--n", "300000", "--k", "5", "--l", "3"]],
    )
    def test_n_is_bounded(self, capsys, argv):
        rc, out, err = run_main(capsys, ["ratio", *argv])
        assert (rc, out) == (1, "")
        assert err.startswith("error: n must be in [1, 4096]")
        assert "Traceback" not in err

    def test_ojzr_narrow_blocks_print_no_bound(self, capsys):
        rc, out, _ = run_main(capsys, ["ratio", "ojzr", "--n", "8", "--k", "3", "--l", "2"])
        assert (rc, out) == (0, "ratio = 9/64 (0.140625)\n")

    def test_ojzr_with_bound(self, capsys):
        rc, out, _ = run_main(capsys, ["ratio", "ojzr", "--n", "12", "--k", "5", "--l", "3"])
        assert rc == 0
        assert out == (
            "ratio = 39/1024 (0.038086)\n"
            "bound = 2^(-3) (0.125000)\n"
            "within_bound: true\n"
        )

    def test_ojzr_bound_violation_is_reported(self, capsys):
        rc, out, _ = run_main(capsys, ["ratio", "ojzr", "--n", "8", "--k", "3", "--l", "4"])
        assert rc == 0
        assert out == (
            "ratio = 15/64 (0.234375)\n"
            "bound = 2^(-3) (0.125000)\n"
            "within_bound: false\n"
        )

    def test_ojzr_half_integer_exponent(self, capsys):
        rc, out, _ = run_main(capsys, ["ratio", "ojzr", "--n", "9", "--k", "2", "--l", "3"])
        assert rc == 0
        assert out == (
            "ratio = 11/128 (0.085938)\n"
            "bound = 2^(-5/2) (0.176777)\n"
            "within_bound: true\n"
        )

    def test_domain_error(self, capsys):
        rc, _, err = run_main(capsys, ["ratio", "ojzj", "--n", "8", "--k", "4"])
        assert rc == 1
        assert err.startswith("error:")


class TestFigureDatasets:
    def test_objective_space_golden(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        rc, out, _ = run_main(
            capsys,
            ["figure", "omm:n=8", "--kind", "objective_space", "--out", str(out_file)],
        )
        assert (rc, out) == (0, "objective_space: 9 rows\n")
        assert out_file.read_text(encoding="utf-8") == (
            "f1,f2,count,class\n"
            "0,8,1,pareto\n"
            "1,7,8,pareto\n"
            "2,6,28,pareto\n"
            "3,5,56,pareto\n"
            "4,4,70,pareto\n"
            "5,3,56,pareto\n"
            "6,2,28,pareto\n"
            "7,1,8,pareto\n"
            "8,0,1,pareto\n"
        )

    def test_levels_vs_ones_golden(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        rc, out, _ = run_main(
            capsys,
            ["figure", "lotz:n=2", "--kind", "levels_vs_ones", "--out", str(out_file)],
        )
        assert (rc, out) == (0, "levels_vs_ones: 4 rows\n")
        assert out_file.read_text(encoding="utf-8") == (
            "ones,level,count\n0,1,1\n1,1,1\n1,2,1\n2,1,1\n"
        )

    def test_objectives_vs_ones_golden(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        rc, out, _ = run_main(
            capsys,
            ["figure", "lotz:n=2", "--kind", "objectives_vs_ones", "--out", str(out_file)],
        )
        assert (rc, out) == (0, "objectives_vs_ones: 8 rows\n")
        assert out_file.read_text(encoding="utf-8") == (
            "ones,objective,value,count\n"
            "0,1,0,1\n"
            "0,2,2,1\n"
            "1,1,0,1\n"
            "1,1,1,1\n"
            "1,2,0,1\n"
            "1,2,1,1\n"
            "2,1,2,1\n"
            "2,2,0,1\n"
        )

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["figure", "ojzr:n=12,k=5,l=3", "--kind", "objective_space", "--out"]
        run_main(capsys, argv + [str(a)])
        run_main(capsys, argv + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_classes_partition_the_cube(self):
        report = enumerate_landscape(parse_descriptor("ojzr:n=12,k=5,l=3"))
        dataset = figure_objective_space(report)
        assert sum(row[2] for row in dataset.rows) == 1 << 12
        assert {row[3] for row in dataset.rows} == {"pareto", "local_optimum", "other"}

    def test_levels_partition_the_cube(self):
        report = enumerate_landscape(parse_descriptor("cocz:n=8"))
        dataset = figure_levels_vs_ones(report)
        assert sum(row[2] for row in dataset.rows) == 256

    def test_objectives_count_each_string_twice(self):
        report = enumerate_landscape(parse_descriptor("omtz:n=8"))
        dataset = figure_objectives_vs_ones(report)
        assert sum(row[3] for row in dataset.rows) == 2 * 256

    def test_build_figure_dispatch_and_unknown_kind(self, capsys, tmp_path):
        report = enumerate_landscape(parse_descriptor("omm:n=4"))
        for kind, build in _FIGURE_BUILDERS.items():
            assert build(report).kind == kind
        out = tmp_path / "figure.csv"
        argv = ["figure", "omm:n=4", "--kind", "histogram", "--out", str(out)]
        rc, stdout, err = run_main(capsys, argv)
        assert (rc, stdout) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestVerifyCommand:
    def test_verify_all_golden(self, capsys):
        # Every family on the default grid: 191 instances, the 57
        # informational mismatches all ojzr's.
        rc, out, err = run_main(capsys, ["verify", "all"])
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == (
            "instances=191 must_match_failures=0 informational_mismatches=57"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0a53c8cfde75f766c131b8b9ba4d2494b5cb9721e26a9a4b4d0a51bcd24c661a"
        )

    def test_family_scope_golden_summary(self, capsys):
        rc, out, err = run_main(capsys, ["verify", "lotz"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "instances=5 must_match_failures=0 informational_mismatches=0"
        assert out.count("lotz:n=") == 5

    def test_informational_mismatches_do_not_fail(self, capsys):
        rc, out, _ = run_main(capsys, ["verify", "ojzr", "--n-max", "6"])
        assert rc == 0
        assert out.splitlines()[-1] == (
            "instances=6 must_match_failures=0 informational_mismatches=4"
        )

    def test_out_file_holds_body_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "verify.txt"
        rc, out, _ = run_main(capsys, ["verify", "omm", "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text(encoding="utf-8")
        assert text.count("pareto_set: match") == 5
        assert text.endswith("instances=5 must_match_failures=0 informational_mismatches=0\n")
        assert out == "instances=5 must_match_failures=0 informational_mismatches=0\n"

    def test_must_match_failure_exits_two(self, capsys):
        def fake_verify(inst):
            claim = ClaimResult("pareto_set", True, False, "claimed=1 actual=2", ())
            return VerificationReport(inst, (claim,), ())

        with mock.patch("bibench.cli.verify", fake_verify):
            rc, out, _ = run_main(capsys, ["verify", "omm", "--n-max", "6"])
        assert rc == 2
        assert "must_match_failures=1" in out

    def test_empty_grid_rejected(self, capsys):
        rc, _, err = run_main(capsys, ["verify", "omm", "--n-max", "2"])
        assert rc == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("n_max", ["15", "16", "64"])
    def test_n_max_above_the_grid_rejected(self, capsys, n_max):
        # Every grid size is at most 14, so a larger --n-max would check the
        # same grid as 14.
        rc, out, err = run_main(capsys, ["verify", "omm", "--n-max", n_max])
        assert (rc, out) == (1, "")
        assert err == f"error: --n-max {n_max} is above the grid sizes (6, 8, 10, 12, 14)\n"

    def test_threads_is_not_a_verify_option(self, capsys):
        rc, out, err = run_main(capsys, ["verify", "omm", "--threads", "2"])
        assert (rc, out, err) == (1, "", "error: unrecognized arguments: --threads 2\n")


class TestRunCommand:
    def test_stdout_golden(self, capsys):
        rc, out, _ = run_main(
            capsys, ["run", "gsemo", "omm:n=4", "--seeds", "1,2", "--budget", "1000"]
        )
        assert rc == 0
        assert out == (
            "seed,hit,hitting_time,evaluations_used\n"
            "1,true,36,36\n"
            "2,true,61,61\n"
            "summary: success=2/2 median_hitting_time=48.5 mean_hitting_time=48.5\n"
        )

    def test_success_counts_hits_over_seeds_unreduced(self, capsys):
        rc, out, _ = run_main(
            capsys, ["run", "gsemo", "omm:n=4", "--seeds", "1..4", "--budget", "40"]
        )
        assert rc == 0
        assert out.endswith(
            "summary: success=2/4 median_hitting_time=32.5 mean_hitting_time=32.5\n"
        )

    def test_seed_range_and_float_budget_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "runs.csv"
        rc, out, _ = run_main(
            capsys,
            [
                "run", "gsemo", "omm:n=4",
                "--seeds", "1..3", "--budget", "2e2", "--out", str(out_file),
            ],
        )
        assert rc == 0
        assert out == "summary: success=3/3 median_hitting_time=58 mean_hitting_time=51.666666666666664\n"
        text = out_file.read_text(encoding="utf-8")
        assert text.startswith("seed,hit,hitting_time,evaluations_used\n1,true,36,36\n")
        assert text.count("\n") == 5

    def test_front_point_target(self, capsys):
        rc, out, _ = run_main(
            capsys,
            [
                "run", "semo", "omm:n=4",
                "--seeds", "1", "--budget", "500", "--target", "front_point=4,0",
            ],
        )
        assert rc == 0
        assert "1,true,25,25\n" in out

    def test_coverage_target(self, capsys):
        rc, out, _ = run_main(
            capsys,
            [
                "run", "semo", "omm:n=4",
                "--seeds", "1", "--budget", "500", "--target", "coverage=3/5",
            ],
        )
        assert rc == 0
        assert out.splitlines()[1].startswith("1,true,")

    def test_ojzr_beyond_the_cap_needs_no_enumeration(self, capsys):
        rc, out, err = run_main(
            capsys, ["run", "gsemo", "ojzr:n=30,k=5,l=3", "--seeds", "1", "--budget", "1000"]
        )
        assert (rc, err) == (0, "")
        assert out.startswith("seed,hit,hitting_time,evaluations_used\n1,")

    def test_reruns_are_identical(self, capsys):
        argv = ["run", "semo", "lotz:n=8", "--seeds", "4,5", "--budget", "50000"]
        _, first, _ = run_main(capsys, argv)
        _, second, _ = run_main(capsys, argv)
        assert first == second

    def test_bad_seed_list(self, capsys):
        rc, _, err = run_main(capsys, ["run", "semo", "omm:n=4", "--seeds", "x", "--budget", "10"])
        assert (rc, err) == (1, "error: bad seed list 'x'\n")

    def test_empty_seed_range(self, capsys):
        argv = ["run", "semo", "omm:n=4", "--seeds", "5..1", "--budget", "10"]
        rc, _, err = run_main(capsys, argv)
        assert (rc, err) == (1, "error: empty seed range '5..1'\n")

    @pytest.mark.parametrize("seeds", ["-3..3", "4,-2", "-1", "-5..-1"])
    def test_negative_seeds_rejected(self, capsys, seeds):
        # random.Random seeds with |seed|, so -3 would rerun seed 3.
        argv = ["run", "semo", "omm:n=4", f"--seeds={seeds}", "--budget", "10"]
        rc, out, err = run_main(capsys, argv)
        assert (rc, out) == (1, "")
        assert err.startswith("error: seeds must be non-negative, got -")

    def test_seed_count_is_bounded_before_any_list_is_built(self, capsys):
        # The second range is longer than sys.maxsize, so len(range) would overflow.
        for count in ("10000000000", "100000000000000000000"):
            argv = ["run", "semo", "omm:n=4", "--seeds", f"1..{count}", "--budget", "10"]
            rc, out, err = run_main(capsys, argv)
            assert (rc, out) == (1, "")
            assert err == f"error: at most 100000 seeds per run, got {count}\n"

    def test_bad_thread_count_rejected(self, capsys):
        argv = ["run", "semo", "omm:n=4", "--seeds", "1", "--budget", "10", "--threads", "0"]
        rc, _, err = run_main(capsys, argv)
        assert (rc, err) == (1, "error: threads must be a positive integer, got 0\n")

    def test_bad_budget_starts_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        argv = ["run", "semo", "omm:n=4", "--seeds", "1..4", "--budget", "0", "--threads", "2"]
        rc, out, err = run_main(capsys, argv)
        assert (rc, out, err) == (1, "", "error: budget must be a positive int, got 0\n")

    def test_off_front_target_starts_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        argv = ["run", "semo", "omm:n=4", "--seeds", "1..4", "--budget", "10", "--threads", "2",
                "--target", "front_point=9,9"]
        rc, out, err = run_main(capsys, argv)
        assert (rc, out) == (1, "")
        assert err == "error: target vector (9, 9) is not on the Pareto front of omm:n=4\n"

    def test_bad_budget(self, capsys):
        rc, _, err = run_main(
            capsys, ["run", "semo", "omm:n=4", "--seeds", "1", "--budget", "0.5"]
        )
        assert rc == 1
        assert "budget must be a positive integer" in err
        rc, _, err = run_main(
            capsys, ["run", "semo", "omm:n=4", "--seeds", "1", "--budget", "abc"]
        )
        assert (rc, err) == (1, "error: bad budget 'abc'\n")

    def test_bad_target(self, capsys):
        rc, _, err = run_main(
            capsys,
            ["run", "semo", "omm:n=4", "--seeds", "1", "--budget", "10", "--target", "most"],
        )
        assert rc == 1
        assert "unknown target 'most'" in err


class TestFamiliesCommand:
    def test_lists_all_families(self, capsys):
        rc, out, _ = run_main(capsys, ["families"])
        assert rc == 0
        assert out.splitlines() == [
            "omm: objectives=(ones; zeroes) params=- constraints=1 <= n <= 63",
            "lotz: objectives=(leading ones; trailing zeroes) params=- constraints=1 <= n <= 63",
            "ojzj: objectives=(one-jump; zero-jump) params=k constraints=1 <= k < n/2",
            "cocz: objectives=(ones; ones in first half plus zeroes in second half)"
            " params=- constraints=n even",
            "orzr: objectives=(all-ones blocks; all-zeroes blocks)"
            " params=l constraints=l divides n, n/l > 1",
            "omtz: objectives=(ones; trailing zeroes) params=- constraints=1 <= n <= 63",
            "omzj: objectives=(ones; zero-jump) params=k constraints=1 < k < n/2",
            "omzr: objectives=(ones; all-zeroes blocks) params=l constraints=l divides n, n/l > 1",
            "lozj: objectives=(leading ones; zero-jump) params=k constraints=1 < k < n/2",
            "lozr: objectives=(leading ones; all-zeroes blocks)"
            " params=l constraints=l divides n, n/l > 1",
            "ojzr: objectives=(one-jump; all-zeroes blocks)"
            " params=k,l constraints=1 < k <= floor(n/2), l divides n, n/l > 1",
        ]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        rc, _, err = run_main(capsys, ["nope"])
        assert rc == 1
        assert err.startswith("error:")

    def test_missing_command(self, capsys):
        rc, _, err = run_main(capsys, [])
        assert rc == 1
        assert err.startswith("error:")

    def test_instance_required(self, capsys):
        rc, _, err = run_main(capsys, ["eval", "11100000"])
        assert rc == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "target, message",
        [
            ("front_point=1", "front_point needs 'f1,f2', got '1'"),
            ("front_point=a,b", "front_point needs integers, got 'a,b'"),
            ("coverage=x", "bad coverage fraction 'x'"),
            ("coverage=1/0", "bad coverage fraction '1/0'"),
            ("coverage=3/2", "coverage fraction must be in (0, 1], got Fraction(3, 2)"),
            ("coverage=0", "coverage fraction must be in (0, 1], got Fraction(0, 1)"),
        ],
    )
    def test_bad_target(self, capsys, target, message):
        argv = ["run", "semo", "omm:n=4", "--seeds", "1", "--budget", "10", "--target", target]
        rc, stdout, err = run_main(capsys, argv)
        assert (rc, stdout) == (1, "")
        assert err == f"error: {message}\n"

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "report.txt")
        rc, _, err = run_main(capsys, ["landscape", "lotz:n=4", "--out", target])
        assert rc == 1
        assert err.startswith(f"error: cannot write {target}:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["landscape", "lotz:n=8", "--out", "{out}"],
            ["verify", "lotz", "--n-max", "6"],
            ["figure", "lotz:n=8", "--kind", "objective_space", "--out", "{out}"],
            ["run", "gsemo", "lotz:n=8", "--seeds", "1", "--budget", "100"],
        ],
    )
    def test_cap_is_not_a_flag(self, capsys, tmp_path, argv):
        out = tmp_path / "x.txt"
        argv = [arg.format(out=out) for arg in argv] + ["--cap", "30"]
        rc, stdout, err = run_main(capsys, argv)
        assert (rc, stdout) == (1, "")
        assert err == "error: unrecognized arguments: --cap 30\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["landscape", "omm:n=10", "--out", "{out}"],
            ["verify", "omm"],
        ],
    )
    def test_env_var_sets_the_cap(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setenv(CAP_ENV_VAR, "8")
        out = tmp_path / "x.txt"
        rc, stdout, err = run_main(capsys, [arg.format(out=out) for arg in argv])
        assert (rc, stdout) == (1, "")
        assert err == (
            f"error: n=10 exceeds the enumeration cap 8 and would need about 24 KiB;"
            f" set {CAP_ENV_VAR} (at most {MAX_CAP}) to raise it\n"
        )
        assert not out.exists()

    def test_env_var_above_the_largest_cap_fails_fast(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "40")
        out = tmp_path / "x.txt"
        start = time.perf_counter()
        rc, stdout, err = run_main(capsys, ["landscape", "omm:n=30", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert (rc, stdout) == (1, "")
        assert err.startswith(f"error: {CAP_ENV_VAR} must be at most {MAX_CAP}, got 40")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["verify", "lotz", "--n", "8"], ["landscape", "lotz:n=8", "--o", "{out}"]],
    )
    def test_abbreviated_flags_are_rejected(self, capsys, tmp_path, argv):
        out = tmp_path / "f.txt"
        rc, stdout, err = run_main(capsys, [arg.format(out=out) for arg in argv])
        assert (rc, stdout) == (1, "")
        assert err.startswith("error:")
        assert not out.exists()


# Argument grammar of the boundary property test. Each command is a list of
# slots (flag or None for a positional, good values, bad values); a drawn
# argv gives bad values to at most one slot, or appends a stray argument.
# A value of None leaves its flag out. Bad values are malformed, out of
# range, huge, negative or non-ASCII. No argv starts a pool (run's --threads
# is 1 or invalid), runs more than three seeds of 1000 evaluations, or asks
# for help, and --out paths start with "{dir}", the directory to write in.
TEXT = st.text(max_size=6)
BAD_NUMBERS = st.sampled_from(
    ["-1", "0", "64", "4097", str(10**30), str(-(10**30)), "", "x", "1.5", "1e3", "\u0664"]
)
GOOD_DESCRIPTORS = st.sampled_from(
    ["omm:n=4", "lotz:n=6", "ojzj:n=8,k=2", "cocz:n=6", "orzr:n=8,l=2", "ojzr:n=8,k=2,l=2",
     "omzj:n=8,k=3", "lotz:n=40", "OJZR:N=8,K=2,L=2"]
)
BAD_DESCRIPTORS = st.one_of(
    st.sampled_from(
        ["orzr:n=10,l=3", "lozr:n=12,l=5", "omm:n=8,k=3", "nope:n=5", "\u00f6mm:n=4",
         "omm:n=0", "ojzj:n=8", "omm:n=8,n=9", "omm:k=2", "omm", "omm:n=1e3", "omm:n=\u0664"]
    ),
    st.builds(
        lambda family, params: family + ":" + ",".join(f"{key}={value}" for key, value in params),
        st.sampled_from(FAMILY_NAMES) | TEXT,
        st.lists(st.tuples(st.sampled_from(["n", "k", "l", "N", "m"]), BAD_NUMBERS), max_size=3),
    ),
    TEXT,
)
DESCRIPTOR = (None, GOOD_DESCRIPTORS, BAD_DESCRIPTORS)
GOOD_OUT = st.sampled_from(["{dir}/out.txt", "{dir}/\u00fcml\u00e4ut.csv"])
BAD_OUT = st.sampled_from([None, "{dir}/no/out.txt", "{dir}"])
OPTIONAL_OUT = ("--out", st.none() | GOOD_OUT, BAD_OUT.filter(lambda out: out is not None))
COMMANDS = {
    "eval": [DESCRIPTOR, (None, st.text("01", min_size=4, max_size=8), TEXT)],
    "landscape": [DESCRIPTOR, ("--out", GOOD_OUT, BAD_OUT)],
    "verify": [
        (None, st.sampled_from([*FAMILY_NAMES, "all"]), st.sampled_from(["nope", "ALL", ""])),
        ("--n-max", st.sampled_from([None, "6", "8"]), BAD_NUMBERS),
        OPTIONAL_OUT,
    ],
    "ratio": [
        (None, st.sampled_from(["ojzj", "ojzr"]), st.sampled_from(["omm", "OJZJ"])),
        ("--n", st.integers(5, 40).map(str), BAD_NUMBERS | st.none()),
        ("--k", st.integers(1, 12).map(str), BAD_NUMBERS | st.none()),
        ("--l", st.sampled_from([None, "1", "2", "3", "4"]), BAD_NUMBERS),
    ],
    "figure": [
        DESCRIPTOR,
        ("--kind", st.sampled_from(FIGURE_KINDS), st.sampled_from([None, "bogus", ""])),
        ("--out", GOOD_OUT, BAD_OUT),
    ],
    "run": [
        (None, st.sampled_from(["semo", "gsemo"]), st.sampled_from(["nsga2", "SEMO"]) | TEXT),
        DESCRIPTOR,
        (
            "--seeds",
            st.lists(st.integers(0, 2**70), min_size=1, max_size=3).map(
                lambda seeds: ",".join(map(str, seeds))
            )
            | st.sampled_from(["0..2", "5..6", "7"]),
            st.sampled_from(
                [None, "", "x", "-1", "4,-2", "-3..3", "5..1", "1..", "1,,2", "0..1000000000000"]
            ),
        ),
        (
            "--budget",
            st.integers(1, 1000).map(str) | st.sampled_from(["1e3", "2e2"]),
            st.sampled_from([None, "0", "-5", "2.5", "0.0", "1e400", "nan", "x", ""]),
        ),
        (
            "--target",
            st.sampled_from(
                [None, "full_front", "front_point=4,0", "coverage=0.5", "coverage=3/5"]
            ),
            st.sampled_from(
                ["front_point=1,2", "front_point=a,b", "front_point=1", "coverage=0",
                 "coverage=2", "coverage=1/0", "coverage=nan", "most", ""]
            )
            | TEXT,
        ),
        ("--threads", st.sampled_from([None, "1"]), st.sampled_from(["0", "-2", "x", "1.5", ""])),
        OPTIONAL_OUT,
    ],
    "families": [],
}
STRAYS = st.sampled_from(["--bogus", "--n", "--out", "-x", "\u00e9"]) | TEXT.filter(
    lambda arg: arg not in ("-h", "--help")
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from([*COMMANDS, "nope", ""]))
    slots = COMMANDS.get(command, [])
    broken = draw(st.integers(-2, len(slots)))
    argv = [command]
    for index, (flag, good, bad) in enumerate(slots):
        value = draw(bad if index == broken else good)
        if value is not None:
            argv += [value] if flag is None else [flag, value]
    if broken == len(slots):
        argv.append(draw(STRAYS))
    return argv


class TestBoundaryProperty:
    @settings(max_examples=150, deadline=None)
    @given(cli_argv())
    def test_any_argv_exits_cleanly_with_at_most_one_error_line(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as out_dir:
            argv = [arg.replace("{dir}", out_dir) for arg in argv]
            with mock.patch.dict(os.environ, {CAP_ENV_VAR: "8"}):
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = main(argv)
        err = stderr.getvalue()
        assert rc in (0, 1, 2)
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
        assert "Traceback" not in err


def readme_commands() -> list[str]:
    """Every bibench line of the README's command line block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("bibench ")]


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "bibench"
    _build_parser().parse_args(argv[1:])


def test_readme_quick_start_prints_its_comments():
    """The README's library quick start runs, one line per print call, and
    each print whose line ends in a comment prints that comment, or its
    part before an explaining ": "."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    checked = [(call, line) for call, line in zip(calls, printed) if "  # " in call]
    assert len(checked) >= 4
    for call, line in checked:
        comment = call.partition("  # ")[2]
        assert comment == line or comment.startswith(line + ": "), (call, line)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bibench", "eval", "omm:n=8", "10110010"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "(4,4)\n"

    def test_console_script_target(self, capsys):
        # The installed `bibench` command calls the target pyproject.toml
        # names (read by pattern: tomllib needs Python 3.11).
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
        module, attr = re.search(r'^bibench = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        target = getattr(importlib.import_module(module), attr)
        assert target(["families"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 11
