"""Smoke test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

Runs every workload at its tiny size, traced and untraced, and feeds each
output check a tampered report.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
import whlab

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # default seed: nothing fails, and failed_frac is printed as 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "failed_frac: 0 " in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "factorize", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_scaled_times_divide_by_the_bracketing_reference():
    # item "a" takes 100 ms between references of 8 and 24 ms, then 50 ms
    # between two of 8 ms: the same work on a host twice as slow, then not
    cycles = [
        {"items": [["a", 100.0, True], ["b", 30.0, True]], "refs": [8.0, 24.0, 8.0]},
        {"items": [["a", 50.0, True], ["b", 15.0, True]], "refs": [8.0, 8.0, 8.0]},
    ]
    scale = run.REF_MS / 8.0
    assert run.scaled_times(cycles) == [50.0 * scale, 15.0 * scale]


def test_middle_mean_drops_a_quarter_at_each_end():
    assert run.middle_mean([100.0, 1.0, 2.0, 3.0, -50.0]) == 2.0
    assert run.middle_mean([1.0, 2.0, 3.0, 4.0, 90.0, -90.0, 5.0, 6.0]) == 3.5
    assert run.middle_mean([4.0]) == 4.0


def test_factorization_check_fails_residual_above_bound():
    mu = whlab.lattice(-1, [0.3, 0.3, 0.4])
    report = whlab.verify_factorization(mu, workloads.S_GRID, workloads.T_GRID, 40)
    series = whlab.spitzer_chi_grid(
        whlab.truncated_data(mu, 40), workloads.S_GRID, workloads.T_GRID
    )
    assert workloads.check_factorization(report, series)
    residuals = report.residuals.copy()
    residuals[3, 5] = report.bounds[3] + 1e-6
    tampered = dataclasses.replace(report, residuals=residuals)
    assert not workloads.check_factorization(tampered, series)
    chi_plus = report.chi_plus.copy()
    chi_plus[0, 0] += 1e-6
    assert not workloads.check_factorization(
        dataclasses.replace(report, chi_plus=chi_plus), series
    )


def test_reconstruct_check_fails_wrong_class_or_code():
    truth = whlab.lattice(-1, [0.5, 0.2, 0.1, 0.2])
    report = {"detected_class": "skip_free", "recovered": truth.to_dict()}
    assert workloads.check_reconstruct(0, report, "skip_free", truth)
    assert not workloads.check_reconstruct(0, report, "exponential", truth)
    assert not workloads.check_reconstruct(
        0, dict(report, detected_class="triangular"), "skip_free", truth
    )
    assert not workloads.check_reconstruct(3, report, "skip_free", truth)
    off = whlab.lattice(-1, np.array([0.5, 0.2, 0.1, 0.2]) + [1e-8, 0, 0, -1e-8])
    assert not workloads.check_reconstruct(
        0, dict(report, recovered=off.to_dict()), "skip_free", truth
    )
    refused = {"detected_class": "none", "recovered": None}
    assert workloads.check_reconstruct(3, refused, "none", truth)
    assert not workloads.check_reconstruct(0, refused, "none", truth)
    assert not workloads.check_reconstruct(3, None, "none", truth)


def test_simulate_check_fails_failed_exit_code():
    assert workloads.check_simulate(0, {"censored_ok": True})
    assert not workloads.check_simulate(1, {"censored_ok": True})
    assert not workloads.check_simulate(0, {"censored_ok": False})
    assert not workloads.check_simulate(0, None)
