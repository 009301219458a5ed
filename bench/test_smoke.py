"""Smoke test of the benchmark itself, at tiny sweep sizes.

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is printed with its unit,
that span self-times fit inside the traced wall time, that the exact per-layer
counts equal the seed-state values, and that the output check and the failure
count catch what they should.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import use_checkout_source  # noqa: E402

use_checkout_source()

import layers  # noqa: E402
import measure  # noqa: E402
import outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_GRIDS = {
    "gauss_all_tasks": {"Ns": [300], "ns": [6], "rhos": [0.1], "trials": 2},
    "orth_recover_large": {"Ns": [600], "ns": [8], "rhos": [0.05], "trials": 2},
    "advantage_table": {"Ns": [50], "ns": [5], "rhos": [0.2], "trials": 3, "D": 8},
}

# Exact per-layer counts at the seed state: a gaussian unit samples 5
# instances and builds 5 statistics; advantage runs once per trial.
SEED_COUNTS = {
    "gauss_all_tasks": (5, 5, 0),
    "orth_recover_large": (1, 1, 0),
    "advantage_table": (0, 0, 3),
}


def tiny(name: str):
    w = WORKLOADS[name]
    return replace(w, grid={**w.grid, **TINY_GRIDS[name]}, reference=None)


def test_benchmark_json_names_match_the_metrics_printed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    result, info = measure.run_workload(ROOT, tiny(name), 1, 0.2, False, tmp_path)
    assert result["correct"], info["check"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == measure.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["manifest"]["seed"] == 1 and info["manifest"]["workers"] == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_counts_and_self_times(name, tmp_path):
    w = tiny(name)
    run = measure.traced_run(w, 1, 0.2, tmp_path)
    metrics = measure.per_layer(w, run)

    assert set(metrics) | set(layers.metric_units()) == set(measure.per_layer_units())
    counts = (
        metrics["model_gen.instances_per_unit"],
        metrics["spectral.statistics_per_unit"],
        metrics["lowdeg.advantage_calls_per_cell"],
    )
    assert counts == SEED_COUNTS[name]
    assert metrics["harness.error_rows"] == 0

    spans = run.tracer.finished()
    assert len(spans) == len(run.tracer.spans)  # every span closed
    traced_wall = sum(p.wall_s for p in run.traced)
    assert all(s.self_s >= -1e-9 for s in spans)
    assert sum(s.self_s for s in spans) <= traced_wall
    # Tracing changes no output.
    assert [outputs.without_timing(p.rows) for p in run.traced] == [
        outputs.without_timing(p.rows) for p in run.untraced
    ]
    if name == "advantage_table":
        # The overflow probe raises out of run_sweep: all its units fail.
        assert run.probe[0].rows is None and "OverflowError" in run.probe[0].error
        assert metrics["harness.failed_frac"] == pytest.approx(2 / 5)
    else:
        assert metrics["harness.failed_frac"] == 0


def test_layer_microbenchmarks_report_every_size():
    metrics = layers.measure(seed=1, repeats=1, advantage_repeats=1)
    assert set(metrics) == set(layers.metric_units())
    assert all(v > 0 for v in metrics.values())


def test_reference_check_catches_flipped_bits_and_drift():
    ref = outputs.parse_rows(WORKLOADS["gauss_all_tasks"].reference.read_text())
    assert outputs.compare_to_reference(ref, ref) == []

    flipped = [dict(r) for r in ref]
    flipped[0]["success"] = "0" if flipped[0]["success"] == "1" else "1"
    assert len(outputs.compare_to_reference(flipped, ref)) == 1

    for scale, n_issues in ((1 + 1e-4, 1), (1 + 1e-9, 0)):
        drifted = [dict(r) for r in ref]
        drifted[0]["l2_error"] = repr(float(drifted[0]["l2_error"]) * scale)
        assert len(outputs.compare_to_reference(drifted, ref)) == n_issues

    assert len(outputs.compare_to_reference(ref[:-1], ref)) == 1


def test_failed_units_counts_error_rows_and_raising_sweeps():
    w = tiny("gauss_all_tasks")
    units = w.units()
    assert outputs.failed_units(None, units, w.tasks) == len(units)
    rows = [
        {"N": "300", "n": "6", "rho": "0.1", "trial": str(t), "task": task, "success": "0",
         "l2_error": "", "entrywise_err": "", "statistic": "0.5" if t else "", "adv": ""}
        for t in range(2) for task in w.tasks
    ]
    assert outputs.failed_units(rows, units, w.tasks) == 1
    assert outputs.error_rows(rows) == 3


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def test_command_line_contract():
    done = _run_bench(ROOT, "--workload", "advantage_table", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(measure.END_TO_END_UNITS)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--workload", "gauss_all_tasks", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
