"""Byte identity of default-seed sweeps against the committed references.

The benchmark's `advantage_table` and `gauss_all_tasks` grids are run at the
reference seed through `python -m pvlab.cli sweep` with one BLAS thread (the
thread count the references were written with), serially and on two worker
threads, and the CSV each prints must equal its file in `bench/references/`
byte for byte.  `orth_recover_large` takes several seconds and is checked by
the benchmark instead; a small `orth` sweep whose basis spans several fill
blocks is pinned here in its place.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize(
    ("name", "workers"),
    [
        pytest.param(name, workers, id=name if workers == 1 else f"{name}-workers{workers}")
        for name in ("advantage_table", "gauss_all_tasks")
        for workers in (1, 2)
    ],
)
def test_default_seed_sweep_matches_reference(name, workers, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = workload.write_config(tmp_path / f"{name}.json", workloads.DEFAULT_SEED)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pvlab.cli", "sweep", "--config", str(config),
         "--workers", str(workers)],
        capture_output=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == workload.reference.read_bytes()


ORTH_SWEEP_CSV = """\
N,n,rho,trial,task,success,l2_error,entrywise_err,statistic,adv,elapsed_ms
3000,40,0.02,0,recover,1,0.020991311546147633,0.07500120405815669,0.014942424973776087,,
3000,40,0.02,1,recover,1,0.02978029707412863,0.0965272602729777,0.014869985040661499,,
3000,40,0.05,0,recover,1,0.04409001112780741,0.17170590896298804,0.006497193761922931,,
3000,40,0.05,1,recover,1,0.0631181510648346,0.27476889761077483,0.005457076770397145,,
"""


def test_small_orth_sweep_pinned(tmp_path):
    config = tmp_path / "orth.json"
    config.write_text(json.dumps(
        {"Ns": [3000], "ns": [40], "rhos": [0.02, 0.05], "trials": 2, "model": "orth",
         "tasks": ["recover"], "seed": 0}
    ))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pvlab.cli", "sweep", "--config", str(config)],
        capture_output=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == ORTH_SWEEP_CSV
