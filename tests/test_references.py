"""Byte identity of default-seed sweeps against the committed references.

The benchmark's `advantage_table` and `gauss_all_tasks` grids are run at the
reference seed through `python -m pvlab.cli sweep`, serially and on two
worker threads, and the CSV each prints must equal its file in
`bench/references/` byte for byte.  The sweep pins one BLAS thread (the
count the references were written with) in-process, so these runs inherit
the caller's BLAS environment, and one run asks for two BLAS threads.
`orth_recover_large` takes several seconds and is checked by the benchmark
instead; a small `orth` sweep whose basis spans several fill blocks is
pinned here in its place.  Every other command runs under the same pin, so
`gen` and `estimate` print the same bytes under one and two BLAS threads.
"""

import hashlib
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
    done = _sweep(config, tmp_path, "--workers", str(workers))
    assert done.stdout == workload.reference.read_bytes()


def test_two_blas_threads_requested_still_match_reference(tmp_path):
    workload = workloads.WORKLOADS["gauss_all_tasks"]
    config = workload.write_config(tmp_path / "gauss.json", workloads.DEFAULT_SEED)
    done = _sweep(config, tmp_path, OPENBLAS_NUM_THREADS="2")
    assert done.stdout == workload.reference.read_bytes()


def _sweep(config, cwd, *args, **env_overrides):
    """`pvlab sweep` on `config` in a subprocess; fails on a nonzero exit."""
    return _pvlab(cwd, "sweep", "--config", str(config), *args, **env_overrides)


def _pvlab(cwd, *args, **env_overrides):
    """`pvlab` with `args` in a subprocess; fails on a nonzero exit."""
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pvlab.cli", *args],
        capture_output=True, env=env, cwd=cwd, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done


ORTH_CELL = ("--N", "4000", "--n", "100", "--rho", "0.05", "--model", "orth")


def test_gen_under_two_blas_threads_matches_one_thread_digest(tmp_path):
    # The digest of this dump under OPENBLAS_NUM_THREADS=1.
    done = _pvlab(tmp_path, "gen", *ORTH_CELL, OPENBLAS_NUM_THREADS="2")
    digest = "6148f231c144bf3be3703d9cd8583bb92f734b4641f0c4b7c3c794aa43184ea2"
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_estimate_dump_independent_of_blas_threads(tmp_path):
    dumps = []
    for threads in ("1", "2"):
        path = tmp_path / f"estimate-{threads}.csv"
        _pvlab(tmp_path, "estimate", "--N", "20000", "--n", "100", "--rho", "0.05",
               "--model", "orth", "--dump-estimate", str(path), OPENBLAS_NUM_THREADS=threads)
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]


ORTH_SWEEP_CSV = """\
N,n,rho,trial,task,success,l2_error,entrywise_err,statistic,adv,elapsed_ms
3000,40,0.02,0,recover,1,0.020991311546147633,0.07500120405815662,0.01494242497377609,,
3000,40,0.02,1,recover,1,0.029780297074128617,0.09652726027297774,0.01486998504066151,,
3000,40,0.05,0,recover,1,0.0440900111278074,0.1717059089629881,0.0064971937619229285,,
3000,40,0.05,1,recover,1,0.0631181510648344,0.27476889761077394,0.0054570767703971575,,
"""


def test_small_orth_sweep_pinned(tmp_path):
    config = tmp_path / "orth.json"
    config.write_text(json.dumps(
        {"Ns": [3000], "ns": [40], "rhos": [0.02, 0.05], "trials": 2, "model": "orth",
         "tasks": ["recover"], "seed": 0}
    ))
    assert _sweep(config, tmp_path).stdout.decode() == ORTH_SWEEP_CSV
