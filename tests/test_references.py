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
`gen` and `estimate` print the same bytes under one and two BLAS threads,
and so does a library call of a sampler inside the pin.
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
    digest = "40ef7d2626631a9856d6d66b184aa963b4265c4fca03316209d8a0796cdea112"
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_sampler_inside_the_pin_matches_one_thread_digest(tmp_path):
    # A library caller gets the one-thread bytes by sampling inside
    # one_blas_thread, whatever OPENBLAS_NUM_THREADS asks for; the digest is
    # test_blocked_second_pass_bytes_pinned's.
    code = (
        "import hashlib\n"
        "from pvlab._blas import one_blas_thread\n"
        "from pvlab.model_gen import SeedSpec, sample_orthonormal_instance\n"
        "with one_blas_thread():\n"
        "    Q, _ = sample_orthonormal_instance(40000, 2, 0.05, SeedSpec(57, 4))\n"
        "print(hashlib.sha256(Q.tobytes()).hexdigest())\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, cwd=tmp_path, timeout=300
    )
    assert done.returncode == 0, done.stderr.decode()
    digest = "1fb5b907c9cf2a0ee07ac0e4e80024d49d1b787f547be9b718a1000b09a0fdb4"
    assert done.stdout.decode().strip() == digest


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
3000,40,0.02,0,recover,1,0.020991311546147633,0.07500120405815665,0.01494242497377609,,
3000,40,0.02,1,recover,1,0.029780297074128634,0.09652726027297773,0.014869985040661495,,
3000,40,0.05,0,recover,1,0.044090011127807395,0.17170590896298804,0.00649719376192293,,
3000,40,0.05,1,recover,1,0.06311815106483444,0.2747688976107741,0.005457076770397158,,
"""


def test_small_orth_sweep_pinned(tmp_path):
    config = tmp_path / "orth.json"
    config.write_text(json.dumps(
        {"Ns": [3000], "ns": [40], "rhos": [0.02, 0.05], "trials": 2, "model": "orth",
         "tasks": ["recover"], "seed": 0}
    ))
    assert _sweep(config, tmp_path).stdout.decode() == ORTH_SWEEP_CSV
