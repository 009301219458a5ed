"""Tests for the per-thread sample buffer of `detection.estimate_instance`.

A trial samples into its thread's one grow-only float64 buffer instead of a
fresh N x n array: the bytes it returns must be those of the fresh-array
path, nothing it returns may share the buffer's memory, and a later trial
must not change an earlier result.  The buffer lives as long as its thread,
so that freeing a smaller basis never leaves it resident on glibc's heap
next to a larger one; a subprocess checks that through its max RSS.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pvlab._blas import one_blas_thread
from pvlab.detection import estimate_instance, sample_observation
from pvlab.harness import SweepConfig, run_sweep
from pvlab.model_gen import SeedSpec

from placing import assert_same_bytes, on_a_fresh_thread, public_parts, this_threads_buffer

ROOT = Path(__file__).resolve().parents[1]

MODELS = ["gaussian", "orth", "null"]


def returned_arrays(result, v):
    arrays = [result.statistic, result.raw_estimate]
    return arrays if v is None else [*arrays, v]


# A grow (3000 x 40 -> 40000 x 200), then a shrink back into the larger buffer.
SHAPES = [(3000, 40), (40000, 200), (3000, 40)]


@pytest.mark.parametrize("model", MODELS)
def test_buffered_trials_give_the_fresh_bytes(model):
    def trials():
        with one_blas_thread():
            for t, (N, n) in enumerate(SHAPES):
                seed = SeedSpec(62, t)
                got = estimate_instance(model, N, n, 0.05, seed)
                assert_same_bytes(got, public_parts(model, N, n, 0.05, seed))
                buffer = this_threads_buffer()
                assert buffer.size == max(N * n for N, n in SHAPES[: t + 1])
                for array in returned_arrays(*got):
                    assert not np.shares_memory(array, buffer)

    on_a_fresh_thread(trials)


@pytest.mark.parametrize("model", MODELS)
def test_an_earlier_result_survives_later_trials(model):
    def trials():
        first = estimate_instance(model, 3000, 40, 0.05, SeedSpec(63))
        before = [array.copy() for array in returned_arrays(*first)]
        for t, (N, n) in enumerate([(3000, 40), (5000, 60), (2000, 10)]):
            for other in MODELS:
                estimate_instance(other, N, n, 0.05, SeedSpec(64, t))
        for array, copy in zip(returned_arrays(*first), before):
            assert array.tobytes() == copy.tobytes()

    on_a_fresh_thread(trials)


def test_the_buffer_only_grows_and_is_reused():
    def trials():
        assert this_threads_buffer() is None
        estimate_instance("gaussian", 3000, 40, 0.05, SeedSpec(65))
        small = this_threads_buffer()
        assert small.size == 3000 * 40
        estimate_instance("orth", 2000, 50, 0.05, SeedSpec(65))
        assert this_threads_buffer() is small  # 2000 x 50 fits in 3000 x 40
        estimate_instance("null", 3000, 41, 0.05, SeedSpec(65))
        grown = this_threads_buffer()
        assert grown is not small and grown.size == 3000 * 41
        estimate_instance("gaussian", 100, 5, 0.05, SeedSpec(65))
        assert this_threads_buffer() is grown

    on_a_fresh_thread(trials)


def test_threads_keep_their_own_buffers():
    mine = this_threads_buffer()

    def trial():
        estimate_instance("null", 500, 4, 0.5, SeedSpec(66))
        return this_threads_buffer()

    theirs = on_a_fresh_thread(trial)
    assert theirs is not None and theirs is not mine
    assert this_threads_buffer() is mine


def test_public_samplers_do_not_use_the_buffer():
    def trials():
        estimate_instance("gaussian", 3000, 40, 0.05, SeedSpec(67))
        buffer = this_threads_buffer()
        for model in MODELS:
            Y, v = sample_observation(model, 3000, 40, 0.05, SeedSpec(67))
            assert not any(np.shares_memory(a, buffer) for a in (Y, v) if a is not None)

    on_a_fresh_thread(trials)


def test_out_of_domain_instance_leaves_the_buffer_alone():
    def trials():
        for N, n, rho in [(5, 10, 0.5), (-5, 2, 0.5), (5, 2, 0.0), (4000.0, 20, 0.5)]:
            with pytest.raises(ValueError):
                estimate_instance("gaussian", N, n, rho, SeedSpec(68))
        return this_threads_buffer()

    assert on_a_fresh_thread(trials) is None


def test_advantage_only_sweep_allocates_no_buffer():
    # The advantage_table grid's 1e6 x 1000 cell would need an 8 GB buffer.
    config = SweepConfig(
        Ns=[1000000], ns=[1000], rhos=[0.01], trials=2, tasks=["advantage"], D=8
    )

    def sweep():
        records = run_sweep(config)
        assert all(record.success for record in records)
        return this_threads_buffer()

    assert on_a_fresh_thread(sweep) is None


RSS_CHILD = textwrap.dedent(
    """
    import json, resource, sys
    from pvlab.harness import SweepConfig, run_sweep

    config = SweepConfig(**json.loads(sys.argv[1]))
    for _ in range(2):  # one process, as the benchmark runs its passes
        run_sweep(config)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
)


def max_rss_kb(grid: dict) -> int:
    """ru_maxrss of a fresh process that runs the sweep `grid` twice."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RSS_CHILD, json.dumps(grid)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's malloc; ru_maxrss in KiB")
def test_a_smaller_freed_basis_does_not_stay_resident():
    # Trials at 40000 x 100 and 40000 x 200 in one process used to peak about
    # 25% above trials at 40000 x 200 alone (138 against 110 MB): the freed
    # 30.5 MiB basis stayed on glibc's heap beside the next 61 MiB one.
    grid = {"Ns": [40000], "ns": [100, 200], "rhos": [0.05], "trials": 1,
            "model": "orth", "tasks": ["recover"]}
    both = max_rss_kb(grid)
    larger_only = max_rss_kb({**grid, "ns": [200]})
    assert both <= 1.05 * larger_only, (both, larger_only)
