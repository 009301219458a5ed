"""A unit's two instances sampled side by side: a unit is its instances.

A sweep unit whose tasks ask for two distinct instances (`gaussian` with
recover and a detect task, or a detect task alone) samples and estimates
both at its first ask, each into its own half of the calling thread's
sample buffer, as `pvlab._blas`'s two pieces: the first on the calling
thread, the second on the worker.  It does so only when the buffer already
holds two samples, which `run_sweep` arranges by sizing it to the sweep's
largest cell first.  These tests run under one BLAS thread set in-process,
where the worker takes a piece, and check that paired units keep the bytes,
error rows and log lines of units sampled one instance at a time, that
pairing never grows the buffer, and that a piece's own products run in
order on its thread.
"""

import logging
import threading

import pytest

from pvlab import detection, harness, spectral
from pvlab.detection import estimate_instance, estimator
from pvlab.harness import SweepConfig, run_sweep
from pvlab.model_gen import SeedSpec

from test_buffer import assert_same_bytes, this_threads_buffer
from test_detection import blas_threads, on_a_fresh_thread
from test_threads import worker_calls  # noqa: F401 (a fixture)

ALL_DETECTION = ("recover", "detect_spectral", "detect_l1l2")
PAIRED_TASKS = [ALL_DETECTION, ("detect_spectral",), ("detect_l1l2", "recover")]


def on_one_blas_thread(fn):
    """fn() on a fresh thread, without a sample buffer, under one BLAS thread."""
    with blas_threads(1):
        return on_a_fresh_thread(fn)


def cell_by_cell(config):
    """run_sweep's records with each cell swept alone on a fresh thread,
    whose buffer never has room for two of its instances."""
    return [
        record
        for N, n, rho in config.cells()
        for record in on_one_blas_thread(
            lambda: run_sweep(SweepConfig(**{**vars(config), "Ns": [N], "ns": [n], "rhos": [rho]}))
        )
    ]


@pytest.mark.parametrize("tasks", PAIRED_TASKS, ids="+".join)
def test_paired_units_keep_the_bytes_of_unpaired_ones(tasks, worker_calls):
    # The 4000 x 20 cells fit twice in the 4000 x 100 cells' buffer, so
    # their units pair: one more worker submission each than alone, where
    # their one row block hands nothing over.
    config = SweepConfig(Ns=[4000], ns=[20, 100], rhos=[0.02, 0.2], trials=2, tasks=tasks)
    worker_calls.clear()
    expected = cell_by_cell(config)
    unpaired_calls = len(worker_calls)
    worker_calls.clear()
    got = on_one_blas_thread(lambda: run_sweep(config))
    assert len(worker_calls) == unpaired_calls + 2 * config.trials
    assert got == expected
    assert all(record.statistic_value is not None for record in got)  # no error rows


def test_a_degenerate_draw_in_a_paired_unit_writes_error_rows(worker_calls, caplog):
    # At N = 50, rho = 0.002 most planted draws are all zero: each task that
    # asks for the planted instance gets its DegenerateDrawError, as it
    # does when the instances are sampled one at a time.
    config = SweepConfig(Ns=[50], ns=[2, 4], rhos=[0.002], trials=6, tasks=ALL_DETECTION)
    with caplog.at_level(logging.WARNING, logger="pvlab"):
        expected = cell_by_cell(config)
        unpaired_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        worker_calls.clear()
        got = on_one_blas_thread(lambda: run_sweep(config))
        paired_log = [r.getMessage() for r in caplog.records]
    assert len(worker_calls) >= config.trials  # the 50 x 2 units paired
    assert got == expected
    assert paired_log == unpaired_log
    failed = [r for r in got if r.n == 2 and not r.success and r.statistic_value is None]
    assert {r.task for r in failed} == set(ALL_DETECTION)


def samples_into(monkeypatch):
    """The (model, thread name, first byte's address) of each sample drawn
    while the test runs."""
    seen, sample = [], detection.sample_observation

    def recorder(model, *args, out=None, **kwargs):
        seen.append((model, threading.current_thread().name, out.ctypes.data))
        return sample(model, *args, out=out, **kwargs)

    monkeypatch.setattr(detection, "sample_observation", recorder)
    return seen


def test_pairing_never_grows_the_buffer(worker_calls, monkeypatch):
    # With room for one sample, a pair's first ask samples one instance;
    # with room for two, each instance goes into its own half, one of them
    # on the worker, and the buffer stays the one it was.
    N, n, rho, seed = 3000, 20, 0.05, SeedSpec(81)
    models = ("gaussian", "null")
    seen = samples_into(monkeypatch)

    def trials():
        estimate_instance("orth", N, n, rho, seed)
        one = this_threads_buffer()
        single = estimator(N, n, rho, seed, models)
        single("gaussian")
        assert this_threads_buffer() is one and one.size == N * n
        calls = len(worker_calls)
        estimate_instance("orth", N, 2 * n, rho, seed)
        two = this_threads_buffer()
        paired = estimator(N, n, rho, seed, models)
        got = [paired(model) for model in models]
        assert this_threads_buffer() is two and two.size == 2 * N * n
        assert len(worker_calls) == calls + 1
        return one.ctypes.data, two.ctypes.data, got

    one, two, got = on_one_blas_thread(trials)
    for model, result in zip(models, got):
        assert_same_bytes(result, on_one_blas_thread(lambda: estimate_instance(model, N, n, rho, seed)))
    caller = seen[0][1]
    assert seen[:3] == [("orth", caller, one), ("gaussian", caller, one), ("orth", caller, two)]
    (gaussian, null) = sorted(seen[3:5])  # the two pieces, in either order
    assert gaussian == ("gaussian", caller, two)
    assert null[0] == "null" and null[1].startswith("pvlab-blas")
    assert null[2] == two + N * n * 8  # the second half, not the first


@pytest.mark.parametrize(
    "tasks, model, pairs",
    [
        (ALL_DETECTION, "gaussian", True),
        (("detect_l1l2",), "orth", True),
        (("recover",), "gaussian", False),
        (("recover",), "orth", False),
        (ALL_DETECTION, "orth", False),  # three instances
        (("advantage",), "gaussian", False),
    ],
)
def test_a_sweep_sizes_the_buffer_first_only_when_its_units_pair(tasks, model, pairs, monkeypatch):
    # The first cell is the smaller: a sweep whose units pair meets it with
    # the larger cell's buffer, any other with none or its own.
    config = SweepConfig(Ns=[2000], ns=[10, 30], rhos=[0.1], trials=1, model=model, tasks=tasks)
    sizes, sample = [], detection.sample_observation

    def recorder(*args, **kwargs):
        buffer = this_threads_buffer()
        if buffer is not None:  # a calling thread's, not the worker's
            sizes.append(buffer.size)
        return sample(*args, **kwargs)

    monkeypatch.setattr(detection, "sample_observation", recorder)
    before = on_one_blas_thread(lambda: (run_sweep(config), this_threads_buffer())[1])
    if tasks == ("advantage",):
        assert before is None and not sizes
    else:
        assert sizes[0] == (2000 * 30 if pairs else 2000 * 10)


def test_a_piece_runs_its_products_in_order(worker_calls, monkeypatch):
    # 10000 x 50 has four row blocks, so each instance's products would
    # hand a piece to the worker; inside a pair each piece sums all its own
    # blocks on its own thread, and the pair is the one submission.
    N, n, rho, seed = 10000, 50, 0.05, SeedSpec(83)
    models = ("null", "gaussian")
    real, summed_on = spectral._row_weights, []

    def weights(rows, N):
        summed_on.append(threading.current_thread().name)
        return real(rows, N)

    def trial():
        detection._sample_buffer(N, 2 * n)
        worker_calls.clear()
        estimate = estimator(N, n, rho, seed, models)
        got = [estimate(model) for model in models]
        assert len(worker_calls) == 1
        return threading.current_thread().name, got

    monkeypatch.setattr(spectral, "_row_weights", weights)
    caller, got = on_one_blas_thread(trial)
    workers = {name for name in summed_on if name.startswith("pvlab-blas")}
    assert len(workers) == 1
    assert summed_on.count(caller) == summed_on.count(*workers) == 4
    monkeypatch.undo()
    for model, result in zip(models, got):
        assert_same_bytes(result, on_one_blas_thread(lambda: estimate_instance(model, N, n, rho, seed)))


def test_a_buffer_too_large_to_size_first_leaves_the_sweep_to_its_units(monkeypatch):
    # The pre-size allocates the largest cell's buffer before any unit runs;
    # where that fails, each unit allocates its own, as without pairing,
    # so a cell too large for memory records error rows, not a crashed sweep.
    config = SweepConfig(Ns=[2000], ns=[10, 30], rhos=[0.1], trials=2, tasks=ALL_DETECTION)
    expected = on_one_blas_thread(lambda: run_sweep(config))

    def out_of_memory(N, n):
        raise MemoryError(f"cannot allocate {N} x {n}")

    monkeypatch.setattr(harness, "_sample_buffer", out_of_memory)
    assert on_one_blas_thread(lambda: run_sweep(config)) == expected
