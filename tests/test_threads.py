"""Where pvlab places a trial's work never moves a bit.

Under one BLAS thread a trial's work runs on the calling thread and pvlab's
worker thread (`pvlab._blas`) at three levels: a product's row blocks as
two pieces, a trial's draw behind its own products, and a sweep unit's two
instances side by side, in two halves of the thread's sample buffer.  A
sweep's cell threads keep their pieces in order.  These tests place the
work only as the program does (`placing.placed`; and `run_sweep(workers=2)`)
and check, level by level, that every placement gives the bytes of the
plain-numpy row-block rule (`sampled.py`) or of the public parts sampled
first, that no block is read before its rows are drawn, that no piece
waits for the worker, that pairing keeps the error rows and log lines of
units sampled one instance at a time and never grows the buffer, that a
forked child hands its pieces to a worker of its own, and that a failure
on either thread reaches the caller once both have stopped.
"""

import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvlab import _blas, detection, harness, model_gen, spectral
from pvlab.detection import error_rates, estimate_instance, estimator
from pvlab.harness import SweepConfig, run_sweep
from pvlab.model_gen import (
    SeedSpec,
    apply_rotation,
    orthonormalize,
    sample_orthonormal_instance,
    sample_rotated_instance,
)
from pvlab.spectral import build_statistic

from placing import (
    assert_same_bytes,
    blas_threads,
    on_the_worker,
    placed,
    public_parts,
    this_threads_buffer,
)
from sampled import (
    basis_around,
    first_pass_error,
    lane_rotation,
    one_call_statistic,
    row_block_statistic,
    row_block_sum,
    unit_basis,
)

# The placements of the tests that take one as a parameter.
PLACEMENTS = ["worker", "in_order"]
MODELS = ["gaussian", "null", "orth"]


def ids(shapes):
    return [f"{N}x{n}" for N, n in shapes]


def basis(N, n, collinear=False):
    Y = np.random.default_rng(1000 * N + n).normal(size=(N, n)) / np.sqrt(N)
    if collinear:  # cond(Y) ~ 1e4: the first CholeskyQR pass is not orthonormal
        Y[:, 1] = Y[:, 0] + 1e-4 * Y[:, 1]
    return Y


def rotation(n):
    Q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
    return Q


def assert_near_one_call(M, Y):
    """M, an uncentered statistic of Y, is within 1e-13 relative of one
    product.  (Centered, at 2.1 million rows, M keeps about three fewer
    digits of the diagonal.)"""
    one_call = one_call_statistic(Y, centered=False)
    assert np.max(np.abs(M - one_call)) <= 1e-13 * np.max(np.abs(one_call))


# -- A product's row blocks as two pieces ----------------------------------


def times_and_sum(Y):
    """Y @ R and the uncentered statistic over it, as one array: a `gaussian`
    trial's product and its sum."""
    Q = apply_rotation(Y, rotation(Y.shape[1]))
    return np.concatenate([Q.ravel(), build_statistic(Q, centered=False).ravel()])


PRODUCTS = {
    "gram": lambda Y: build_statistic(Y, centered=False),  # the weighted sum alone
    "times_and_sum": times_and_sum,
    "build_statistic": build_statistic,
    "apply_rotation": lambda Y: apply_rotation(Y, rotation(Y.shape[1])),
    "orthonormalize_one_pass": orthonormalize,
    "orthonormalize_two_passes": orthonormalize,  # of a collinear basis
}

# Both sides of the small-kernel bound; the last two split every product.
PRODUCT_SHAPES = [(3000, 20), (4000, 17), (5000, 20), (20000, 10), (1026, 33), (40000, 2),
                  (10000, 100), (40000, 200)]
SPLIT_EVERY_PRODUCT = {(10000, 100), (40000, 200)}


@pytest.mark.parametrize("N, n", PRODUCT_SHAPES, ids=ids(PRODUCT_SHAPES))
@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_placement_never_moves_bits(product, N, n, worker_calls):
    Y = basis(N, n, collinear=product.endswith("two_passes"))
    if product.endswith("two_passes"):
        assert first_pass_error(Y) > n * np.finfo(np.float64).eps
    two_threads = placed("worker", lambda: PRODUCTS[product](Y))
    if (N, n) in SPLIT_EVERY_PRODUCT:
        assert worker_calls
    worker_calls.clear()
    one_thread = placed("in_order", lambda: PRODUCTS[product](Y))
    assert not worker_calls
    assert two_threads.tobytes() == one_thread.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), N=st.integers(1, 40000), seed=st.integers(0, 2**32 - 1))
# Short remainders joining the last block, and row blocks of about a
# million rows at n = 2 and 3.
@example(n=77, N=12345, seed=0)
@example(n=50, N=20001, seed=0)
@example(n=150, N=7000, seed=0)
@example(n=10, N=200000, seed=0)
@example(n=2, N=2_100_000, seed=0)
@example(n=3, N=2_100_000, seed=0)
def test_split_products_equal_one_call(n, N, seed):
    # The statistic has the bytes of the plain-numpy row-block sum in either
    # placement, and a rotation those of one product.
    N = max(N, n)
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(N, n)) / np.sqrt(N)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    with _blas.one_blas_thread():
        reference = row_block_statistic(Y).tobytes()
        assert_near_one_call(build_statistic(Y, centered=False), Y)
        assert apply_rotation(Y, Q).tobytes() == (Y @ Q).tobytes()
    for placement in PLACEMENTS:
        assert placed(placement, lambda: build_statistic(Y)).tobytes() == reference


# Shape -> whether the worker shares the statistic's sum: fewer rows than
# columns, one row block (up to N = 4095 at n = 50), nine blocks with a
# remainder, a remainder joining the last block, and at n = 2 and 3 about a
# million rows a block.
STATISTIC_SHAPES = {(1, 50): False, (2, 50): False, (3, 50): False, (1025, 50): False,
                    (20001, 50): True, (12345, 77): True, (7000, 150): True,
                    (200000, 10): True, (2_100_000, 2): True, (2_100_000, 3): True}


BLOCKED_SHAPES = [shape for shape in STATISTIC_SHAPES if shape[1] != 50]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", BLOCKED_SHAPES, ids=ids(BLOCKED_SHAPES))
def test_blocked_statistic_equals_one_call(N, n, placement, worker_calls):
    Y = basis(N, n)
    assert_near_one_call(placed(placement, lambda: build_statistic(Y, centered=False)), Y)
    assert bool(worker_calls) == (placement == "worker" and STATISTIC_SHAPES[N, n])


# The same check at n = 50, under the name and ids (N alone) it has had.
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N", [N for N, n in STATISTIC_SHAPES if n == 50])
def test_gram_is_the_half_sum(N, placement, worker_calls):
    test_blocked_statistic_equals_one_call(N, 50, placement, worker_calls)


BLOCKED_STATISTIC = [(12345, 77), (7000, 150), (200000, 10)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", BLOCKED_STATISTIC, ids=ids(BLOCKED_STATISTIC))
def test_times_and_sum_is_times_and_the_weighted_sum(N, n, placement, worker_calls):
    # apply_rotation leaves Y unwritten, the statistic's sum leaves the
    # product unwritten, and the sum is within 1e-13 of one product.
    Y, R = basis(N, n), rotation(n)
    before = Y.copy()

    def trial():
        Q = apply_rotation(Y, R)
        product = Q.copy()
        T = build_statistic(Q, centered=False)
        assert Q.tobytes() == product.tobytes()
        return Q, T

    Q, T = placed(placement, trial)
    assert bool(worker_calls) == (placement == "worker")
    assert Y.tobytes() == before.tobytes()
    assert_near_one_call(T, Q)


# One product (3000 x 40), row blocks (25000 x 20, 10000 x 100), and a
# basis whose first CholeskyQR pass is not orthonormal (40000 x 2).
SAMPLED = [(3000, 40), (25000, 20), (10000, 100), (40000, 2)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", SAMPLED, ids=ids(SAMPLED))
def test_samplers_equal_the_out_of_place_products(N, n, placement):
    # The samplers write their products over the drawn basis; the public
    # functions on a rebuilt basis give the same bytes.
    seed = SeedSpec(57, 4)

    def compare():
        rotated, v = sample_rotated_instance(N, n, 0.05, seed)
        out_of_place = apply_rotation(basis_around(v, n, seed), lane_rotation(n, seed))
        assert rotated.tobytes() == out_of_place.tobytes()
        orth, _ = sample_orthonormal_instance(N, n, 0.05, seed)
        assert orth.tobytes() == orthonormalize(unit_basis(N, n, 0.05, seed)).tobytes()

    placed(placement, compare)


# Collinear bases whose second pass, taken as 1024-row blocks, differed
# from one full product in the last bits, and one of 40000 rows.
SECOND_PASS = [(5000, 17), (5000, 18), (5000, 20), (20000, 19), (1026, 34), (40000, 2)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", SECOND_PASS, ids=ids(SECOND_PASS))
def test_second_pass_equals_one_full_product(N, n, placement):
    # The one two-pass CholeskyQR2 reference: full products over Gram
    # matrices summed as the row-block rule sums them.
    Y = basis(N, n, collinear=True)
    Q = placed(placement, lambda: orthonormalize(Y))
    with _blas.one_blas_thread():
        assert first_pass_error(Y) > n * np.finfo(np.float64).eps
        Q1 = Y @ np.linalg.inv(np.linalg.cholesky(row_block_sum(Y, weighted=False)).T)
        full = Q1 @ np.linalg.inv(np.linalg.cholesky(row_block_sum(Q1, weighted=False)).T)
    assert Q.tobytes() == full.tobytes()


# -- A trial behind its draw -----------------------------------------------

# One row block at 4000 x 20 and 1025 x 7; two at 2560 x 100 (the second of
# 1536 rows); three at 4000 x 100; nine at 10000 x 100 (the last of 1808
# rows); twelve at 12345 x 77 (the last of 1081 rows); 39 at 40000 x 200.
TRIAL_SHAPES = [(4000, 20), (2560, 100), (4000, 100), (10000, 100), (12345, 77), (1025, 7),
                (40000, 200)]
ONE_BLOCK = {(4000, 20), (1025, 7)}


@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("N, n", TRIAL_SHAPES, ids=ids(TRIAL_SHAPES))
def test_a_trial_behind_its_draw_has_the_inline_bytes(N, n, model, centered, worker_calls):
    seed = SeedSpec(71, N + n)
    expected = placed("in_order", lambda: public_parts(model, N, n, 0.05, seed, centered))
    assert not worker_calls
    got = placed("worker", lambda: estimate_instance(model, N, n, 0.05, seed, centered))
    assert_same_bytes(got, expected)
    assert bool(worker_calls) == ((N, n) not in ONE_BLOCK)


@pytest.mark.parametrize("model", MODELS)
def test_two_blas_threads_draw_inline(model, worker_calls):
    N, n, seed = 10000, 100, SeedSpec(71, 2)
    got = placed("two_blas", lambda: estimate_instance(model, N, n, 0.05, seed))
    expected = placed("two_blas", lambda: public_parts(model, N, n, 0.05, seed))
    assert not worker_calls
    assert_same_bytes(got, expected)


# Blocks longer than one draw step of 1024 rows: the second at 2560 x 100,
# the last at 12345 x 77, and all three at 40000 x 20 (11264, 11264, 17472).
LONG_BLOCKS = [(2560, 100), (12345, 77), (40000, 20)]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("N, n", LONG_BLOCKS, ids=ids(LONG_BLOCKS))
def test_no_block_is_read_before_its_rows_are_drawn(N, n, model, worker_calls, monkeypatch):
    # The sample buffer starts as NaN and each draw step waits before it
    # writes its rows, so a block read one step early makes M non-finite.
    # The products are on the worker before the draw starts.
    seed = SeedSpec(73, 2)
    expected = placed("in_order", lambda: public_parts(model, N, n, 0.05, seed))
    real = model_gen._normal_rows
    worker_calls_at_draw = []

    def slow(rng, Y):
        worker_calls_at_draw.append(len(worker_calls))
        for rows in real(rng, Y):
            yield rows
            time.sleep(0.002)

    def trial():
        detection._sample_buffer(N, n)[...] = np.nan
        return estimate_instance(model, N, n, 0.05, seed)

    monkeypatch.setattr(model_gen, "_normal_rows", slow)
    got = placed("worker", trial)
    assert worker_calls_at_draw == [1]
    assert np.isfinite(got[0].statistic).all()
    assert_same_bytes(got, expected)


def test_trials_on_many_threads_never_wait_on_the_worker(worker_calls, monkeypatch):
    # More calling threads than cores, switching often, each running trials
    # behind their draws: a caller hands its products to the worker only
    # when no other piece is out on it, and otherwise runs them in order
    # itself, so no piece waits in the worker's queue, and every trial keeps
    # its bytes.
    N, n = 4000, 100
    cases = [(model, SeedSpec(79, t)) for t in range(3) for model in MODELS]
    expected = placed("in_order", lambda: [public_parts(m, N, n, 0.05, seed) for m, seed in cases])
    real, summed_on = spectral._row_weights, set()
    pool, out, out_at_submit = _blas._worker_pool, [], []

    def weights(rows, N):
        summed_on.add(threading.current_thread().name)
        return real(rows, N)

    class Watched:
        """The worker, noting how many pieces are out at each submission."""

        def submit(self, fn, *args):
            out_at_submit.append(len(out))
            out.append(1)

            def piece():
                try:
                    return fn(*args)
                finally:
                    out.pop()

            return pool().submit(piece)

    monkeypatch.setattr(spectral, "_row_weights", weights)
    monkeypatch.setattr(_blas, "_worker_pool", Watched)
    results, errors = {}, []

    def trials(i):
        try:
            results[i] = [estimate_instance(m, N, n, 0.05, seed) for m, seed in cases]
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_threads(1):
            threads = [threading.Thread(target=trials, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert worker_calls
    assert not any(out_at_submit)
    assert len({name for name in summed_on if name.startswith("pvlab-blas")}) == 1
    for got in results.values():
        for trial, want in zip(got, expected):
            assert_same_bytes(trial, want)


# -- A unit's two instances side by side -----------------------------------

ALL_DETECTION = ("recover", "detect_spectral", "detect_l1l2")
PAIRED_TASKS = [ALL_DETECTION, ("detect_spectral",), ("detect_l1l2", "recover")]


def cell_by_cell(config):
    """run_sweep's records with each cell swept alone on a fresh thread,
    whose buffer never has room for two of its instances."""
    return [
        record
        for N, n, rho in config.cells()
        for record in placed(
            "worker",
            lambda: run_sweep(SweepConfig(**{**vars(config), "Ns": [N], "ns": [n], "rhos": [rho]})),
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
    got = placed("worker", lambda: run_sweep(config))
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
        got = placed("worker", lambda: run_sweep(config))
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

    one, two, got = placed("worker", trials)
    for model, result in zip(models, got):
        assert_same_bytes(result, placed("worker", lambda: estimate_instance(model, N, n, rho, seed)))
    caller = seen[0][1]
    assert seen[:3] == [("orth", caller, one), ("gaussian", caller, one), ("orth", caller, two)]
    (gaussian, null) = sorted(seen[3:5])  # the two pieces, in either order
    assert gaussian == ("gaussian", caller, two)
    assert null[0] == "null" and null[1].startswith("pvlab-blas")
    assert null[2] == two + N * n * 8  # the second half, not the first


def test_error_rates_samples_one_instance_at_a_time(worker_calls):
    # A thread whose buffer an earlier, larger trial left with room for two
    # 3000 x 20 samples: `pvlab detect`'s trials still sample their null and
    # planted instances one after the other, and at one row block each hand
    # nothing to the worker.
    def trials():
        estimate_instance("orth", 3000, 40, 0.05, SeedSpec(81))
        return error_rates(3000, 20, 0.05, 0.05, 2, "spectral", SeedSpec(3))

    assert placed("worker", trials) == error_rates(3000, 20, 0.05, 0.05, 2, "spectral", SeedSpec(3))
    assert not worker_calls


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
    before = placed("worker", lambda: (run_sweep(config), this_threads_buffer())[1])
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
    caller, got = placed("worker", trial)
    workers = {name for name in summed_on if name.startswith("pvlab-blas")}
    assert len(workers) == 1
    assert summed_on.count(caller) == summed_on.count(*workers) == 4
    monkeypatch.undo()
    for model, result in zip(models, got):
        assert_same_bytes(result, placed("worker", lambda: estimate_instance(model, N, n, rho, seed)))


def test_a_buffer_too_large_to_size_first_leaves_the_sweep_to_its_units(monkeypatch):
    # The pre-size allocates the largest cell's buffer before any unit runs;
    # where that fails, each unit allocates its own, as without pairing,
    # so a cell too large for memory records error rows, not a crashed sweep.
    config = SweepConfig(Ns=[2000], ns=[10, 30], rhos=[0.1], trials=2, tasks=ALL_DETECTION)
    expected = placed("worker", lambda: run_sweep(config))

    def out_of_memory(N, n):
        raise MemoryError(f"cannot allocate {N} x {n}")

    monkeypatch.setattr(harness, "_sample_buffer", out_of_memory)
    assert placed("worker", lambda: run_sweep(config)) == expected


# -- A sweep's cell threads ------------------------------------------------


def test_sweep_cell_threads_keep_their_pieces(worker_calls):
    config = SweepConfig(Ns=[4000], ns=[100], rhos=[0.02, 0.05], trials=2,
                         tasks=("recover", "detect_spectral"))
    serial = run_sweep(config)
    assert worker_calls
    worker_calls.clear()
    assert run_sweep(config, workers=2) == serial
    assert not worker_calls


# -- The worker across a fork ---------------------------------------------

# A 10000 x 100 `gaussian` trial with a piece on the worker, then a child
# forked with `taken` free and one forked with it held: each child runs the
# trial again, and exits 0 only with the parent's bytes and a piece handed
# to a worker of its own.  A child whose piece never runs dies by its alarm.
FORK_SCRIPT = """
import contextlib, os, signal, sys, warnings
from pvlab import _blas
from pvlab.detection import estimate_instance
from pvlab.model_gen import SeedSpec

warnings.simplefilter("ignore", DeprecationWarning)  # fork() of a process with threads
pieces, pool = [], _blas._worker_pool

def counted():
    pieces.append(1)
    return pool()

def trial():
    result, v = estimate_instance("gaussian", 10000, 100, 0.05, SeedSpec(5))
    return result.statistic.tobytes() + result.raw_estimate.tobytes() + v.tobytes()

def forked(hold):
    with _blas.taken if hold else contextlib.nullcontext():
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            pieces.clear()
            os._exit(0 if trial() == expected and pieces else 1)
    return os.waitpid(pid, 0)[1]

_blas._worker_pool = counted
with _blas.one_blas_thread():
    expected = trial()
    assert pieces
    statuses = [forked(hold) for hold in (False, True)]
print("child wait statuses:", statuses)
sys.exit(any(statuses))
"""


def test_a_forked_child_hands_its_pieces_to_a_worker_of_its_own():
    # The fork hook forgets the parent's worker, whose thread the child does
    # not have, and frees `taken`.  The script runs in a session of its own,
    # so a timeout kills its children too.
    env = dict(os.environ)
    src = str(Path(_blas.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = subprocess.Popen([sys.executable, "-c", FORK_SCRIPT], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = script.communicate(timeout=150)
    finally:
        if script.poll() is None:
            os.killpg(script.pid, signal.SIGKILL)
            script.communicate()
    assert script.returncode == 0, output


# -- Failures on either thread ---------------------------------------------


def raising(w):
    raise FloatingPointError("the worker's piece failed")


def overflowing(w):
    return w * 1e300 * 1e300


class TestWorkerFailures:
    def test_worker_exception_reaches_the_caller_and_the_worker_recovers(
        self, worker_fault, worker_calls
    ):
        Y = basis(20000, 50)
        expected = placed("in_order", lambda: build_statistic(Y))
        worker_fault.append(raising)
        with pytest.raises(FloatingPointError, match="the worker's piece failed"):
            placed("worker", lambda: build_statistic(Y))
        worker_fault.clear()
        worker_calls.clear()
        assert placed("worker", lambda: build_statistic(Y)).tobytes() == expected.tobytes()
        assert worker_calls

    def test_caller_exception_waits_for_the_worker_piece(self, monkeypatch):
        # The caller's blocks raise while the worker sums one of its own,
        # slowly: the error reaches the caller only once no block is busy.
        real = spectral._row_weights
        busy, summing = [], threading.Event()

        def weights(rows, N):
            if not on_the_worker():
                summing.wait(timeout=10)
                raise RuntimeError("caller piece failed")
            busy.append(True)
            try:
                summing.set()
                time.sleep(0.02)
                return real(rows, N)
            finally:
                busy.pop()

        monkeypatch.setattr(spectral, "_row_weights", weights)
        Y = basis(20000, 50)
        with pytest.raises(RuntimeError, match="caller piece failed"):
            placed("worker", lambda: build_statistic(Y))
        assert summing.is_set()
        assert not busy

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_in_the_worker_half(self, value, worker_calls):
        Y = basis(20000, 50)
        Y[15000, 7] = value  # in the lower row half, the worker's
        with _blas.one_blas_thread():
            with pytest.raises(ValueError, match="column 7"):
                orthonormalize(Y)
            assert worker_calls
            Q = orthonormalize(basis(20000, 50))
        assert np.max(np.abs(Q.T @ Q - np.eye(50))) <= 1e-12

    def test_gram_overflow_on_two_threads(self, worker_calls):
        # Both piece Grams overflow, one of them on the worker, without a
        # warning; Householder QR answers as on one thread.
        Y = basis(20000, 50) * 1e160
        two_threads = placed("worker", lambda: orthonormalize(Y))
        assert worker_calls
        worker_calls.clear()
        one_thread = placed("in_order", lambda: orthonormalize(Y))
        assert not worker_calls
        assert two_threads.tobytes() == one_thread.tobytes()

    def test_caller_error_state_applies_to_the_worker_piece(self, worker_fault, worker_calls):
        # Weights that overflow on the worker only: the caller's
        # over="raise" makes the worker's piece raise, and "ignore" leaves
        # M non-finite.
        worker_fault.append(overflowing)
        Y = basis(20000, 50)

        def statistic(over):
            with np.errstate(over=over, invalid="ignore"):
                return build_statistic(Y)

        assert np.isfinite(placed("in_order", lambda: statistic("raise"))).all()
        with pytest.raises(FloatingPointError):
            placed("worker", lambda: statistic("raise"))
        assert worker_calls
        assert not np.isfinite(placed("worker", lambda: statistic("ignore"))).any()

    def test_weighted_sum_failures_in_the_worker_piece(self, worker_fault, worker_calls):
        # An `orth` trial sums its statistic as two pieces after its
        # products: a raising weight rule, and an overflow under the
        # caller's error state, in the worker's row blocks only reach the
        # caller, and the next trial keeps its bytes.
        def trial():
            with np.errstate(over="raise"):
                return estimate_instance("orth", 20000, 50, 0.05, SeedSpec(5))

        expected = placed("in_order", trial)
        for fault in (raising, overflowing):
            worker_fault[:] = [fault]
            with pytest.raises(FloatingPointError):
                placed("worker", trial)
        worker_fault.clear()
        assert worker_calls
        assert_same_bytes(placed("worker", trial), expected)

    def test_sweep_records_a_unit_whose_worker_piece_raised(self, worker_fault):
        config = SweepConfig(Ns=[20000], ns=[50], rhos=[0.05], trials=2, tasks=("recover",))
        expected = run_sweep(config)
        worker_fault.append(raising)
        failed = run_sweep(config)
        assert [(r.success, r.l2_error, r.statistic_value) for r in failed] == [(False, None, None)] * 2
        worker_fault.clear()
        assert run_sweep(config) == expected

    def test_sweep_records_a_unit_whose_draw_raised(self, worker_calls, monkeypatch):
        # The Gaussian draw runs behind the trial's products, which are on
        # the worker before it starts, and raises after writing its third
        # step of rows; the next sweep is clean.
        config = SweepConfig(Ns=[20000], ns=[50], rhos=[0.05], trials=2, tasks=("recover",))
        expected = run_sweep(config)
        real = model_gen._normal_rows

        def failing(rng, Y):
            for rows in real(rng, Y):
                if rows > 2048:
                    raise FloatingPointError("overflow in the draw")
                yield rows

        monkeypatch.setattr(model_gen, "_normal_rows", failing)
        worker_calls.clear()
        failed = run_sweep(config)
        assert len(worker_calls) == 2
        assert [(r.success, r.l2_error, r.statistic_value) for r in failed] == [(False, None, None)] * 2
        monkeypatch.undo()
        assert run_sweep(config) == expected

    def test_a_product_that_raises_waits_for_the_draw(self, monkeypatch):
        # The statistic overflows in its fifth row block, under the caller's
        # error state, while the draw still has five steps to write: the
        # error reaches the caller only once the last rows are written.
        N, n = 10000, 100
        real = model_gen._normal_rows
        written = []

        def slow_and_large(rng, Y):
            start = 0
            for rows in real(rng, Y):
                if start >= 4096:
                    Y[start:rows] *= 1e90
                written.append(rows)
                start = rows
                yield rows
                time.sleep(0.002)

        monkeypatch.setattr(model_gen, "_normal_rows", slow_and_large)
        with _blas.one_blas_thread(), np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                estimate_instance("null", N, n, 0.05, SeedSpec(5))
            assert written[-1] == N
            monkeypatch.undo()
            M = estimate_instance("null", N, n, 0.05, SeedSpec(5))[0].statistic
        assert np.isfinite(M).all()

    def test_a_draw_that_raises_waits_for_the_products(self, monkeypatch):
        # The draw raises after its second step of rows while the worker
        # multiplies and sums a block of them, slowly: the error reaches the
        # caller only once no block is busy, so the worker has stopped
        # writing the thread's buffer.
        real_rows, real_weights = model_gen._normal_rows, spectral._row_weights
        busy, summing = [], threading.Event()

        def slow_weights(rows, N):
            busy.append(True)
            try:
                summing.set()
                time.sleep(0.02)
                return real_weights(rows, N)
            finally:
                busy.pop()

        def failing(rng, Y):
            for rows in real_rows(rng, Y):
                yield rows
                if rows >= 2048:
                    summing.wait(timeout=10)
                    raise FloatingPointError("overflow in the draw")

        monkeypatch.setattr(spectral, "_row_weights", slow_weights)
        monkeypatch.setattr(model_gen, "_normal_rows", failing)
        with _blas.one_blas_thread():
            with pytest.raises(FloatingPointError, match="overflow in the draw"):
                estimate_instance("gaussian", 10000, 100, 0.05, SeedSpec(5))
        assert summing.is_set()
        assert not busy
