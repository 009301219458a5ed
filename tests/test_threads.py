"""Products on two threads: where a piece runs never moves a bit.

Under one BLAS thread the large products of a trial run as two pieces, one
on the calling thread and one on pvlab's worker thread (`pvlab._blas`).
These tests run each product with the worker and with the helper replaced
by one that runs both pieces on the caller, and compare bytes; the
statistic's bytes are also compared with its row-block sum in plain numpy
(`tests/sampled.py`).  They also check that a failure in the worker's piece,
or in a trial's draw behind its products, reaches the caller and leaves the
worker usable.
"""

import functools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlab import _blas, model_gen, spectral
from pvlab.detection import estimate_instance
from pvlab.harness import SweepConfig, run_sweep
from pvlab.model_gen import (
    SeedSpec,
    apply_rotation,
    orthonormalize,
    sample_orthonormal_instance,
    sample_rotated_instance,
)
from pvlab.spectral import _row_weights, build_statistic

from sampled import (
    basis_around,
    first_pass_error,
    lane_rotation,
    row_block_statistic,
    row_block_sum,
    unit_basis,
)


def in_order(block, edges):
    return [block(a, b) for a, b in zip(edges, edges[1:])]


def on_two_threads(first, second):
    """(first(), second()) as the two one-block pieces of the primitive."""
    return tuple(_blas._on_two_threads(lambda a, b: (first, second)[a](), [0, 1, 2]))


def basis(N, n, collinear=False):
    Y = np.random.default_rng(1000 * N + n).normal(size=(N, n)) / np.sqrt(N)
    if collinear:  # cond(Y) ~ 1e4: the first CholeskyQR pass is not orthonormal
        Y[:, 1] = Y[:, 0] + 1e-4 * Y[:, 1]
    return Y


def uncentered_in_one_call(Y):
    """build_statistic(Y, centered=False)'s arithmetic with one product."""
    N, n = Y.shape
    weights = np.einsum("ij,ij->i", Y, Y) - (n - 1) / N
    M = (Y * weights[:, None]).T @ Y
    return 0.5 * (M + M.T)


def assert_row_block_statistic(Y):
    """build_statistic(Y) has the bytes of the plain-numpy row-block sum,
    and uncentered it is within 1e-13 relative of one call.  (Centered, at
    2.1 million rows, M keeps about three fewer digits of the diagonal.)"""
    assert build_statistic(Y).tobytes() == row_block_statistic(Y).tobytes()
    M, one_call = build_statistic(Y, centered=False), uncentered_in_one_call(Y)
    assert np.max(np.abs(M - one_call)) <= 1e-13 * np.max(np.abs(one_call))


def kernel_sum(Y):
    """The statistic's weighted sum by `pvlab._blas.gram`."""
    return _blas.gram(Y, functools.partial(_row_weights, N=len(Y)))


def rotation(n):
    Q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
    return Q


@pytest.fixture
def worker_calls(monkeypatch):
    """The number of pieces handed to the worker while the test runs."""
    calls = []
    real = _blas._worker_pool

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(_blas, "_worker_pool", counted)
    return calls


def times_and_sum(N, n):
    """Y @ R written over Y, then the statistic's sum over its row blocks,
    as one array: an `orth` trial's last product and its sum."""
    Y = basis(N, n)
    _blas.times(Y, rotation(n), out=Y)
    T = kernel_sum(Y)
    return np.concatenate([Y.ravel(), T.ravel()])


PRODUCTS = {
    "gram": lambda N, n: _blas.gram(basis(N, n)),
    "times_and_sum": times_and_sum,
    "build_statistic": lambda N, n: build_statistic(basis(N, n)),
    "apply_rotation": lambda N, n: apply_rotation(basis(N, n), rotation(n)),
    "orthonormalize_one_pass": lambda N, n: orthonormalize(basis(N, n)),
    "orthonormalize_two_passes": lambda N, n: orthonormalize(basis(N, n, collinear=True)),
}

# Both sides of the small-kernel bound; the last two split every product.
SHAPES = [(3000, 20), (4000, 17), (5000, 20), (20000, 10), (1026, 33), (40000, 2),
          (10000, 100), (40000, 200)]
SPLIT_EVERY_PRODUCT = {(10000, 100), (40000, 200)}


@pytest.mark.parametrize("N, n", SHAPES, ids=[f"{N}x{n}" for N, n in SHAPES])
@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_placement_never_moves_bits(product, N, n, worker_calls, monkeypatch):
    if product.endswith("two_passes"):
        assert first_pass_error(basis(N, n, collinear=True)) > n * np.finfo(np.float64).eps
    with _blas.one_blas_thread():
        two_threads = PRODUCTS[product](N, n)
        used_worker = len(worker_calls) > 0
        monkeypatch.setattr(_blas, "_on_two_threads", in_order)
        one_thread = PRODUCTS[product](N, n)
    assert two_threads.tobytes() == one_thread.tobytes()
    if (N, n) in SPLIT_EVERY_PRODUCT:
        assert used_worker


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), N=st.integers(1, 40000), seed=st.integers(0, 2**32 - 1))
def test_split_products_equal_one_call(n, N, seed):
    N = max(N, n)
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(N, n)) / np.sqrt(N)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    with _blas.one_blas_thread():
        assert_row_block_statistic(Y)
        assert apply_rotation(Y, Q).tobytes() == (Y @ Q).tobytes()


def placed(placement, monkeypatch):
    """Leave the pieces to the worker, or run both on the caller."""
    if placement == "in_order":
        monkeypatch.setattr(_blas, "_on_two_threads", in_order)


PLACEMENTS = ["worker", "in_order"]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N", [1, 2, 3, 1025, 20001])
def test_gram_is_the_half_sum(N, placement, worker_calls, monkeypatch):
    # The halves are the two pieces of the row blocks, each summed block by
    # block: one block up to N = 4095 at n = 50, and for N = 20001 nine
    # blocks (eight of 2048 rows, the last of 3617) split at row 10240 on
    # two threads.
    Y = basis(N, 50)
    with _blas.one_blas_thread():
        placed(placement, monkeypatch)
        G = _blas.gram(Y)
        assert G.tobytes() == row_block_sum(Y, weighted=False).tobytes()
        one_product = Y.T @ Y
    assert np.max(np.abs(G - one_product)) <= 1e-13 * np.max(np.abs(one_product))
    assert bool(worker_calls) == (placement == "worker" and N == 20001)


# Row blocks of build_statistic with a remainder joining the last one:
# 1024, 1024 and 41984 rows (last blocks of 2105, 1880 and 74048 rows); at
# n = 2 and 3, two blocks of 1048576 rows and four of 466944.
BLOCKED_STATISTIC = [(12345, 77), (7000, 150), (200000, 10)]
STATISTIC_SHAPES = BLOCKED_STATISTIC + [(2_100_000, 2), (2_100_000, 3)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", STATISTIC_SHAPES, ids=[f"{N}x{n}" for N, n in STATISTIC_SHAPES])
def test_blocked_statistic_equals_one_call(N, n, placement, worker_calls, monkeypatch):
    # Up to rounding: the bytes are the row-block sum's.
    Y = basis(N, n)
    with _blas.one_blas_thread():
        placed(placement, monkeypatch)
        assert_row_block_statistic(Y)
    assert bool(worker_calls) == (placement == "worker")


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", BLOCKED_STATISTIC, ids=[f"{N}x{n}" for N, n in BLOCKED_STATISTIC])
def test_times_and_sum_is_times_and_the_weighted_sum(N, n, placement, worker_calls, monkeypatch):
    # times written over Y keeps the fresh product's bytes; the row-block
    # sum over Q leaves Q unwritten and is the statistic's sum up to
    # rounding.
    Y, R = basis(N, n), rotation(n)
    with _blas.one_blas_thread():
        placed(placement, monkeypatch)
        Q = _blas.times(Y, R)
        assert _blas.times(Y, R, out=Y) is Y
        assert Y.tobytes() == Q.tobytes()
        T = kernel_sum(Q)
        assert Q.tobytes() == Y.tobytes()
    one_call = (Q * _row_weights(Q, N)[:, None]).T @ Q
    assert np.max(np.abs(T - one_call)) <= 1e-13 * np.max(np.abs(one_call))
    assert bool(worker_calls) == (placement == "worker")


# One product (3000 x 40), row blocks (25000 x 20, 10000 x 100), and a
# basis whose first CholeskyQR pass is not orthonormal (40000 x 2).
SAMPLED = [(3000, 40), (25000, 20), (10000, 100), (40000, 2)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", SAMPLED, ids=[f"{N}x{n}" for N, n in SAMPLED])
def test_samplers_equal_the_out_of_place_products(N, n, placement, monkeypatch):
    # The samplers write their products over the drawn basis; the public
    # functions on a rebuilt basis give the same bytes.
    seed = SeedSpec(57, 4)
    with _blas.one_blas_thread():
        placed(placement, monkeypatch)
        rotated, v = sample_rotated_instance(N, n, 0.05, seed)
        out_of_place = apply_rotation(basis_around(v, n, seed), lane_rotation(n, seed))
        assert rotated.tobytes() == out_of_place.tobytes()
        orth, _ = sample_orthonormal_instance(N, n, 0.05, seed)
        assert orth.tobytes() == orthonormalize(unit_basis(N, n, 0.05, seed)).tobytes()


# Collinear bases whose second pass, taken as 1024-row blocks, differed
# from one full product in the last bits.
SECOND_PASS = [(5000, 17), (5000, 18), (5000, 20), (20000, 19), (1026, 34)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", SECOND_PASS, ids=[f"{N}x{n}" for N, n in SECOND_PASS])
def test_second_pass_equals_one_full_product(N, n, placement, monkeypatch):
    Y = basis(N, n, collinear=True)
    with _blas.one_blas_thread():
        assert first_pass_error(Y) > n * np.finfo(np.float64).eps
        placed(placement, monkeypatch)
        Q = orthonormalize(Y)
        Q1 = Y @ np.linalg.inv(np.linalg.cholesky(row_block_sum(Y, weighted=False)).T)
        full = Q1 @ np.linalg.inv(np.linalg.cholesky(row_block_sum(Q1, weighted=False)).T)
    assert Q.tobytes() == full.tobytes()


class TestWorkerFailures:
    def test_worker_exception_reaches_the_caller_and_the_worker_recovers(self):
        def fail():
            raise RuntimeError("worker piece failed")

        with _blas.one_blas_thread():
            with pytest.raises(RuntimeError, match="worker piece failed"):
                on_two_threads(lambda: None, fail)
            names = on_two_threads(
                lambda: threading.current_thread().name, lambda: threading.current_thread().name
            )
        assert names[0] != names[1] and names[1].startswith("pvlab-blas")

    def test_caller_exception_waits_for_the_worker_piece(self):
        finished = []

        def fail():
            raise RuntimeError("caller piece failed")

        def slow():
            time.sleep(0.05)
            finished.append(True)

        with _blas.one_blas_thread():
            with pytest.raises(RuntimeError, match="caller piece failed"):
                on_two_threads(fail, slow)
        assert finished

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

    def test_gram_overflow_on_two_threads(self, worker_calls, monkeypatch):
        # Both half Grams overflow, one of them on the worker, without a
        # warning; Householder QR answers as on one thread.
        Y = basis(20000, 50) * 1e160
        with _blas.one_blas_thread():
            two_threads = orthonormalize(Y)
            assert worker_calls
            monkeypatch.setattr(_blas, "_on_two_threads", in_order)
            one_thread = orthonormalize(Y)
        assert two_threads.tobytes() == one_thread.tobytes()

    def test_caller_error_state_applies_to_the_worker_piece(self, worker_calls):
        # Only Y's rows from 2048 on, the worker's blocks, overflow.
        Y = basis(4000, 100)
        Y[2048:] *= 1e90
        with _blas.one_blas_thread():
            with np.errstate(over="raise"):
                kernel_sum(Y[:2048])  # the caller's rows alone do not overflow
                with pytest.raises(FloatingPointError):
                    build_statistic(Y)
            assert worker_calls
            with np.errstate(over="ignore", invalid="ignore"):
                M = build_statistic(Y)
        assert not np.isfinite(M).any()

    def test_weighted_sum_failures_in_the_worker_piece(self, worker_calls):
        # A raising weight rule, and an overflow under the caller's error
        # state, in the worker's row blocks only.
        N, n = 20000, 50
        Y, R = basis(N, n), rotation(n)

        def fails_on_the_worker(rows):
            if threading.current_thread().name.startswith("pvlab-blas"):
                raise RuntimeError("worker piece failed")
            return _row_weights(rows, N)

        large = basis(N, n)
        large[15000:] *= 1e90
        with _blas.one_blas_thread():
            Q = _blas.times(Y, R)
            with pytest.raises(RuntimeError, match="worker piece failed"):
                _blas.gram(Q, fails_on_the_worker)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                kernel_sum(large)
            assert worker_calls
            T = kernel_sum(Q)
            assert T.tobytes() == times_and_sum(N, n)[N * n:].tobytes()

    def test_sweep_records_a_unit_whose_worker_piece_raised(self, monkeypatch):
        config = SweepConfig(Ns=[4000], ns=[100], rhos=[0.05], trials=2, tasks=("recover",))
        expected = run_sweep(config)
        real = _blas._on_two_threads

        def failing_on_worker(block, edges):
            def failing(a, b):
                if threading.current_thread().name.startswith("pvlab-blas"):
                    raise FloatingPointError("overflow in the worker's piece")
                return block(a, b)

            return real(failing, edges)

        monkeypatch.setattr(_blas, "_on_two_threads", failing_on_worker)
        failed = run_sweep(config)
        assert [(r.success, r.l2_error, r.statistic_value) for r in failed] == [(False, None, None)] * 2
        monkeypatch.undo()
        assert run_sweep(config) == expected

    def test_sweep_records_a_unit_whose_draw_raised(self, monkeypatch):
        # The Gaussian draw runs behind the trial's products and raises
        # after writing its third step of rows; the next sweep is clean.
        config = SweepConfig(Ns=[4000], ns=[100], rhos=[0.05], trials=2, tasks=("recover",))
        expected = run_sweep(config)
        real, real_behind = model_gen._normal_rows, _blas._behind
        behind = []

        def failing(rng, Y):
            for rows in real(rng, Y):
                if rows > 2048:
                    raise FloatingPointError("overflow in the draw")
                yield rows

        def counted(*args):
            behind.append(True)
            return real_behind(*args)

        monkeypatch.setattr(model_gen, "_normal_rows", failing)
        monkeypatch.setattr(_blas, "_behind", counted)
        failed = run_sweep(config)
        assert behind == [True] * 2
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


def test_sweep_cell_threads_keep_their_pieces(worker_calls):
    config = SweepConfig(Ns=[4000], ns=[100], rhos=[0.02, 0.05], trials=2,
                         tasks=("recover", "detect_spectral"))
    serial = run_sweep(config)
    assert worker_calls
    worker_calls.clear()
    assert run_sweep(config, workers=2) == serial
    assert not worker_calls


def test_callers_on_many_threads_share_the_one_worker():
    # More calling threads than cores, switching often: each call gets its
    # own pieces' results, and every worker piece runs on the one worker.
    results, errors, workers = [], [], set()

    def call(i):
        try:
            for j in range(200):
                def second(i=i, j=j):
                    workers.add(threading.current_thread().name)
                    return (i, j, "second")

                got = on_two_threads(lambda i=i, j=j: (i, j, "first"), second)
                results.append(got == ((i, j, "first"), (i, j, "second")))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _blas.one_blas_thread():
            threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 800 and all(results)
    assert len(workers) == 1
