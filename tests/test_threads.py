"""Products on two threads: where a piece runs never moves a bit.

Under one BLAS thread the large products of a trial run as two pieces, one
on the calling thread and one on pvlab's worker thread (`pvlab._blas`).
These tests run each product with the worker and with the helper replaced
by one that runs both pieces on the caller, and compare bytes; they also
check that a failure in the worker's piece reaches the caller and leaves
the worker usable.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlab import _blas
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
    half_sum_gram,
    lane_rotation,
    row_block_sum,
    unit_basis,
)


def in_order(block, edges, parallel=True):
    return [block(a, b) for a, b in zip(edges, edges[1:])]


def on_two_threads(first, second):
    """(first(), second()) as the two one-block pieces of the primitive."""
    return tuple(_blas._on_two_threads(lambda a, b: (first, second)[a](), [0, 1, 2]))


def basis(N, n, collinear=False):
    Y = np.random.default_rng(1000 * N + n).normal(size=(N, n)) / np.sqrt(N)
    if collinear:  # cond(Y) ~ 1e4: the first CholeskyQR pass is not orthonormal
        Y[:, 1] = Y[:, 0] + 1e-4 * Y[:, 1]
    return Y


def statistic_in_one_call(Y):
    """build_statistic's arithmetic with one product per step."""
    N, n = Y.shape
    weights = np.einsum("ij,ij->i", Y, Y) - (n - 1) / N
    M = (Y * weights[:, None]).T @ Y
    M -= (3.0 / N) * np.eye(n)
    return 0.5 * (M + M.T)


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
    T = row_block_sum(Y)
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
        assert build_statistic(Y).tobytes() == statistic_in_one_call(Y).tobytes()
        assert apply_rotation(Y, Q).tobytes() == (Y @ Q).tobytes()


def placed(placement, monkeypatch):
    """Leave the pieces to the worker, or run both on the caller."""
    if placement == "in_order":
        monkeypatch.setattr(_blas, "_on_two_threads", in_order)


PLACEMENTS = ["worker", "in_order"]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N", [1, 2, 3, 1025, 20001])
def test_gram_is_the_half_sum(N, placement, worker_calls, monkeypatch):
    # An empty upper half (N = 1), odd N, and halves split on two threads.
    Y = basis(N, 50)
    with _blas.one_blas_thread():
        placed(placement, monkeypatch)
        assert _blas.gram(Y).tobytes() == half_sum_gram(Y).tobytes()
    assert bool(worker_calls) == (placement == "worker" and N == 20001)


# Column blocks of build_statistic with a remainder joining the last one:
# widths 10, 19 and 3 (last blocks of 17, 36 and 4 columns).
BLOCKED_STATISTIC = [(12345, 77), (7000, 150), (200000, 10)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", BLOCKED_STATISTIC, ids=[f"{N}x{n}" for N, n in BLOCKED_STATISTIC])
def test_blocked_statistic_equals_one_call(N, n, placement, worker_calls, monkeypatch):
    Y = basis(N, n)
    with _blas.one_blas_thread():
        placed(placement, monkeypatch)
        assert build_statistic(Y).tobytes() == statistic_in_one_call(Y).tobytes()
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
        T = row_block_sum(Q)
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
        Q1 = Y @ np.linalg.inv(np.linalg.cholesky(half_sum_gram(Y)).T)
        full = Q1 @ np.linalg.inv(np.linalg.cholesky(half_sum_gram(Q1)).T)
    assert Q.tobytes() == full.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_one_column_halves_stay_one_product(n):
    # Large enough to split, but a column half of one column would be a gemv.
    Y = basis(2_100_000, n)
    with _blas.one_blas_thread():
        assert build_statistic(Y).tobytes() == statistic_in_one_call(Y).tobytes()


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
        # Only M's rows from 52 on, the worker's blocks, overflow.
        Y = basis(4000, 100)
        Y[:, 52:] *= 1e90
        with _blas.one_blas_thread():
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                build_statistic(Y)
            assert worker_calls
            with np.errstate(over="ignore", invalid="ignore"):
                M = build_statistic(Y)
        assert np.isinf(M[:, 50:]).any() and np.isfinite(M[:50, :50]).all()

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
                _blas.weighted_gram_by_rows(Q, fails_on_the_worker)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                row_block_sum(large)
            assert worker_calls
            T = row_block_sum(Q)
            assert T.tobytes() == times_and_sum(N, n)[N * n:].tobytes()

    def test_sweep_records_a_unit_whose_worker_piece_raised(self, monkeypatch):
        config = SweepConfig(Ns=[4000], ns=[100], rhos=[0.05], trials=2, tasks=("recover",))
        expected = run_sweep(config)
        real = _blas._on_two_threads

        def failing_on_worker(block, edges, parallel=True):
            def failing(a, b):
                if threading.current_thread().name.startswith("pvlab-blas"):
                    raise FloatingPointError("overflow in the worker's piece")
                return block(a, b)

            return real(failing, edges, parallel)

        monkeypatch.setattr(_blas, "_on_two_threads", failing_on_worker)
        failed = run_sweep(config)
        assert [(r.success, r.l2_error, r.statistic_value) for r in failed] == [(False, None, None)] * 2
        monkeypatch.undo()
        assert run_sweep(config) == expected


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
