"""Products on two threads: where a piece runs never moves a bit.

Under one BLAS thread a product of two row blocks or more runs as two
pieces, on the calling thread and on pvlab's worker thread (`pvlab._blas`).
These tests place the pieces only as the program does (`placed`): on a
fresh thread ("worker"), on a fresh thread kept in order
(`keep_pieces_on_this_thread`, as a sweep's cell threads are: "in_order"),
under two BLAS threads ("two_blas": no piece on the worker, and BLAS may
round differently), and in `run_sweep(workers=2)`.  Through the public
products they check that the placements give the same bytes, that the
uncentered statistic is within 1e-13 of one product, that the statistic
and CholeskyQR2 have the bytes of the plain-numpy row-block rule
(`tests/sampled.py`; one property and one two-pass reference), and that a
failure in either piece reaches the caller once both have ended.
`test_pipeline.py` checks a sweep trial, whose draw runs behind its
products, on the same placements.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from pvlab.spectral import build_statistic

from sampled import (
    basis_around,
    first_pass_error,
    lane_rotation,
    one_call_statistic,
    row_block_statistic,
    row_block_sum,
    unit_basis,
)
from test_buffer import assert_same_bytes
from test_detection import blas_threads, on_a_fresh_thread

# The placements of the tests that take one as a parameter; `placed` also
# takes "two_blas".
PLACEMENTS = ["worker", "in_order"]


def placed(placement, fn):
    """fn() on a fresh thread, with its pieces placed as `placement` says."""

    def run():
        if placement == "in_order":
            _blas.keep_pieces_on_this_thread()
        return fn()

    with blas_threads(2 if placement == "two_blas" else 1):
        return on_a_fresh_thread(run)


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


def on_the_worker():
    return threading.current_thread().name.startswith("pvlab-blas")


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
SHAPES = [(3000, 20), (4000, 17), (5000, 20), (20000, 10), (1026, 33), (40000, 2),
          (10000, 100), (40000, 200)]
SPLIT_EVERY_PRODUCT = {(10000, 100), (40000, 200)}


@pytest.mark.parametrize("N, n", SHAPES, ids=[f"{N}x{n}" for N, n in SHAPES])
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


def assert_placed_statistic(Y, placement):
    """Y's uncentered statistic under `placement` is within 1e-13 relative
    of one product."""
    assert_near_one_call(placed(placement, lambda: build_statistic(Y, centered=False)), Y)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N", [1, 2, 3, 1025, 20001])
def test_gram_is_the_half_sum(N, placement, worker_calls):
    # The statistic's weighted Gram sum over fewer rows than columns, one
    # row block (up to N = 4095 at n = 50), and nine blocks with a
    # remainder, which the worker shares.
    assert_placed_statistic(basis(N, 50), placement)
    assert bool(worker_calls) == (placement == "worker" and N == 20001)


# Row blocks with a remainder joining the last one, and at n = 2 and 3 about
# a million rows each.
BLOCKED_STATISTIC = [(12345, 77), (7000, 150), (200000, 10)]
STATISTIC_SHAPES = BLOCKED_STATISTIC + [(2_100_000, 2), (2_100_000, 3)]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", STATISTIC_SHAPES, ids=[f"{N}x{n}" for N, n in STATISTIC_SHAPES])
def test_blocked_statistic_equals_one_call(N, n, placement, worker_calls):
    assert_placed_statistic(basis(N, n), placement)
    assert bool(worker_calls) == (placement == "worker")


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("N, n", BLOCKED_STATISTIC, ids=[f"{N}x{n}" for N, n in BLOCKED_STATISTIC])
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
@pytest.mark.parametrize("N, n", SAMPLED, ids=[f"{N}x{n}" for N, n in SAMPLED])
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
@pytest.mark.parametrize("N, n", SECOND_PASS, ids=[f"{N}x{n}" for N, n in SECOND_PASS])
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


@pytest.fixture
def worker_fault(monkeypatch):
    """A list that, while it holds a function `fault`, makes the statistic's
    row weights w fault(w) in the blocks that the worker sums."""
    fault, real = [], spectral._row_weights

    def weights(rows, N):
        w = real(rows, N)
        return fault[0](w) if fault and on_the_worker() else w

    monkeypatch.setattr(spectral, "_row_weights", weights)
    return fault


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


def test_sweep_cell_threads_keep_their_pieces(worker_calls):
    config = SweepConfig(Ns=[4000], ns=[100], rhos=[0.02, 0.05], trials=2,
                         tasks=("recover", "detect_spectral"))
    serial = run_sweep(config)
    assert worker_calls
    worker_calls.clear()
    assert run_sweep(config, workers=2) == serial
    assert not worker_calls
