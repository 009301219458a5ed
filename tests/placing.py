"""Work run on threads as pvlab places it, and a trial's results compared.

Shared by the placement, buffer, detection and harness tests, so that no
test module imports another; the fixtures that count and fault the worker's
pieces are in `conftest.py`.
"""

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from pvlab import _blas, detection
from pvlab.detection import sample_observation
from pvlab.spectral import estimate_direction


def on_a_fresh_thread(fn):
    """fn() on a new thread.  It starts without a sample buffer, so the first
    trial it runs allocates one, and the buffer goes when the thread ends."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result()


@contextlib.contextmanager
def blas_threads(count):
    """Run the block under `count` BLAS threads, set in-process, and restore
    the previous count."""
    functions = _blas._thread_functions()
    if functions is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, set_ = functions
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)


def placed(placement, fn):
    """fn() on a fresh thread, with its pieces placed as `placement` says:
    "worker" (one BLAS thread, so the worker takes a piece), "in_order"
    (one BLAS thread, with `_blas.taken` held, as it is for a sweep's cell
    threads) or "two_blas" (two BLAS threads, so no piece goes to the
    worker)."""

    def run():
        with _blas.taken if placement == "in_order" else contextlib.nullcontext():
            return fn()

    with blas_threads(2 if placement == "two_blas" else 1):
        return on_a_fresh_thread(run)


def on_the_worker():
    return threading.current_thread().name.startswith("pvlab-blas")


def this_threads_buffer():
    return getattr(detection._this_thread, "buffer", None)


def public_parts(model, N, n, rho, seed, centered=True):
    """A trial's (result, v) from the public sampler and estimator, on a
    freshly allocated sample."""
    Y, v = sample_observation(model, N, n, rho, seed)
    return estimate_direction(Y, centered), v


def assert_same_bytes(got, want):
    """Two trials' (result, v) have the same bytes."""
    (result, v), (expected, expected_v) = got, want
    assert result.statistic.tobytes() == expected.statistic.tobytes()
    assert result.leading_value == expected.leading_value
    assert result.gap == expected.gap
    assert result.raw_estimate.tobytes() == expected.raw_estimate.tobytes()
    assert (v is None and expected_v is None) or v.tobytes() == expected_v.tobytes()
