"""A trial's draw behind its own products: a trial is its public parts.

Inside `detection.estimate_instance`, under one BLAS thread, the sampler's
Gaussian draw runs on the calling thread while pvlab's worker thread
multiplies and sums each row block as soon as its rows are drawn.  These
tests place a trial's pieces as `test_threads.py` places a product's
(`placed`), and check that its statistic, eigenpair, lift and planted vector
have the bytes of its public parts, `estimate_direction` of
`sample_observation`'s instance, drawn first on a thread kept in order (and
under two BLAS threads, where the trial draws first too, the bytes of its
parts there); that no block is read before its rows are drawn; and that
calling threads share the one worker.
"""

import sys
import threading
import time

import numpy as np
import pytest

from pvlab import detection, model_gen, spectral
from pvlab.detection import estimate_instance, sample_observation
from pvlab.model_gen import SeedSpec
from pvlab.spectral import estimate_direction

from test_buffer import assert_same_bytes
from test_detection import blas_threads
from test_threads import placed, worker_calls  # noqa: F401 (a fixture)

MODELS = ["gaussian", "null", "orth"]

# One row block at 4000 x 20 and 1025 x 7; two at 2560 x 100 (the second of
# 1536 rows); three at 4000 x 100; nine at 10000 x 100 (the last of 1808
# rows); twelve at 12345 x 77 (the last of 1081 rows); 39 at 40000 x 200.
SHAPES = [(4000, 20), (2560, 100), (4000, 100), (10000, 100), (12345, 77), (1025, 7), (40000, 200)]
ONE_BLOCK = {(4000, 20), (1025, 7)}


def public_parts(model, N, n, seed, centered=True):
    """A trial's (result, v) from the public sampler and estimator."""
    Y, v = sample_observation(model, N, n, 0.05, seed)
    return estimate_direction(Y, centered), v


@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("N, n", SHAPES, ids=[f"{N}x{n}" for N, n in SHAPES])
def test_a_trial_behind_its_draw_has_the_inline_bytes(N, n, model, centered, worker_calls):
    seed = SeedSpec(71, N + n)
    expected = placed("in_order", lambda: public_parts(model, N, n, seed, centered))
    assert not worker_calls
    got = placed("worker", lambda: estimate_instance(model, N, n, 0.05, seed, centered))
    assert_same_bytes(got, expected)
    assert bool(worker_calls) == ((N, n) not in ONE_BLOCK)


@pytest.mark.parametrize("model", MODELS)
def test_two_blas_threads_draw_inline(model, worker_calls):
    N, n, seed = 10000, 100, SeedSpec(71, 2)
    got = placed("two_blas", lambda: estimate_instance(model, N, n, 0.05, seed))
    expected = placed("two_blas", lambda: public_parts(model, N, n, seed))
    assert not worker_calls
    assert_same_bytes(got, expected)


# Blocks longer than one draw step of 1024 rows: the second at 2560 x 100,
# the last at 12345 x 77, and all three at 40000 x 20 (11264, 11264, 17472).
LONG_BLOCKS = [(2560, 100), (12345, 77), (40000, 20)]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("N, n", LONG_BLOCKS, ids=[f"{N}x{n}" for N, n in LONG_BLOCKS])
def test_no_block_is_read_before_its_rows_are_drawn(N, n, model, worker_calls, monkeypatch):
    # The sample buffer starts as NaN and each draw step waits before it
    # writes its rows, so a block read one step early makes M non-finite.
    # The products are on the worker before the draw starts.
    seed = SeedSpec(73, 2)
    expected = placed("in_order", lambda: public_parts(model, N, n, seed))
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


def test_trials_on_many_threads_share_the_one_worker(worker_calls, monkeypatch):
    # More calling threads than cores, switching often, each running trials
    # behind their draws on the one worker: each caller draws its own rows
    # while its products wait in the worker's queue behind another thread's,
    # and every trial keeps its bytes.
    N, n = 4000, 100
    cases = [(model, SeedSpec(79, t)) for t in range(3) for model in MODELS]
    expected = placed("in_order", lambda: [public_parts(m, N, n, seed) for m, seed in cases])
    real, summed_on = spectral._row_weights, set()

    def weights(rows, N):
        summed_on.add(threading.current_thread().name)
        return real(rows, N)

    monkeypatch.setattr(spectral, "_row_weights", weights)
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
    assert len(worker_calls) >= 4 * len(cases)
    assert len({name for name in summed_on if name.startswith("pvlab-blas")}) == 1
    for got in results.values():
        for trial, want in zip(got, expected):
            assert_same_bytes(trial, want)
