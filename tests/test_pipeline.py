"""A trial's draw behind its own products: the bytes of drawing first.

Inside `detection.estimate_instance`, under one BLAS thread, the sampler's
Gaussian draw runs on the calling thread while pvlab's worker thread
multiplies and sums each row block as soon as its rows are drawn
(`pvlab._blas.fill`, `gram` and `_behind`).  These tests compare every
trial output with an inline trial, one on a thread kept in order
(`keep_pieces_on_this_thread`), which draws first; they check that no block
is read before its rows are drawn, and that a trial of one row block, or
under two BLAS threads, draws inline.
"""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from pvlab import _blas, detection, model_gen
from pvlab.detection import estimate_instance
from pvlab.model_gen import SeedSpec

from test_buffer import assert_same_bytes
from test_detection import on_a_fresh_thread

MODELS = ["gaussian", "null", "orth"]

# Row blocks (see `pvlab._blas._row_edges`): one at 4000 x 20 and 1025 x 7;
# two at 2560 x 100 (the second of 1536 rows); three at 4000 x 100; nine at
# 10000 x 100 (the last of 1808 rows); twelve at 12345 x 77 (the last of
# 1081 rows); 39 at 40000 x 200.
SHAPES = [(4000, 20), (2560, 100), (4000, 100), (10000, 100), (12345, 77), (1025, 7), (40000, 200)]
ONE_BLOCK = {(4000, 20), (1025, 7)}


@pytest.fixture
def behind_calls(monkeypatch):
    """One entry per gram that summed its blocks behind a draw."""
    calls = []
    real = _blas._behind

    def counted(*args):
        calls.append(True)
        return real(*args)

    monkeypatch.setattr(_blas, "_behind", counted)
    return calls


def inline(fn):
    """fn() on a fresh thread kept in order: every trial there draws first."""

    def run():
        _blas.keep_pieces_on_this_thread()
        return fn()

    return on_a_fresh_thread(run)


@contextlib.contextmanager
def blas_threads(count):
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


@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("N, n", SHAPES, ids=[f"{N}x{n}" for N, n in SHAPES])
def test_a_trial_behind_its_draw_has_the_inline_bytes(N, n, model, centered, behind_calls):
    seed = SeedSpec(71, N + n)

    def trial():
        return estimate_instance(model, N, n, 0.05, seed, centered)

    with blas_threads(1):
        expected = inline(trial)
        assert not behind_calls
        got = on_a_fresh_thread(trial)
    assert_same_bytes(got, expected)
    assert len(behind_calls) == (0 if (N, n) in ONE_BLOCK else 1)


@pytest.mark.parametrize("model", MODELS)
def test_two_blas_threads_draw_inline(model, behind_calls):
    N, n, seed = 10000, 100, SeedSpec(71, 2)

    def trial():
        return estimate_instance(model, N, n, 0.05, seed)

    with blas_threads(2):
        got = on_a_fresh_thread(trial)
        expected = inline(trial)
    assert not behind_calls
    assert_same_bytes(got, expected)


# Blocks longer than one draw step of 1024 rows: the second at 2560 x 100,
# the last at 12345 x 77, and all three at 40000 x 20 (11264, 11264, 17472).
LONG_BLOCKS = [(2560, 100), (12345, 77), (40000, 20)]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("N, n", LONG_BLOCKS, ids=[f"{N}x{n}" for N, n in LONG_BLOCKS])
def test_no_block_is_read_before_its_rows_are_drawn(N, n, model, behind_calls, monkeypatch):
    # The sample buffer starts as NaN and each draw step waits before it
    # writes its rows, so a block read one step early makes M non-finite.
    seed = SeedSpec(73, 2)
    real = model_gen._normal_rows

    def slow(rng, Y):
        for rows in real(rng, Y):
            yield rows
            time.sleep(0.002)

    def trial():
        detection._sample_buffer(N, n)[...] = np.nan
        return estimate_instance(model, N, n, 0.05, seed)

    with blas_threads(1):
        expected = inline(lambda: estimate_instance(model, N, n, 0.05, seed))
        monkeypatch.setattr(model_gen, "_normal_rows", slow)
        got = on_a_fresh_thread(trial)
    assert behind_calls
    assert np.isfinite(got[0].statistic).all()
    assert_same_bytes(got, expected)


def test_trials_on_many_threads_share_the_one_worker(behind_calls):
    # More calling threads than cores, switching often, each running trials
    # behind their draws on the one worker: each caller draws its own rows
    # while its products wait in the worker's queue behind another thread's,
    # and every trial keeps its bytes.
    N, n = 4000, 100
    cases = [(model, SeedSpec(79, t)) for t in range(3) for model in MODELS]
    with blas_threads(1):
        expected = inline(lambda: [estimate_instance(m, N, n, 0.05, seed) for m, seed in cases])
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
    assert len(behind_calls) == 4 * len(cases)
    for got in results.values():
        for trial, want in zip(got, expected):
            assert_same_bytes(trial, want)
