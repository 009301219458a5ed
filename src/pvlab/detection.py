"""Hypothesis tests for a planted vector versus pure Gaussian noise.

Two detectors are implemented.  The spectral-norm test thresholds ||M|| (the
spectral norm of the centered degree-4 statistic) at c1/(6*N*rho).  The
l1/l2 test declares a planted vector when a candidate direction's l1-to-l2
ratio deviates from the Gaussian value sqrt(2N/pi) by at least c1*sqrt(N)/4;
fed with the spectral estimate it turns any good estimator into a detector.

This module also holds the one model -> sampler -> rule dispatch
(`sample_observation`, `estimate_instance`, `recover`, `decide`) that the
CLI, the sweep harness and `error_rates` all go through, and the one trial
path of the sweep and `error_rates`: `estimator` samples and estimates each
instance of a trial once, and `detect` makes the trial's null and planted
calls.

`estimate_instance` samples into one reused float64 buffer per thread (see
`_sample_buffer`), so a run of trials does not allocate and free an N x n
array per trial.  It samples and estimates inside `pvlab._blas.draw_behind`,
so `spectral.build_statistic` must be the first read of the sample.  A sweep
unit that `run_sweep` asks to pair samples and estimates its two instances
side by side instead (`estimator`).  `pvlab._blas` says how either runs on
two threads with the bytes of drawing first.
"""

from __future__ import annotations

import functools
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from . import _blas
from ._domain import _check_integer, _check_rho
from .model_gen import (
    SeedSpec,
    _check_instance_params,
    sample_detection_pair,
    sample_orthonormal_instance,
    sample_rotated_instance,
)
from .spectral import (
    ErrorReport,
    SpectralResult,
    build_statistic,
    estimate_direction,
    recover_gaussian_rule,
    recover_orthonormal_rule,
    score,
)

__all__ = [
    "DetectionOutcome",
    "ErrorRateReport",
    "DEFAULT_C1",
    "spectral_norm_outcome",
    "spectral_norm_test",
    "l1l2_test",
    "detect_via_estimation",
    "sample_observation",
    "estimate_instance",
    "recover",
    "decide",
    "estimator",
    "detect",
    "error_rates",
]

# The decision rules only need c1 in (0, 0.1) with |rho - 1/3| >= c1; a
# mid-range default keeps both satisfiable.
DEFAULT_C1 = 0.05


@dataclass(frozen=True)
class DetectionOutcome:
    statistic_value: float
    threshold: float
    decision: str  # "null" or "planted"


@dataclass(frozen=True)
class ErrorRateReport:
    """Empirical type I (null called planted) and type II (planted called
    null) rates over independent streams per hypothesis."""

    type_I: float
    type_II: float


def _spectral_norm(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def _check_c1(c1: float) -> None:
    # A threshold <= 0 (or NaN) would make every call trivial, and True ran at c1 = 1.
    if not isinstance(c1, numbers.Real) or isinstance(c1, bool) or not 0 < c1 < np.inf:
        raise ValueError(f"c1 must be positive and finite, got {c1!r}")


def spectral_norm_outcome(
    stat_value: float, N: int, rho: float, c1: float = DEFAULT_C1
) -> DetectionOutcome:
    """Decision rule: planted iff the statistic exceeds c1/(6*N*rho)."""
    _check_c1(c1)
    _check_integer("N", N, 1)
    _check_rho(rho)
    if not np.isfinite(stat_value):
        raise ValueError(f"statistic must be finite, got {stat_value}")
    threshold = c1 / (6.0 * N * rho)
    decision = "planted" if stat_value > threshold else "null"
    return DetectionOutcome(stat_value, threshold, decision)


def spectral_norm_test(
    Y_obs: np.ndarray, rho: float, c1: float = DEFAULT_C1
) -> DetectionOutcome:
    """Spectral-norm detector; rho must be known."""
    return spectral_norm_outcome(_spectral_norm(build_statistic(Y_obs)), len(Y_obs), rho, c1)


def l1l2_test(candidate: np.ndarray, c1: float = DEFAULT_C1) -> DetectionOutcome:
    """Declare planted when |l1/l2 ratio - sqrt(2N/pi)| >= c1*sqrt(N)/4.

    The statistic is exactly scale-invariant in the candidate.
    """
    _check_c1(c1)
    v = np.asarray(candidate, dtype=float)
    l2 = float(np.linalg.norm(v))
    if not 0 < l2 < np.inf:  # a nan or an inf entry makes l2 nan or inf
        raise ValueError(f"l1/l2 test needs a nonzero candidate with a finite norm, got {l2}")
    N = v.size
    deviation = abs(float(np.abs(v).sum()) / l2 - np.sqrt(2.0 * N / np.pi))
    threshold = c1 * np.sqrt(N) / 4.0
    decision = "planted" if deviation >= threshold else "null"
    return DetectionOutcome(deviation, threshold, decision)


def detect_via_estimation(Y_obs: np.ndarray, c1: float = DEFAULT_C1) -> DetectionOutcome:
    """Reduction pipeline: spectral estimate, then the l1/l2 test on the raw
    estimate (which lies in the observed column span by construction)."""
    result = estimate_direction(Y_obs)
    return l1l2_test(result.raw_estimate, c1=c1)


def sample_observation(
    model: str, N: int, n: int, rho: float, seed: SeedSpec, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """One observation and its planted vector (Y, v): "gaussian" (rotated
    Gaussian basis, also the planted detection instance), "orth" (orthonormal
    basis) or "null" (pure noise, v = None).  Y is a fresh array, or `out`
    sampled over."""
    if model == "gaussian":
        return sample_rotated_instance(N, n, rho, seed, out=out)
    if model == "orth":
        return sample_orthonormal_instance(N, n, rho, seed, out=out)
    if model == "null":
        return sample_detection_pair(N, n, rho, seed, "null", out=out)
    raise ValueError(f"unknown model {model!r}")


_this_thread = threading.local()


def _sample_buffer(N: int, n: int) -> np.ndarray:
    """An N x n view of this thread's sample buffer, a flat float64 array
    allocated on first use and kept for the thread's life.  It only grows,
    and the smaller one is dropped before the larger is allocated.

    Kept, not freed after a trial, because of glibc's malloc: freeing an
    mmapped block of up to 32 MiB raises its mmap threshold to that size,
    so the next array of that size comes from the heap and stays resident
    once freed.  A process alternating 40000 x 100 and 40000 x 200 `orth`
    trials held a freed 30.5 MiB basis beside the next 61 MiB one."""
    buffer = getattr(_this_thread, "buffer", None)
    if buffer is None or buffer.size < N * n:
        _this_thread.buffer = buffer = None  # freed before the larger one is allocated
        _this_thread.buffer = buffer = np.empty(N * n)
    return buffer[: N * n].reshape(N, n)


def estimate_instance(
    model: str, N: int, n: int, rho: float, seed: SeedSpec, centered: bool = True
) -> tuple[SpectralResult, np.ndarray | None]:
    """(result, v) for `model`'s instance on `seed`, for `pvlab estimate`
    and the sweep alike: check the domain, sample, and estimate.

    The instance is sampled into this thread's buffer (`_sample_buffer`),
    which the next call on the thread overwrites; the returned arrays are
    fresh and never share its memory.  The draw runs behind the products
    (`pvlab._blas.draw_behind`): the sampler may return before its rows are
    drawn, and the statistic's row-block sum draws them while the worker
    sums each block."""
    N, n = _check_instance_params(N, n, rho)  # before the buffer takes a shape no sampler accepts
    return _estimate(model, N, n, rho, seed, _sample_buffer(N, n), centered)


def _estimate(
    model: str, N: int, n: int, rho: float, seed: SeedSpec, out: np.ndarray, centered: bool = True
) -> tuple[SpectralResult, np.ndarray | None]:
    """estimate_instance's (result, v), sampled into `out`."""
    with _blas.draw_behind():
        Y, v = sample_observation(model, N, n, rho, seed, out=out)
        return estimate_direction(Y, centered), v


def _kept(fn, *args) -> tuple[bool, object]:
    """(True, fn(*args)), or (False, the exception it raised)."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def recover(
    model: str, result: SpectralResult, truth: np.ndarray, rho: float
) -> ErrorReport:
    """Threshold the raw estimate with the model's rule (the orthonormal rule
    ignores rho) and score it against the planted vector."""
    raw = result.raw_estimate
    if model == "gaussian":
        rule = recover_gaussian_rule(raw, rho)
    elif model == "orth":
        rule = recover_orthonormal_rule(raw)
    else:
        raise ValueError(f"unknown model {model!r}")
    return score(raw, truth, rule)


def decide(
    test_kind: str, result: SpectralResult, rho: float, c1: float = DEFAULT_C1
) -> DetectionOutcome:
    """Run a detection test on one instance's spectral result: "spectral"
    thresholds the norm of its statistic M, "l1l2" tests its raw estimate."""
    if test_kind == "spectral":
        N = result.raw_estimate.size
        return spectral_norm_outcome(_spectral_norm(result.statistic), N, rho, c1)
    if test_kind == "l1l2":
        return l1l2_test(result.raw_estimate, c1)
    raise ValueError(f"unknown test kind {test_kind!r}")


def estimator(N: int, n: int, rho: float, seed: SeedSpec, pair: tuple[str, ...] = ()):
    """One trial's `estimate(model)`: the spectral result and planted vector
    (result, v) of `model`'s instance on `seed`, sampled and estimated on the
    first call for each model and kept, or the exception that raised, raised
    again at each call; the N x n matrix is dropped.

    `pair` names two instances to sample side by side, or none.  `run_sweep`
    is the one caller that names them, for the cells it has sized the
    buffer to hold twice, so a trial's placement depends on its sweep's
    config only, never on what the thread sampled before.  The first call
    for either checks the domain here, then samples and estimates both,
    each into its own half of `_sample_buffer(2 * N, n)`, as
    `pvlab._blas.side_by_side`'s two pieces: the first here and the second
    on the worker, each with its products in order, or both here in order.
    Any other instance is sampled alone (`estimate_instance`).  Either way
    each instance keeps the bytes of `estimate_instance`."""
    kept: dict[str, tuple[bool, object]] = {}

    def estimate(model: str) -> tuple[SpectralResult, np.ndarray | None]:
        if model not in kept:
            if model in pair:
                # Here, not in the pieces, so the unit's first call into model_gen is on this thread.
                rows, cols = _check_instance_params(N, n, rho)
                both = _sample_buffer(2 * rows, cols)
                pieces = [
                    functools.partial(_kept, _estimate, m, rows, cols, rho, seed, out)
                    for m, out in zip(pair, (both[:rows], both[rows:]))
                ]
                kept.update(zip(pair, _blas.side_by_side(*pieces)))
            else:
                kept[model] = _kept(estimate_instance, model, N, n, rho, seed)
        done, value = kept[model]
        if not done:
            raise value
        return value

    return estimate


# The instances a detection trial asks for, in the order `detect` asks.
_DETECTED = ("null", "gaussian")


def detect(
    test_kind: str, estimate, rho: float, c1: float = DEFAULT_C1
) -> tuple[DetectionOutcome, DetectionOutcome]:
    """One detection trial: the (null, planted) outcomes of `test_kind` on an
    `estimator`'s null and gaussian instances."""
    return tuple(decide(test_kind, estimate(model)[0], rho, c1) for model in _DETECTED)


def error_rates(
    N: int,
    n: int,
    rho: float,
    c1: float,
    trials: int,
    test_kind: str,
    seed: SeedSpec,
) -> ErrorRateReport:
    """Empirical error rates over `trials` null and `trials` planted
    instances; trial t uses stream index base+t of the given seed."""
    _check_integer("trials", trials, 1)
    false_planted = 0
    missed = 0
    for t in range(trials):
        estimate = estimator(N, n, rho, SeedSpec(seed.master_seed, seed.stream_index + t))
        null, planted = detect(test_kind, estimate, rho, c1)
        false_planted += null.decision == "planted"
        missed += planted.decision == "null"
    return ErrorRateReport(type_I=false_planted / trials, type_II=missed / trials)
