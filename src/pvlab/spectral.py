"""Centered degree-4 spectral estimator for a planted vector in a subspace.

Given an observed N x n basis with rows y_i, the statistic is

    M = sum_i (||y_i||^2 - (n-1)/N) * y_i y_i^T - (3/N) * I_n .

The row weight ||y_i||^2 - (n-1)/N and the -(3/N) I centering make M
concentrate around (||v||_4^4 - 3/N) e e^T in the planted direction, so the
eigenvector of largest |eigenvalue| points at the planted vector whenever its
l4 norm differs from the Gaussian value 3/N.  The uncentered variant (without
the -(3/N) I term) is kept for comparison; it loses the dense case rho = 1.

M's one O(N n^2) product, sum_i w_i y_i y_i^T, is summed only in
`build_statistic`, from Y: over `pvlab._blas.weighted_gram`'s column
blocks, or over `weighted_gram_by_rows`' row blocks for an `orth` trial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _blas

__all__ = [
    "SpectralResult",
    "ErrorReport",
    "build_statistic",
    "leading_eigenpair",
    "estimate_direction",
    "recover_gaussian_rule",
    "recover_orthonormal_rule",
    "score",
    "signs_match",
]


@dataclass(frozen=True)
class SpectralResult:
    """The statistic M, its leading eigenvalue and gap, and the lift Y_obs @ u."""

    statistic: np.ndarray
    leading_value: float
    raw_estimate: np.ndarray
    gap: float


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics after optimal global sign alignment."""

    l2_error: float
    entrywise_max_weighted: float
    exact_match: bool | None


def _row_weights(rows: np.ndarray, N: int) -> np.ndarray:
    """The weights ||y_i||^2 - (n-1)/N of some rows of an N-row observation."""
    return np.einsum("ij,ij->i", rows, rows) - (rows.shape[1] - 1) / N


def build_statistic(
    Y_obs: np.ndarray, centered: bool = True, *, by_rows: bool = False
) -> np.ndarray:
    """Accumulate the degree-4 statistic M from the rows of the observation.

    With centered=False the -(3/N) I term is omitted (the earlier variant of
    the method); the two outputs differ by exactly (3/N) I.

    Neither kernel makes an N x n weighted copy of Y.  The column blocks of
    `pvlab._blas.weighted_gram` are the default; by_rows=True takes the row
    blocks of `weighted_gram_by_rows`, which read Y once.  `orth` trials take
    the row blocks; the benchmark's references pin the others' bytes.
    """
    Y = np.asarray(Y_obs, dtype=float)
    N, n = Y.shape
    weighted_gram = _blas.weighted_gram_by_rows if by_rows else _blas.weighted_gram
    M = weighted_gram(Y, functools.partial(_row_weights, N=N))
    if centered:
        M -= (3.0 / N) * np.eye(n)
    return 0.5 * (M + M.T)


def leading_eigenpair(M: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Eigenpair of largest |eigenvalue| plus the singular-value gap.

    Returns (lambda, u, gap) where gap is the difference between the largest
    and second-largest singular value (for a symmetric matrix, the sorted
    |eigenvalues|).  A magnitude tie between the extreme eigenvalues is broken
    toward the positive one, and u is canonicalized so its largest-magnitude
    coordinate is positive.
    """
    eigvals, eigvecs = np.linalg.eigh(np.asarray(M, dtype=float))
    lo, hi = eigvals[0], eigvals[-1]
    idx = -1 if abs(hi) >= abs(lo) else 0
    lam = float(eigvals[idx])
    u = eigvecs[:, idx].copy()
    u = _canonical_sign(u)
    svals = np.sort(np.abs(eigvals))[::-1]
    gap = float(svals[0] - svals[1]) if svals.size > 1 else float(svals[0])
    return lam, u, gap


def _canonical_sign(u: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(u)))
    return -u if u[j] < 0 else u


def estimate_direction(
    Y_obs: np.ndarray, centered: bool = True, *, by_rows: bool = False
) -> SpectralResult:
    """Build the statistic (over row blocks when by_rows), take its leading
    eigenpair, and lift the eigenvector back to observation space via Y_obs @ u."""
    Y = np.asarray(Y_obs, dtype=float)
    M = build_statistic(Y, centered=centered, by_rows=by_rows)
    lam, u, gap = leading_eigenpair(M)
    return SpectralResult(M, lam, Y @ u, gap)


def recover_gaussian_rule(raw: np.ndarray, rho: float) -> np.ndarray:
    """Threshold at 0.5/sqrt(N*rho) and snap surviving entries to
    +-1/sqrt(N*rho).  Needs the sparsity rho."""
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    raw = np.asarray(raw, dtype=float)
    magnitude = 1.0 / np.sqrt(raw.size * rho)
    return np.where(np.abs(raw) >= 0.5 * magnitude, np.sign(raw) * magnitude, 0.0)


def recover_orthonormal_rule(raw: np.ndarray) -> np.ndarray:
    """Keep entries within a factor 0.5 of the largest |entry|, take their
    signs, and normalize.  Does not use the sparsity rho."""
    raw = np.asarray(raw, dtype=float)
    peak = float(np.max(np.abs(raw)))
    if peak == 0.0:
        raise ValueError("cannot threshold an all-zero estimate")
    vhat = np.sign(raw) * (np.abs(raw) >= 0.5 * peak)
    return vhat / np.linalg.norm(vhat)


def signs_match(recovered: np.ndarray, truth: np.ndarray) -> bool:
    """True when the two vectors have identical support and, up to one global
    flip, identical signs on it.  This is exact recovery for vectors whose
    nonzero entries share a common magnitude."""
    a = np.sign(recovered)
    b = np.sign(truth)
    return bool(np.array_equal(a, b) or np.array_equal(a, -b))


def score(
    estimate: np.ndarray,
    truth: np.ndarray,
    recovered: np.ndarray | None = None,
) -> ErrorReport:
    """Score an estimate against the planted vector.

    The global sign minimizing the l2 error is chosen first (a zero inner
    product is broken by canonicalizing the estimate itself, so the report is
    exactly invariant under a sign flip of the estimate).  The entrywise
    metric weights coordinate j by |v_j| + 1/sqrt(N).  exact_match is filled
    from the thresholded vector `recovered` when given, via support-and-sign
    comparison.
    """
    v = np.asarray(truth)
    est = np.asarray(estimate, dtype=float)
    if est.shape != v.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {v.shape}")
    dot = float(est @ v)
    if dot > 0:
        s = 1
    elif dot < 0:
        s = -1
    else:
        j = int(np.argmax(np.abs(est)))
        s = -1 if est[j] < 0 else 1
    aligned = s * est
    diff = aligned - v
    N = v.size
    weights = np.abs(v) + 1.0 / np.sqrt(N)
    return ErrorReport(
        l2_error=float(np.linalg.norm(diff)),
        entrywise_max_weighted=float(np.max(np.abs(diff) / weights)),
        exact_match=None if recovered is None else signs_match(recovered, v),
    )

