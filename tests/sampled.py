"""Test inputs built from the samplers' own streams.

The public samplers draw one kind of instance each.  Tests that need a
unit-norm planted vector, a rotated instance around one, or another
orthonormal basis of a sampled span build it here from the same lanes and
private draws (`_br_from_rng`, `_basis_from_rng`, `_haar_from_rng`), so the
arrays are the bytes those tests have always seen.  `planted_support` reads
the vector lane itself, so it also sees the all-zero draws the samplers
reject.  `row_block_statistic` is the statistic as an `orth` trial sums it,
built from `pvlab._blas` directly, not through `build_statistic`.
"""

import functools

import numpy as np

from pvlab import _blas, model_gen
from pvlab.model_gen import SeedSpec, apply_rotation
from pvlab.spectral import _row_weights


def unit(v: np.ndarray) -> np.ndarray:
    """v divided by its realized l2 norm."""
    return v / np.linalg.norm(v)


def planted_support(N: int, rho: float, seed: SeedSpec) -> np.ndarray:
    """Which entries of the planted vector on `seed` are nonzero, read from
    the vector lane's uniforms u: entry i is nonzero iff u_i >= 1 - rho."""
    return seed.generator(model_gen._LANE_VECTOR).random(N) >= 1.0 - rho


def basis_around(v: np.ndarray, n: int, seed: SeedSpec) -> np.ndarray:
    """The N x n basis the composite samplers draw on `seed` around v: v in
    column 0 and the basis lane's Gaussian columns after it."""
    return model_gen._basis_from_rng(seed.generator(model_gen._LANE_BASIS), v, n)


def lane_rotation(n: int, seed: SeedSpec) -> np.ndarray:
    """The Haar rotation on `seed`'s rotation lane."""
    return model_gen._haar_from_rng(seed.generator(model_gen._LANE_ROTATION), n)


def unit_basis(N: int, n: int, rho: float, seed: SeedSpec) -> np.ndarray:
    """The Gaussian basis around a unit-norm planted vector in column 0: the
    input that sample_orthonormal_instance orthonormalizes."""
    v = model_gen._br_from_rng(seed.generator(model_gen._LANE_VECTOR), N, rho, normalize=True)
    return basis_around(v, n, seed)


def unit_rotated_instance(N: int, n: int, rho: float, seed: SeedSpec):
    """sample_rotated_instance's (Y @ Q, v), drawn around a unit-norm v."""
    Y = unit_basis(N, n, rho, seed)
    return apply_rotation(Y, lane_rotation(n, seed)), Y[:, 0].copy()


def haar_rotated(Yhat: np.ndarray, seed: SeedSpec) -> np.ndarray:
    """Another orthonormal basis of span(Yhat): Yhat times the Haar rotation
    on `seed`'s rotation lane."""
    return Yhat @ lane_rotation(Yhat.shape[1], seed)


def half_sum_gram(A: np.ndarray) -> np.ndarray:
    """A^T A as orthonormalize forms it: the upper row half's Gram plus the
    lower half's."""
    h = A.shape[0] // 2
    return A[:h].T @ A[:h] + A[h:].T @ A[h:]


def first_pass_error(Y: np.ndarray) -> float:
    """||Q1^T Q1 - I||_F for the first CholeskyQR pass Q1 on Y; the second
    pass runs where this exceeds n * eps."""
    Q1 = Y @ np.linalg.inv(np.linalg.cholesky(half_sum_gram(Y)).T)
    return float(np.linalg.norm(half_sum_gram(Q1) - np.eye(Y.shape[1])))


def row_block_sum(Y: np.ndarray) -> np.ndarray:
    """sum_i w_i y_i y_i^T over the row blocks of `pvlab._blas.times`, as
    `detection.estimate_instance` sums it for an `orth` trial."""
    return _blas.weighted_gram_by_rows(Y, functools.partial(_row_weights, N=len(Y)))


def column_block_sum(Y: np.ndarray) -> np.ndarray:
    """sum_i w_i y_i y_i^T over the column blocks of `pvlab._blas.weighted_gram`,
    as `build_statistic` sums it for a `gaussian` or `null` trial."""
    return _blas.weighted_gram(Y, functools.partial(_row_weights, N=len(Y)))


def centered_statistic(T: np.ndarray, N: int, centered: bool = True) -> np.ndarray:
    """A weighted sum T centered and symmetrized as `build_statistic` does."""
    M = T - (3.0 / N) * np.eye(len(T)) if centered else T
    return 0.5 * (M + M.T)


def row_block_statistic(Y: np.ndarray, centered: bool = True) -> np.ndarray:
    """The statistic of an `orth` trial, from the row-block sum itself."""
    return centered_statistic(row_block_sum(Y), len(Y), centered)
