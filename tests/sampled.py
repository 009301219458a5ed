"""Test inputs built from the samplers' own streams.

The public samplers draw one kind of instance each.  Tests that need a
unit-norm planted vector, a rotated instance around one, or another
orthonormal basis of a sampled span build it here from the same lanes and
private draws (`_br_from_rng`, `_basis_from_rng`, `_haar_from_rng`), so the
arrays are the bytes those tests have always seen.
"""

import numpy as np

from pvlab import model_gen
from pvlab.model_gen import SeedSpec, apply_rotation


def unit(v: np.ndarray) -> np.ndarray:
    """v divided by its realized l2 norm."""
    return v / np.linalg.norm(v)


def unit_basis(N: int, n: int, rho: float, seed: SeedSpec) -> np.ndarray:
    """The Gaussian basis around a unit-norm planted vector in column 0: the
    input that sample_orthonormal_instance orthonormalizes."""
    v = model_gen._br_from_rng(seed.generator(model_gen._LANE_VECTOR), N, rho, normalize=True)
    return model_gen._basis_from_rng(seed.generator(model_gen._LANE_BASIS), v, n)


def unit_rotated_instance(N: int, n: int, rho: float, seed: SeedSpec):
    """sample_rotated_instance's (Y @ Q, v), drawn around a unit-norm v."""
    Y = unit_basis(N, n, rho, seed)
    Q = model_gen._haar_from_rng(seed.generator(model_gen._LANE_ROTATION), n)
    return apply_rotation(Y, Q), Y[:, 0].copy()


def haar_rotated(Yhat: np.ndarray, seed: SeedSpec) -> np.ndarray:
    """Another orthonormal basis of span(Yhat): Yhat times the Haar rotation
    on `seed`'s rotation lane."""
    return Yhat @ model_gen._haar_from_rng(seed.generator(model_gen._LANE_ROTATION), Yhat.shape[1])


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
