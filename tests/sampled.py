"""Test inputs built from the samplers' own streams.

The public samplers draw one kind of instance each.  Tests that need a
unit-norm planted vector, a rotated instance around one, or another
orthonormal basis of a sampled span build it here from the same lanes and
private draws (`_br_from_rng`, `_basis_from_rng`, `_haar_from_rng`), so the
arrays are the bytes those tests have always seen.  `planted_support` reads
the vector lane itself, so it also sees the all-zero draws the samplers
reject.  `row_block_statistic` is the statistic as every trial sums it,
built in plain numpy, not through `pvlab`: the one restatement of the
row-block rule, which only the split-product property and the two-pass
reference of `test_threads.py` compare with.  `one_call_statistic` sums it
in one product instead.
"""

import numpy as np

from pvlab import model_gen
from pvlab.model_gen import SeedSpec, apply_rotation


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
    v = unit(model_gen._br_from_rng(seed.generator(model_gen._LANE_VECTOR), N, rho))
    return basis_around(v, n, seed)


def unit_rotated_instance(N: int, n: int, rho: float, seed: SeedSpec):
    """sample_rotated_instance's (Y @ Q, v), drawn around a unit-norm v."""
    Y = unit_basis(N, n, rho, seed)
    return apply_rotation(Y, lane_rotation(n, seed)), Y[:, 0].copy()


def haar_rotated(Yhat: np.ndarray, seed: SeedSpec) -> np.ndarray:
    """Another orthonormal basis of span(Yhat): Yhat times the Haar rotation
    on `seed`'s rotation lane."""
    return Yhat @ lane_rotation(Yhat.shape[1], seed)


# The row-block rule of `pvlab._blas.gram`, restated: a block is the
# fewest multiples of 1024 rows that make at least 2**22 multiply-adds, a
# short remainder joins the last block, and the blocks are summed as two
# pieces split at the inner edge nearest the middle.
MIN_PIECE = 2**22


def row_block_sum(Y: np.ndarray, weighted: bool = True) -> np.ndarray:
    """sum_i w_i y_i y_i^T over Y's row blocks, block for block as
    `build_statistic` sums it, in plain numpy: each piece's blocks in
    order, then the first piece's sum plus the second's.  With
    weighted=False every w_i is 1: Y^T Y as `orthonormalize` sums it."""
    N, n = Y.shape
    size = -(-MIN_PIECE // (1024 * n * n)) * 1024
    edges = [*range(0, N - size + 1, size), N] if N >= 2 * size else [0, N]
    split = min(edges[1:-1], key=lambda edge: abs(2 * edge - N), default=0)
    sums = np.zeros((2, n, n))
    for a, b in zip(edges, edges[1:]):
        rows = Y[a:b]
        if weighted:
            weights = np.einsum("ij,ij->i", rows, rows) - (n - 1) / N
            sums[int(a >= split)] += (rows * weights[:, None]).T @ rows
        else:
            sums[int(a >= split)] += rows.T @ rows
    return sums[0] + sums[1]


def first_pass_error(Y: np.ndarray) -> float:
    """||Q1^T Q1 - I||_F for the first CholeskyQR pass Q1 on Y; the second
    pass runs where this exceeds n * eps."""
    Q1 = Y @ np.linalg.inv(np.linalg.cholesky(row_block_sum(Y, weighted=False)).T)
    return float(np.linalg.norm(row_block_sum(Q1, weighted=False) - np.eye(Y.shape[1])))


def centered_statistic(T: np.ndarray, N: int, centered: bool = True) -> np.ndarray:
    """A weighted sum T centered and symmetrized as `build_statistic` does."""
    M = T - (3.0 / N) * np.eye(len(T)) if centered else T
    return 0.5 * (M + M.T)


def row_block_statistic(Y: np.ndarray, centered: bool = True) -> np.ndarray:
    """The statistic of a trial, from the plain-numpy row-block sum."""
    return centered_statistic(row_block_sum(Y), len(Y), centered)


def one_call_statistic(Y: np.ndarray, centered: bool = True) -> np.ndarray:
    """The statistic's arithmetic with its weighted sum as one product."""
    N, n = Y.shape
    weights = np.einsum("ij,ij->i", Y, Y) - (n - 1) / N
    return centered_statistic((Y * weights[:, None]).T @ Y, N, centered)
