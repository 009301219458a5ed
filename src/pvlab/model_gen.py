"""Seeded generation of planted vectors, subspace bases, and detection instances.

Two observation models are supported.  In the "gaussian" model the observed
matrix is Y @ Q where the first column of Y is the planted vector v, the other
columns are i.i.d. N(0, I_N / N), and Q is orthogonal.  In the "orthonormal"
model the observation is an orthonormal basis of the column span of Y.  The
null model for detection is an N x n matrix of i.i.d. N(0, 1/N) entries.

All sampling is a pure function of (parameters, SeedSpec) and the BLAS
thread count: same inputs give bit-identical outputs under the same count,
and distinct stream indices give independent draws.  `pvlab` commands and
`run_sweep` run under one BLAS thread (`pvlab._blas.one_blas_thread`); a
library caller that wants their bytes calls the samplers under that pin.
Sampling does not pin the count itself: the count is process-global, so a
pin per sampler would race with the samplers of other threads.
Samplers only sample and return plain arrays; the composite samplers return
the observation and its planted vector as (Y, v), with v = None for a null
draw.  The statistic is summed over the returned observation (`pvlab.spectral`).
A planted vector is checked where it is drawn, under both models: an
all-zero draw raises DegenerateDrawError, so no sampler returns v = 0.

The products, Y @ Q and CholeskyQR2's Gram matrices and Y @ R^-1, are
`pvlab._blas`'s, which cuts them into blocks and may run them on two
threads with unchanged bits.  The composite samplers draw into one N x n
array, a fresh one or the caller's `out`, and write their products over it,
so a sample needs no second N x n array; the public functions never write
their input.
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass

import numpy as np

from . import _blas

__all__ = [
    "DegenerateDrawError",
    "RankDeficientError",
    "SeedSpec",
    "sample_br_vector",
    "sample_gaussian_basis",
    "sample_haar_rotation",
    "apply_rotation",
    "orthonormalize",
    "sample_detection_pair",
    "sample_rotated_instance",
    "sample_orthonormal_instance",
    "dump_instance",
    "load_instance",
]

# Gaussian bases with n <= N/2 are far from singular; a smaller R diagonal
# indicates a caller bug, not bad luck.
RANK_TOL = 1e-8

# Substream lanes used by the composite samplers, so that e.g. the planted
# vector and the Gaussian columns never share random bits.
_LANE_NULL = 0
_LANE_VECTOR = 1
_LANE_ROTATION = 2
_LANE_BASIS = 3

# Rows of Gaussian entries drawn per rng call by _fill_normal.
_FILL_ROWS = 1024


class DegenerateDrawError(ValueError):
    """A sampled planted vector was identically zero: the instance is pure
    noise, with nothing planted to recover or detect."""


class RankDeficientError(ValueError):
    """A basis to orthonormalize was numerically rank-deficient."""

    def __init__(self, column: int, diag: float):
        self.column = column
        self.diag = diag
        super().__init__(
            f"rank-deficient basis: |R[{column},{column}]| = {diag:.3e} <= {RANK_TOL:g}"
        )


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible RNG stream identity: (master_seed, stream_index), two
    non-negative integers.

    Each (master_seed, stream_index) pair deterministically keys a
    counter-based Philox generator, so trials can run in parallel on distinct
    stream indices without shared state.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    def generator(self, *lane: int) -> np.random.Generator:
        """Generator for this stream; extra `lane` ints split off independent
        substreams used by composite samplers."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *lane)
        )
        return np.random.Generator(np.random.Philox(seq))


def _br_from_rng(
    rng: np.random.Generator, N: int, rho: float, normalize: bool
) -> np.ndarray:
    u = rng.random(N)
    magnitude = 1.0 / np.sqrt(N * rho)
    entries = np.zeros(N)
    entries[u >= 1.0 - rho / 2.0] = magnitude
    entries[(u >= 1.0 - rho) & (u < 1.0 - rho / 2.0)] = -magnitude
    if not entries.any():
        raise DegenerateDrawError(
            f"all {N} planted entries are zero (rho={rho}): this stream plants no vector"
        )
    return entries / np.linalg.norm(entries) if normalize else entries


def _fill_normal(rng: np.random.Generator, Y: np.ndarray) -> None:
    """Fill Y, of N rows, with N(0, 1/N) entries.  Row blocks draw the same
    stream in the same C order as one rng.normal call of Y's shape, without
    a temporary of that shape."""
    scale = 1.0 / np.sqrt(len(Y))
    for start in range(0, len(Y), _FILL_ROWS):
        block = Y[start : start + _FILL_ROWS]
        block[...] = rng.normal(scale=scale, size=block.shape)


def _basis_from_rng(
    rng: np.random.Generator, v: np.ndarray, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    Y = np.empty((v.size, n)) if out is None else out
    Y[:, 0] = v
    if n > 1:
        _fill_normal(rng, Y[:, 1:])
    return Y


def _haar_from_rng(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    return Q * signs


def sample_br_vector(N: int, rho: float, seed: SeedSpec) -> np.ndarray:
    """Draw a Bernoulli-Rademacher vector: each entry independently 0 with
    probability 1-rho and +-1/sqrt(N*rho) with probability rho/2 each.  The
    vector is not rescaled, so its norm is 1 only in expectation.  A draw
    with no nonzero entry raises DegenerateDrawError."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    rng = seed.generator()
    return _br_from_rng(rng, N, rho, normalize=False)


def sample_gaussian_basis(v: np.ndarray, n: int, seed: SeedSpec) -> np.ndarray:
    """N x n matrix whose first column is v and whose other n-1 columns are
    i.i.d. N(0, I_N / N) vectors."""
    if not 1 <= n <= v.size:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={v.size}")
    rng = seed.generator()
    return _basis_from_rng(rng, v, n)


def sample_haar_rotation(n: int, seed: SeedSpec) -> np.ndarray:
    """Haar-distributed n x n orthogonal matrix via QR of a Gaussian matrix
    with the diagonal of R forced positive (the sign fix makes the measure exact)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = seed.generator()
    return _haar_from_rng(rng, n)


def apply_rotation(Y: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Right-multiply the basis by the n x n matrix Q into a fresh array;
    the column span is unchanged when Q is orthogonal."""
    n = Y.shape[1]
    if Q.shape != (n, n):
        raise ValueError(f"basis has {n} columns but rotation is {Q.shape}")
    return _blas.times(Y, Q)


def orthonormalize(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of Y: the Q of Y = QR with a
    positive diagonal of R, via CholeskyQR2 (Fukaya et al., 2014), or via
    Householder QR where the Gram matrix cannot decide (see _cholesky_qr2).
    The second CholeskyQR2 pass is skipped when the first is already
    orthonormal to ||Q^T Q - I||_F <= n * eps, as on well-conditioned bases.

    Y is never written: Q is computed over a float64 copy of it, so with Y
    two N x n arrays are held, and the samplers, which orthonormalize their
    own draw in place, hold one.  Gram matrices are the sum of the upper and
    the lower row half's (see pvlab._blas.gram), and the products run on two
    threads with the bits of one call.

    Raises RankDeficientError (with the offending column index) when a
    diagonal entry of R falls below the rank tolerance, and ValueError when
    Y has a NaN or infinite entry.
    """
    return _orthonormalize_over(np.array(Y, dtype=float), lambda: Y)


def _orthonormalize_over(Y: np.ndarray, original) -> np.ndarray:
    """orthonormalize(Y), with Q written over Y where CholeskyQR2 decides.
    Householder QR runs on original(), Y's values, since Y may already hold
    the first pass."""
    G = _blas.gram(Y)
    if not np.isfinite(G).all():
        bad = np.flatnonzero(~np.isfinite(Y).all(axis=0))
        if bad.size:
            raise ValueError(f"non-finite entry in column {int(bad[0])} of the basis")
        return _householder_orthonormalize(original())  # finite Y whose Gram matrix overflows
    Q = _cholesky_qr2(Y, G)
    return _householder_orthonormalize(original()) if Q is None else Q


def _cholesky_qr2(Y: np.ndarray, G: np.ndarray) -> np.ndarray | None:
    """Q from Gram, Cholesky and triangular inverse, given the finite Gram
    matrix G = Y^T Y; None when Householder QR must decide.  The first pass
    Q1 overwrites Y and is returned as it is when ||Q1^T Q1 - I||_F <= n * eps,
    the accuracy of Householder's Q; otherwise a second round runs on Q1
    and overwrites it.  Both products are written in place."""
    try:
        R1 = np.linalg.cholesky(G).T
    except np.linalg.LinAlgError:
        return None
    d = np.diag(R1)
    # Gram-based R loses about sqrt(eps)*||Y||, so near RANK_TOL only Householder can decide.
    if d.size == 0 or d.min() <= max(1e-5 * d.max(), 1e3 * RANK_TOL):
        return None
    Q1 = _blas.times(Y, np.linalg.inv(R1), out=Y)
    G1 = _blas.gram(Q1)
    error = np.linalg.norm(G1 - np.eye(d.size))
    if error <= d.size * np.finfo(np.float64).eps:
        return Q1
    # A first pass this far from orthonormal leaves the second pass inexact
    # (cond(Y) beyond about 1/sqrt(eps), e.g. a Kahan matrix).  Within 0.5 of
    # I, G1 has eigenvalues >= 0.5, so its Cholesky cannot fail.
    if error > 0.5:
        return None
    return _blas.times(Q1, np.linalg.inv(np.linalg.cholesky(G1).T), out=Q1)


def _householder_orthonormalize(Y: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(Y)
    diag = np.abs(np.diag(R))
    small = np.flatnonzero(diag <= RANK_TOL)
    if small.size:
        j = int(small[0])
        raise RankDeficientError(column=j, diag=float(diag[j]))
    signs = np.sign(np.diag(R))
    return Q * signs


def _check_instance_params(N: int, n: int, rho: float) -> None:
    """Domain of the composite samplers: 1 <= n <= N and rho in (0, 1]."""
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")


def _check_output(name: str, array: np.ndarray | None, shape: tuple[int, int]) -> None:
    """An output argument is None or a C-contiguous float64 array of `shape`."""
    if array is None:
        return
    if (array.shape, array.dtype, array.flags.c_contiguous) != (shape, float, True):
        got = f"{array.shape} {array.dtype}" + ("" if array.flags.c_contiguous else " strided")
        raise ValueError(
            f"{name} must be a {shape[0]} x {shape[1]} float64 array in C order, got {got}"
        )


# The composite samplers take a keyword-only `out`, a C-contiguous N x n
# float64 array: the observation is drawn into it, written over it and
# returned as Y.  Without it, Y is a fresh array.  The bytes are the same.


def sample_detection_pair(
    N: int,
    n: int,
    rho: float,
    seed: SeedSpec,
    which: str,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One detection instance (Y, v): "null" gives i.i.d. N(0, 1/N) entries,
    drawn in row blocks with the bytes of one (N, n) draw, and v = None;
    "planted" gives Y @ Q with v ~ BR(N, rho) and Haar Q."""
    if which == "planted":
        return sample_rotated_instance(N, n, rho, seed, out=out)
    if which == "null":
        _check_instance_params(N, n, rho)
        _check_output("out", out, (N, n))
        Y = np.empty((N, n)) if out is None else out
        _fill_normal(seed.generator(_LANE_NULL), Y)
        return Y, None
    raise ValueError(f"which must be 'null' or 'planted', got {which!r}")


def sample_rotated_instance(
    N: int,
    n: int,
    rho: float,
    seed: SeedSpec,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-basis observation (Y @ Q, v) with v ~ BR(N, rho), not
    rescaled, and Haar Q; Y @ Q is written over the drawn basis."""
    _check_instance_params(N, n, rho)
    _check_output("out", out, (N, n))
    v = _br_from_rng(seed.generator(_LANE_VECTOR), N, rho, normalize=False)
    Y = _basis_from_rng(seed.generator(_LANE_BASIS), v, n, out)
    Q = _haar_from_rng(seed.generator(_LANE_ROTATION), n)
    return _blas.times(Y, Q, out=Y), v


def sample_orthonormal_instance(
    N: int,
    n: int,
    rho: float,
    seed: SeedSpec,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal-basis observation (Yhat, v) for a unit planted vector
    v = v'/||v'||, v' ~ BR(N, rho): Yhat is the orthonormalized basis whose
    first column is v, written over the drawn basis.  An all-zero v' raises
    DegenerateDrawError."""
    _check_instance_params(N, n, rho)
    _check_output("out", out, (N, n))
    v = _br_from_rng(seed.generator(_LANE_VECTOR), N, rho, normalize=True)
    Y = _basis_from_rng(seed.generator(_LANE_BASIS), v, n, out)

    def redraw() -> np.ndarray:
        return _basis_from_rng(seed.generator(_LANE_BASIS), v, n, Y)

    Q = _orthonormalize_over(Y, redraw)
    if Q is not Y:  # Householder's
        Y[...] = Q
    return Y, v


# --- instance serialization (CLI `gen`) ---

_DUMP_HEADER = "N,n,rho,kind,seed,stream"
# The dump's `kind` column for each observation model.
_DUMP_KIND = {"gaussian": "rotated", "orth": "orthonormal", "null": "null"}


def dump_instance(
    Y: np.ndarray,
    model: str,
    rho: float,
    seed: SeedSpec,
    out: io.TextIOBase,
) -> None:
    """Write an instance of `model` as CSV: the fixed header line, one
    metadata line, and the matrix rows in row-major order."""
    N, n = Y.shape
    out.write(_DUMP_HEADER + "\n")
    out.write(f"{N},{n},{rho!r},{_DUMP_KIND[model]},{seed.master_seed},{seed.stream_index}\n")
    for row in Y:
        out.write(",".join(repr(float(x)) for x in row) + "\n")


def load_instance(src: io.TextIOBase) -> tuple[np.ndarray, str, float, SeedSpec]:
    """Inverse of dump_instance: (Y, kind, rho, seed); the planted vector is
    not serialized.

    Raises ValueError on a wrong header, a metadata line without six fields
    or with an unknown kind, an unparsable value, values outside the
    samplers' domain (1 <= n <= N, rho in (0, 1]), a matrix of another
    shape than the metadata states, or a NaN or infinite matrix entry."""
    header = src.readline().strip()
    if header != _DUMP_HEADER:
        raise ValueError(f"bad instance header: {header!r}")
    line = src.readline().strip()
    meta = line.split(",")
    if len(meta) != 6 or meta[3] not in _DUMP_KIND.values():
        raise ValueError(f"bad instance metadata line: {line!r}")
    N, n = int(meta[0]), int(meta[1])
    rho = float(meta[2])
    try:
        _check_instance_params(N, n, rho)
    except ValueError as exc:
        raise ValueError(f"bad instance metadata line {line!r}: {exc}") from None
    kind = meta[3]
    seed = SeedSpec(int(meta[4]), int(meta[5]))
    Y = np.loadtxt(src, delimiter=",", ndmin=2)
    if Y.shape != (N, n):
        raise ValueError(f"expected a {N} x {n} matrix, got {Y.shape}")
    bad = np.argwhere(~np.isfinite(Y))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"non-finite entry {Y[i, j]} in matrix row {i}, column {j}")
    return Y, kind, rho, seed
