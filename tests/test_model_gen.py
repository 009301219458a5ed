"""Tests for instance generation: distributions, determinism, serialization."""

import hashlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlab import model_gen
from pvlab._blas import one_blas_thread
from pvlab.detection import recover
from pvlab.model_gen import (
    RANK_TOL,
    DegenerateDrawError,
    RankDeficientError,
    SeedSpec,
    apply_rotation,
    dump_instance,
    load_instance,
    orthonormalize,
    sample_br_vector,
    sample_detection_pair,
    sample_gaussian_basis,
    sample_haar_rotation,
    sample_rotated_instance,
    sample_orthonormal_instance,
)
from pvlab.spectral import build_statistic, estimate_direction

from sampled import (
    first_pass_error,
    haar_rotated,
    half_sum_gram,
    row_block_statistic,
    row_block_sum,
    unit,
    unit_basis,
)


class TestSeedSpec:
    @pytest.mark.parametrize(
        "args, name, value",
        [
            ((-1,), "master_seed", "-1"),
            ((0, -3), "stream_index", "-3"),
            ((True,), "master_seed", "True"),
            ((0, False), "stream_index", "False"),
            ((1.0,), "master_seed", "1.0"),
            (("3",), "master_seed", "'3'"),
        ],
    )
    def test_rejects_negative_bool_and_non_integer(self, args, name, value):
        message = f"{name} must be a non-negative integer, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SeedSpec(*args)

    def test_numpy_integers_key_the_same_stream(self):
        a = SeedSpec(np.int64(3), np.uint8(5)).generator().random()
        assert a == SeedSpec(3, 5).generator().random()


class TestSampleBrVector:
    def test_rho_one_forces_magnitude(self):
        v = sample_br_vector(4, 1.0, SeedSpec(1))
        assert np.all(np.isin(v, [0.5, -0.5]))
        assert np.count_nonzero(v) == 4

    def test_entries_exact_magnitude(self):
        v = sample_br_vector(500, 0.3, SeedSpec(2))
        nz = v[v != 0]
        assert np.all(np.abs(nz) == 1.0 / np.sqrt(500 * 0.3))

    def test_support_size_binomial(self):
        # Binomial(1000, 0.1): mean 100, 3 sigma ~ 28.5
        sizes = [
            np.count_nonzero(sample_br_vector(1000, 0.1, SeedSpec(3, t)))
            for t in range(40)
        ]
        assert all(50 <= s <= 150 for s in sizes)
        assert abs(np.mean(sizes) - 100) < 15

    def test_determinism(self):
        a = sample_br_vector(100, 0.5, SeedSpec(6, 7))
        b = sample_br_vector(100, 0.5, SeedSpec(6, 7))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_br_vector(100, 0.5, SeedSpec(6, 7))
        b = sample_br_vector(100, 0.5, SeedSpec(6, 8))
        assert not np.array_equal(a, b)

    def test_l4_concentration(self):
        # ||v||_4^4 = support / (N rho)^2 concentrates around 1/(N rho)
        N, rho, trials = 2000, 0.2, 200
        vals = [
            np.sum(sample_br_vector(N, rho, SeedSpec(8, t)) ** 4)
            for t in range(trials)
        ]
        target = 1.0 / (N * rho)
        se = np.sqrt(N * rho * (1 - rho)) / (N * rho) ** 2 / np.sqrt(trials)
        assert abs(np.mean(vals) - target) <= 5 * se

    @pytest.mark.parametrize("bad", [{"N": 0, "rho": 0.5}, {"N": 10, "rho": 0.0}, {"N": 10, "rho": 1.5}])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            sample_br_vector(bad["N"], bad["rho"], SeedSpec(0))


class TestGaussianBasis:
    def test_first_column_is_v(self):
        v = sample_br_vector(50, 0.5, SeedSpec(10))
        Y = sample_gaussian_basis(v, 5, SeedSpec(11))
        assert np.array_equal(Y[:, 0], v)

    def test_single_column(self):
        v = sample_br_vector(8, 1.0, SeedSpec(12))
        Y = sample_gaussian_basis(v, 1, SeedSpec(13))
        assert Y.shape == (8, 1)
        assert np.array_equal(Y[:, 0], v)

    def test_column_norms_near_one(self):
        v = sample_br_vector(10000, 0.1, SeedSpec(14))
        Y = sample_gaussian_basis(v, 5, SeedSpec(15))
        norms = np.linalg.norm(Y[:, 1:], axis=0)
        assert np.all((0.9 <= norms) & (norms <= 1.1))

    def test_determinism(self):
        v = sample_br_vector(100, 0.5, SeedSpec(16))
        a = sample_gaussian_basis(v, 4, SeedSpec(17))
        b = sample_gaussian_basis(v, 4, SeedSpec(17))
        assert np.array_equal(a, b)

    def test_rejects_n_above_N(self):
        v = sample_br_vector(5, 1.0, SeedSpec(18))
        with pytest.raises(ValueError):
            sample_gaussian_basis(v, 6, SeedSpec(19))

    @pytest.mark.parametrize("n", [1, 2, 9])
    @pytest.mark.parametrize("N", [1, 1023, 1024, 1025, 3000])
    def test_row_blocked_fill_matches_one_call(self, N, n):
        # The basis is drawn in row blocks; its bytes must equal those of a
        # single normal(size=(N, n-1)) call on the same lane.
        v = np.linspace(-1.0, 1.0, N)
        seed = SeedSpec(53, N)
        Y = model_gen._basis_from_rng(seed.generator(model_gen._LANE_BASIS), v, n)
        expected = np.empty((N, n))
        expected[:, 0] = v
        rng = seed.generator(model_gen._LANE_BASIS)
        expected[:, 1:] = rng.normal(scale=1.0 / np.sqrt(N), size=(N, n - 1))
        assert Y.tobytes() == expected.tobytes()


class TestHaarRotation:
    def test_orthogonality(self):
        Q = sample_haar_rotation(3, SeedSpec(20))
        assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-10

    def test_determinant_is_unit(self):
        for t in range(5):
            Q = sample_haar_rotation(4, SeedSpec(21, t))
            assert abs(abs(np.linalg.det(Q)) - 1.0) <= 1e-8

    def test_n_equals_one_is_sign(self):
        vals = {float(sample_haar_rotation(1, SeedSpec(22, t))[0, 0]) for t in range(40)}
        assert vals == {1.0, -1.0}

    def test_first_column_mean(self):
        # mean of each first-column entry over 10^4 draws is 0 within 4 SE
        n, draws = 3, 10**4
        acc = np.zeros(n)
        for t in range(draws):
            acc += sample_haar_rotation(n, SeedSpec(23, t))[:, 0]
        assert np.all(np.abs(acc / draws) <= 4.0 / np.sqrt(draws * n))

    def test_rotated_vector_coordinate_variance(self):
        # per-coordinate variance of Q e1 is 1/n within 5 SE over 10^4 draws
        n, draws = 3, 10**4
        first = np.empty(draws)
        for t in range(draws):
            first[t] = sample_haar_rotation(n, SeedSpec(24, t))[0, 0]
        var = np.var(first)
        # Var(u_1^2) = 3/(n(n+2)) - 1/n^2 for a uniform unit vector
        se = np.sqrt((3.0 / (n * (n + 2)) - 1.0 / n**2) / draws)
        assert abs(var - 1.0 / n) <= 5 * se


class TestApplyRotation:
    def test_identity_rotation(self):
        v = sample_br_vector(30, 0.5, SeedSpec(25))
        Y = sample_gaussian_basis(v, 4, SeedSpec(26))
        out = apply_rotation(Y, np.eye(4))
        assert np.array_equal(out, Y)

    def test_span_preserved(self):
        v = sample_br_vector(200, 0.2, SeedSpec(27))
        Y = sample_gaussian_basis(v, 10, SeedSpec(28))
        Q = sample_haar_rotation(10, SeedSpec(29))
        Yt = apply_rotation(Y, Q)
        # project Y onto span(Yt): residual should vanish
        Qb, _ = np.linalg.qr(Yt)
        residual = Y - Qb @ (Qb.T @ Y)
        assert np.max(np.abs(residual)) <= 1e-9

    def test_frobenius_invariant(self):
        v = sample_br_vector(100, 0.5, SeedSpec(30))
        Y = sample_gaussian_basis(v, 6, SeedSpec(31))
        Q = sample_haar_rotation(6, SeedSpec(32))
        Yt = apply_rotation(Y, Q)
        assert abs(np.linalg.norm(Yt) - np.linalg.norm(Y)) <= 1e-9

    @pytest.mark.parametrize("N, n", [(300, 8), (40000, 20), (4000, 100)])
    def test_never_writes_y(self, N, n):
        # One product, and row blocks on two threads.
        Y = sample_gaussian_basis(sample_br_vector(N, 0.2, SeedSpec(27)), n, SeedSpec(28))
        before = Y.copy()
        with one_blas_thread():
            Yt = apply_rotation(Y, sample_haar_rotation(n, SeedSpec(29)))
        assert Y.tobytes() == before.tobytes()
        assert not np.shares_memory(Yt, Y)

    def test_dimension_mismatch(self):
        v = sample_br_vector(20, 0.5, SeedSpec(33))
        Y = sample_gaussian_basis(v, 4, SeedSpec(34))
        Q = sample_haar_rotation(5, SeedSpec(35))
        with pytest.raises(ValueError):
            apply_rotation(Y, Q)


def householder_oracle(Y):
    """Reference orthonormalization: Householder QR with the R-diagonal sign
    fix and the RANK_TOL check."""
    Q, R = np.linalg.qr(Y)
    diag = np.abs(np.diag(R))
    small = np.flatnonzero(diag <= RANK_TOL)
    if small.size:
        raise RankDeficientError(column=int(small[0]), diag=float(diag[small[0]]))
    return Q * np.sign(np.diag(R))


@st.composite
def bases(draw):
    """Gaussian N x n bases at scales 1e-10..1e3, some with one column equal
    to a combination of earlier columns plus relative noise 1e-14..1e-2."""
    N = draw(st.integers(2, 299))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-10, 3))
    Y = rng.normal(size=(N, n)) * scale
    if n >= 2 and draw(st.booleans()):
        j = draw(st.integers(1, n - 1))
        noise = 10.0 ** draw(st.floats(-14, -2))
        Y[:, j] = Y[:, :j] @ rng.normal(size=j) + noise * scale * rng.normal(size=N)
    return Y


def _zero_column():  # the Cholesky factorization of Y^T Y fails
    Y = np.random.default_rng(4).normal(size=(30, 4))
    Y[:, 2] = 0.0
    return Y


def _small_r_diagonal():  # R[3, 3] below 1e3 * RANK_TOL
    rng = np.random.default_rng(3)
    Q0, _ = np.linalg.qr(rng.normal(size=(50, 4)))
    R = np.triu(rng.normal(size=(4, 4)), 1) + np.diag([2.0, 2.0, 2.0, 5e-2])
    return 1e-4 * (Q0 @ R)


def _kahan():  # the first pass is too far from orthonormal
    n, s = 40, 0.75
    K = np.diag(s ** np.arange(n)) @ (np.eye(n) - np.sqrt(1 - s * s) * np.triu(np.ones((n, n)), 1))
    return np.vstack([K, np.zeros((10, n))])


def _well_conditioned():  # one CholeskyQR pass is orthonormal to n * eps
    v = sample_br_vector(500, 0.1, SeedSpec(54))
    return sample_gaussian_basis(v, 12, SeedSpec(55))


def _nearly_collinear():  # one CholeskyQR pass leaves ||Q^T Q - I||_F ~ 1e-10
    Y = _well_conditioned()
    Y[:, 1] = Y[:, 2] + 1e-3 * Y[:, 1]
    return Y


def _gram_overflow():
    return np.random.default_rng(2).normal(size=(30, 4)) * 1e160


def _with_entry(value):
    def make():
        Y = np.random.default_rng(1).normal(size=(30, 4))
        Y[7, 2] = value
        return Y

    return make


# One basis per CholeskyQR2 branch, and the non-finite inputs it rejects.
BRANCHES = pytest.mark.parametrize(
    "make",
    [_well_conditioned, _nearly_collinear, _zero_column, _small_r_diagonal, _kahan,
     _gram_overflow, _with_entry(np.nan), _with_entry(np.inf)],
    ids=["one_pass", "two_passes", "cholesky_fails", "small_r_diagonal", "kahan",
         "gram_overflow", "nan", "inf"],
)


class TestOrthonormalize:
    def test_columns_orthonormal(self):
        v = sample_br_vector(200, 0.2, SeedSpec(36))
        Y = sample_gaussian_basis(v, 10, SeedSpec(37))
        Yh = orthonormalize(Y)
        assert np.max(np.abs(Yh.T @ Yh - np.eye(10))) <= 1e-10

    def test_span_preserved(self):
        v = sample_br_vector(200, 0.2, SeedSpec(38))
        Y = sample_gaussian_basis(v, 10, SeedSpec(39))
        Yh = orthonormalize(Y)
        assert np.max(np.abs(Yh @ (Yh.T @ Y) - Y)) <= 1e-8

    def test_already_orthonormal_fixed_point(self):
        v = sample_br_vector(100, 0.5, SeedSpec(40))
        Y = sample_gaussian_basis(v, 5, SeedSpec(41))
        Yh = orthonormalize(Y)
        again = orthonormalize(Yh)
        assert np.allclose(again, Yh, atol=1e-12)

    def test_single_unit_column(self):
        v = unit(sample_br_vector(50, 0.5, SeedSpec(42)))
        Yh = orthonormalize(v[:, None])
        assert np.allclose(np.abs(Yh[:, 0]), np.abs(v), atol=1e-12)

    def test_rank_deficient_reports_column(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(30, 4))
        Y[:, 3] = Y[:, 1]  # exact dependency
        with pytest.raises(RankDeficientError) as exc:
            orthonormalize(Y)
        assert exc.value.column == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_rejected(self, value):
        Y = np.random.default_rng(1).normal(size=(30, 4))
        Y[7, 2] = value
        with pytest.raises(ValueError, match="column 2") as exc:
            orthonormalize(Y)
        assert not isinstance(exc.value, RankDeficientError)

    def test_overflowing_gram_matches_householder(self):
        # Y^T Y overflows although Y is finite: Householder QR still applies.
        Y = np.random.default_rng(2).normal(size=(30, 4)) * 1e160
        Yh = orthonormalize(Y)
        assert np.max(np.abs(Yh - householder_oracle(Y))) <= 1e-13

    @pytest.mark.parametrize(
        "scale, last_diag",
        [(1e-4, 5e-6), (1e3, 1e-3)],
        ids=["absolute", "relative"],
    )
    def test_small_r_diagonal_decided_by_householder(self, scale, last_diag):
        # R[3, 3] is below 1e3 * RANK_TOL, or below 1e-5 of the largest
        # diagonal: the Gram matrix cannot resolve it, so Householder answers.
        rng = np.random.default_rng(3)
        Q0, _ = np.linalg.qr(rng.normal(size=(50, 4)))
        R = np.triu(rng.normal(size=(4, 4)), 1) + np.diag([2.0, 2.0, 2.0, last_diag / scale])
        Y = scale * (Q0 @ R)
        assert np.array_equal(orthonormalize(Y), householder_oracle(Y))

    @pytest.mark.parametrize("n, s", [(40, 0.75), (60, 0.83)])
    def test_ill_conditioned_kahan_matches_householder(self, n, s):
        # cond(Y) ~ 1e14 and ~ 1e16 with every diagonal of R above the rank
        # guard: one CholeskyQR2 round trip is not orthonormal here.
        c = np.sqrt(1.0 - s * s)
        K = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        Y = np.vstack([K, np.zeros((10, n))])
        Yh = orthonormalize(Y)
        assert np.max(np.abs(Yh.T @ Yh - np.eye(n))) <= 1e-12
        assert np.array_equal(Yh, householder_oracle(Y))

    @pytest.mark.parametrize("N, n", [(3000, 40), (20000, 100)])
    def test_sampled_bases_take_one_pass(self, N, n):
        for t in range(3):
            Y = unit_basis(N, n, 0.05, SeedSpec(56, t))  # sample_orthonormal_instance's input
            before = Y.copy()
            Yh = orthonormalize(Y)
            assert not np.shares_memory(Yh, Y)
            assert Y.tobytes() == before.tobytes()
            assert np.linalg.norm(Yh.T @ Yh - np.eye(n)) <= n * np.finfo(np.float64).eps

    def test_householder_after_the_first_pass_sees_the_drawn_basis(self, monkeypatch):
        # A first pass too far from orthonormal for a second has already
        # overwritten the basis; Householder QR must still see the basis's
        # values: the public function's input, or the sampler's redrawn lane.
        real = model_gen._cholesky_qr2

        def refused_after_first_pass(Y, G):
            real(Y, G)
            return None

        monkeypatch.setattr(model_gen, "_cholesky_qr2", refused_after_first_pass)
        seed = SeedSpec(59)
        Y = unit_basis(3000, 20, 0.05, seed)
        before = Y.copy()
        assert np.array_equal(orthonormalize(Y), householder_oracle(before))
        assert Y.tobytes() == before.tobytes()
        Yh, _ = sample_orthonormal_instance(3000, 20, 0.05, seed)
        assert np.array_equal(Yh, householder_oracle(before))

    def test_householder_q_is_written_over_out(self, monkeypatch):
        # Householder's Q is a fresh array; a sampler given `out` copies it
        # there, so the observation is always the caller's array, and the
        # statistic an `orth` trial sums over it is Q's.
        monkeypatch.setattr(model_gen, "_cholesky_qr2", lambda Y, G: None)
        seed = SeedSpec(59)
        expected = householder_oracle(unit_basis(3000, 20, 0.05, seed))
        out = np.full((3000, 20), np.nan)
        Yh, _ = sample_orthonormal_instance(3000, 20, 0.05, seed, out=out)
        assert Yh is out
        assert out.tobytes() == expected.tobytes()
        T = row_block_sum(Yh)
        assert np.allclose(T, build_statistic(expected, centered=False), rtol=0, atol=1e-15)

    def test_nearly_collinear_basis_takes_the_second_pass(self):
        Y = _nearly_collinear()
        assert first_pass_error(Y) > 12 * np.finfo(np.float64).eps
        Q = orthonormalize(Y)
        assert np.max(np.abs(Q.T @ Q - np.eye(12))) <= 1e-12

    def test_blocked_second_pass_bytes_pinned(self):
        # 40000 rows span 40 row blocks of the in-place second pass, which
        # this basis takes; its bytes are those of one full-size product
        # (the Gram matrices are sums of two row halves, as in production).
        N, n, seed = 40000, 2, SeedSpec(57, 4)
        with one_blas_thread():  # the sampler's bytes under the CLI and sweep
            Y = unit_basis(N, n, 0.05, seed)
            assert first_pass_error(Y) > n * np.finfo(np.float64).eps
            Q, _ = sample_orthonormal_instance(N, n, 0.05, seed)
            Q1 = Y @ np.linalg.inv(np.linalg.cholesky(half_sum_gram(Y)).T)
            full = Q1 @ np.linalg.inv(np.linalg.cholesky(half_sum_gram(Q1)).T)
        assert Q.tobytes() == full.tobytes()
        digest = "1fb5b907c9cf2a0ee07ac0e4e80024d49d1b787f547be9b718a1000b09a0fdb4"
        assert hashlib.sha256(Q.tobytes()).hexdigest() == digest

    @BRANCHES
    def test_never_writes_y(self, make):
        Y = make()
        before = Y.copy()
        try:
            Q = orthonormalize(Y)
        except ValueError:
            Q = None
        assert Y.tobytes() == before.tobytes()
        assert Q is None or not np.shares_memory(Q, Y)

    @BRANCHES
    def test_weighted_sum_on_every_branch(self, make):
        # An `orth` trial's path: the sampler writes Q over the drawn basis
        # with orthonormalize's bytes, and the statistic summed over Q's row
        # blocks is build_statistic's up to rounding.
        Y = make()
        try:
            Q = model_gen._orthonormalize_over(Y.copy(), lambda: Y.copy())
        except ValueError:
            with pytest.raises(ValueError):
                orthonormalize(Y)
            return
        assert Q.tobytes() == orthonormalize(Y).tobytes()
        for centered in (True, False):
            M = build_statistic(Q, centered)
            summed = row_block_statistic(Q, centered)
            assert np.max(np.abs(summed - M)) <= 1e-13 * np.max(np.abs(M))

    @pytest.mark.parametrize("layout", ["strided", "fortran", "readonly", "int"])
    def test_any_layout_matches_householder_and_stays_unwritten(self, layout):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(40, 10))
        if layout == "strided":
            Y = base[:, ::2]
        elif layout == "fortran":
            Y = np.asfortranarray(base[:, :5])
        elif layout == "readonly":
            Y = base[:, :5].copy()
            Y.flags.writeable = False
        else:
            Y = rng.integers(-9, 10, size=(40, 5))
        before = Y.copy()
        Q = orthonormalize(Y)
        assert Q.dtype == np.float64 and not np.shares_memory(Q, Y)
        assert np.array_equal(Y, before)
        assert np.max(np.abs(Q - householder_oracle(Y.astype(float)))) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_householder_oracle(self, data):
        Y = data.draw(bases())
        try:
            expected = householder_oracle(Y)
        except RankDeficientError as oracle_exc:
            with pytest.raises(RankDeficientError) as exc:
                orthonormalize(Y)
            assert (exc.value.column, exc.value.diag) == (oracle_exc.column, oracle_exc.diag)
            return
        Yh = orthonormalize(Y)
        assert Yh.shape == expected.shape
        assert np.max(np.abs(Yh - expected)) <= 1e-9

    @pytest.mark.parametrize("N, n", [(4000, 20), (2000, 10), (300, 8)])
    def test_sampled_instances_match_oracle(self, N, n):
        rho = 0.05
        for t in range(4):
            Yh, v = sample_orthonormal_instance(N, n, rho, SeedSpec(52, t))
            expected = householder_oracle(unit_basis(N, n, rho, SeedSpec(52, t)))
            assert np.max(np.abs(Yh - expected)) <= 1e-13
            got = recover("orth", estimate_direction(Yh), v, rho)
            want = recover("orth", estimate_direction(expected), v, rho)
            assert got.exact_match == want.exact_match


class TestDetectionPair:
    def test_null_mean_concentrates(self):
        N, n = 100, 5
        for t in range(5):
            Y, v = sample_detection_pair(N, n, 0.1, SeedSpec(43, t), "null")
            assert abs(Y.mean()) <= 5.0 / np.sqrt(N * n * N)
            assert v is None

    def test_planted_rho1_n1_is_signed_v(self):
        Y, v = sample_detection_pair(64, 1, 1.0, SeedSpec(44), "planted")
        column = Y[:, 0]
        assert np.allclose(column, v) or np.allclose(column, -v)

    def test_null_and_planted_differ(self):
        null_Y, _ = sample_detection_pair(50, 3, 0.5, SeedSpec(45), "null")
        planted_Y, _ = sample_detection_pair(50, 3, 0.5, SeedSpec(45), "planted")
        assert not np.array_equal(null_Y, planted_Y)

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            sample_detection_pair(10, 2, 0.5, SeedSpec(46), "both")

    @pytest.mark.parametrize(
        "N, n",
        [(N, n) for N in (1, 1023, 1024, 1025, 3000, 10000) for n in (1, 2, 17, 100) if n <= N],
    )
    def test_null_row_blocked_draw_matches_one_call(self, N, n):
        # The null draw fills its rows a block at a time, into `out` or a
        # fresh array; its bytes must equal one normal(size=(N, n)) call.
        seed = SeedSpec(60, N)
        rng = seed.generator(model_gen._LANE_NULL)
        expected = rng.normal(scale=1.0 / np.sqrt(N), size=(N, n))
        fresh, _ = sample_detection_pair(N, n, 0.5, seed, "null")
        out = np.full((N, n), np.nan)
        Y, v = sample_detection_pair(N, n, 0.5, seed, "null", out=out)
        assert Y is out and v is None
        assert fresh.tobytes() == expected.tobytes()
        assert out.tobytes() == expected.tobytes()


SAMPLERS = [
    sample_rotated_instance,
    sample_orthonormal_instance,
    lambda N, n, rho, seed, **kw: sample_detection_pair(N, n, rho, seed, "null", **kw),
    lambda N, n, rho, seed, **kw: sample_detection_pair(N, n, rho, seed, "planted", **kw),
]
SAMPLER_IDS = ["rotated", "orthonormal", "null", "planted"]


class TestModelInstances:
    def test_model1_span_contains_v(self):
        Y, v = sample_rotated_instance(300, 8, 0.1, SeedSpec(47))
        Qb, _ = np.linalg.qr(Y)
        assert np.linalg.norm(v - Qb @ (Qb.T @ v)) <= 1e-9

    def test_model2_truth_is_unit(self):
        Y, v = sample_orthonormal_instance(300, 8, 0.1, SeedSpec(48))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.max(np.abs(Y.T @ Y - np.eye(8))) <= 1e-10

    @pytest.mark.parametrize(
        "t, digest",
        [
            (0, "85ad67a7f8ead97872ee99142ed6b38adc70e8e9a0ae3543e4e9d11d111ed324"),
            (1, "1f4452622b3e445034315c7253f3dba2e963aa751ac61ba0ae9d1bb6a21d7fc9"),
            (2, "6c7f0968a8f52a9d80aa700a7f44dadaa639573f20bad7be22cc6b1a43a97734"),
        ],
        ids=["0", "1", "2"],  # the stream index alone, so a re-pin keeps the test names
    )
    def test_model2_bytes_pinned_across_fill_blocks(self, t, digest):
        # N = 3000 spans three blocks of the basis fill.
        Y, _ = sample_orthonormal_instance(3000, 40, 0.05, SeedSpec(0, t))
        assert hashlib.sha256(Y.tobytes()).hexdigest() == digest

    def test_model2_extra_rotation_same_span(self):
        plain, _ = sample_orthonormal_instance(300, 8, 0.1, SeedSpec(49))
        rotated = haar_rotated(plain, SeedSpec(49))
        P1 = plain @ plain.T
        P2 = rotated @ rotated.T
        assert np.max(np.abs(P1 - P2)) <= 1e-9

    def test_degenerate_draw_raises(self):
        # rho small enough that some seed gives an all-zero planted vector
        raised = False
        for t in range(200):
            try:
                sample_orthonormal_instance(3, 1, 0.01, SeedSpec(5, t))
            except DegenerateDrawError:
                raised = True
                break
        assert raised

    @pytest.mark.parametrize(
        "sample",
        [
            sample_rotated_instance,
            sample_orthonormal_instance,
            lambda N, n, rho, seed: sample_detection_pair(N, n, rho, seed, "null"),
            lambda N, n, rho, seed: sample_detection_pair(N, n, rho, seed, "planted"),
        ],
        ids=["rotated", "orthonormal", "null", "planted"],
    )
    @pytest.mark.parametrize(
        "N, n, rho",
        [(5, 10, 0.5), (5, 0, 0.5), (5, 2, 0.0), (5, 2, 1.5)],
        ids=["n_above_N", "n_zero", "rho_zero", "rho_above_one"],
    )
    def test_rejects_out_of_domain(self, sample, N, n, rho):
        with pytest.raises(ValueError):
            sample(N, n, rho, SeedSpec(51))

    @pytest.mark.parametrize("sample", SAMPLERS, ids=SAMPLER_IDS)
    @pytest.mark.parametrize(
        "out",
        [
            np.empty((50, 4)),
            np.empty((5, 50)),
            np.empty((50, 5), dtype=np.float32),
            np.empty((50, 5), dtype=np.complex128),
            np.empty((5, 50)).T,
            np.empty((50, 10))[:, ::2],
        ],
        ids=["shape", "transposed_shape", "float32", "complex", "fortran", "strided"],
    )
    def test_rejects_a_bad_out(self, sample, out):
        before = out.copy()
        with pytest.raises(ValueError, match="out must be a 50 x 5 float64 array in C order"):
            sample(50, 5, 0.5, SeedSpec(51), out=out)
        assert out.tobytes() == before.tobytes()

    @pytest.mark.parametrize("sample", SAMPLERS, ids=SAMPLER_IDS)
    @pytest.mark.parametrize("N, n", [(3000, 40), (1, 1), (2049, 3)])
    def test_out_gives_the_fresh_arrays_bytes(self, sample, N, n):
        seed = SeedSpec(61)
        with one_blas_thread():
            fresh, v_fresh = sample(N, n, 1.0, seed)
            out = np.full((N, n), np.nan)
            Y, v = sample(N, n, 1.0, seed, out=out)
        assert Y is out
        assert out.tobytes() == fresh.tobytes()
        assert (v is None and v_fresh is None) or v.tobytes() == v_fresh.tobytes()
        assert v is None or not np.shares_memory(v, out)


class TestSerialization:
    def test_round_trip(self):
        Y, _ = sample_rotated_instance(20, 3, 0.5, SeedSpec(50, 2))
        buf = io.StringIO()
        dump_instance(Y, "gaussian", 0.5, SeedSpec(50, 2), buf)
        buf.seek(0)
        loaded, kind, rho, seed = load_instance(buf)
        assert np.array_equal(loaded, Y)
        assert kind == "rotated"
        assert rho == 0.5
        assert seed == SeedSpec(50, 2)

    def test_header_line(self):
        Y, _ = sample_detection_pair(4, 2, 0.5, SeedSpec(51), "null")
        buf = io.StringIO()
        dump_instance(Y, "null", 0.5, SeedSpec(51), buf)
        assert buf.getvalue().splitlines()[0] == "N,n,rho,kind,seed,stream"

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            load_instance(io.StringIO("not,a,header\n"))

    @pytest.mark.parametrize(
        "meta",
        [
            "3,2", "3,2,0.5,bogus,0,0", "",
            "3,2,-5.0,null,0,0", "3,2,1.5,null,0,0", "3,2,nan,null,0,0",
            "3,4,0.5,null,0,0", "0,2,0.5,null,0,0",
        ],
        ids=[
            "truncated", "unknown_kind", "empty",
            "rho_negative", "rho_above_one", "rho_nan", "n_above_N", "N_zero",
        ],
    )
    def test_rejects_bad_metadata_line(self, meta):
        text = f"N,n,rho,kind,seed,stream\n{meta}\n" + "0.0,0.0\n" * 3
        with pytest.raises(ValueError, match="metadata"):
            load_instance(io.StringIO(text))

    @pytest.mark.parametrize(
        "row, entries, where",
        [(0, "nan,inf", "row 0, column 0"), (2, "1.0,-inf", "row 2, column 1")],
        ids=["nan_first_row", "inf_last_row"],
    )
    def test_rejects_non_finite_entry(self, row, entries, where):
        buf = io.StringIO()
        dump_instance(np.ones((3, 2)), "null", 0.5, SeedSpec(51), buf)
        lines = buf.getvalue().splitlines()
        lines[2 + row] = entries
        with pytest.raises(ValueError, match=f"non-finite entry .* {where}"):
            load_instance(io.StringIO("\n".join(lines) + "\n"))
