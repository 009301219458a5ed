"""Tests for the degree-4 statistic, eigenpair extraction, recovery rules,
scoring, and the rank-one perturbation bound."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pvlab.detection import estimator
from pvlab.model_gen import (
    SeedSpec,
    sample_br_vector,
    sample_detection_pair,
    sample_haar_rotation,
    sample_rotated_instance,
    sample_orthonormal_instance,
    apply_rotation,
)
from pvlab.spectral import (
    build_statistic,
    estimate_direction,
    leading_eigenpair,
    recover_gaussian_rule,
    recover_orthonormal_rule,
    score,
    signs_match,
)

from oracles import null_norm_scale, planted_signal, rank_one_bound_check
from sampled import haar_rotated, row_block_statistic, unit, unit_rotated_instance


class TestBuildStatistic:
    def test_scalar_hand_value(self):
        # N=1, n=1, Y=[1]: (1 - 0) * 1 - 3/1 = -2
        M = build_statistic(np.array([[1.0]]))
        assert M[0, 0] == pytest.approx(-2.0, abs=1e-15)

    def test_single_column_is_l4_minus_center(self):
        v = unit(sample_br_vector(50, 0.4, SeedSpec(1)))
        M = build_statistic(v[:, None])
        assert M[0, 0] == pytest.approx(planted_signal(v), rel=1e-12)

    def test_centered_vs_uncentered_differ_by_identity(self):
        obs, _ = sample_rotated_instance(300, 6, 0.2, SeedSpec(2))
        a = build_statistic(obs, centered=True)
        b = build_statistic(obs, centered=False)
        assert np.allclose(b - a, (3.0 / 300) * np.eye(6), atol=1e-15)

    def test_symmetry(self):
        obs, _ = sample_rotated_instance(500, 12, 0.1, SeedSpec(3))
        M = build_statistic(obs)
        assert np.max(np.abs(M - M.T)) <= 1e-12

    def test_spectrum_rotation_invariance(self):
        obs, _ = sample_rotated_instance(400, 10, 0.1, SeedSpec(4))
        Q = sample_haar_rotation(10, SeedSpec(5))
        before = np.linalg.eigvalsh(build_statistic(obs))
        after = np.linalg.eigvalsh(build_statistic(apply_rotation(obs, Q)))
        assert np.max(np.abs(before - after)) <= 1e-8


def observations(max_N, max_n):
    """N x n float64 arrays with entries in [-4, 4] that are zero or at least
    1e-50 in magnitude, so that no product in M underflows."""
    elements = st.floats(-4.0, 4.0).map(lambda x: x if abs(x) >= 1e-50 else 0.0)
    shapes = st.tuples(st.integers(1, max_N), st.integers(1, max_n))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


def statistic_scale(Y):
    """Sum of the magnitudes of the terms that make up M, the scale its
    rounding error is relative to."""
    N, n = Y.shape
    sq = np.einsum("ij,ij->i", Y, Y)
    return float(np.sum((sq + (n - 1) / N) * sq) + 3.0 / N)


class TestBuildStatisticProperties:
    @settings(max_examples=200, deadline=None)
    @given(Y=observations(40, 6), data=st.data(), centered=st.booleans())
    def test_row_sign_flips_leave_m_bit_identical(self, Y, data, centered):
        # The weights and each y_i y_i^T are unchanged, and negation is exact.
        flips = data.draw(arrays(np.bool_, Y.shape[0]))
        flipped = np.where(flips[:, None], -Y, Y)
        assert build_statistic(flipped, centered).tobytes() == build_statistic(Y, centered).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(Y=observations(40, 6), data=st.data())
    def test_row_permutation_permutes_the_estimate(self, Y, data):
        perm = np.array(data.draw(st.permutations(range(Y.shape[0]))))
        base = estimate_direction(Y)
        moved = estimate_direction(Y[perm])
        scale = statistic_scale(Y)
        assert np.max(np.abs(moved.statistic - base.statistic)) <= 1e-12 * scale
        # The eigenvector is only as stable as its gap; a sign may flip
        # where u's two largest coordinates tie.
        assume(base.gap > 1e-3 * scale)
        target = base.raw_estimate[perm]
        err = min(np.max(np.abs(moved.raw_estimate - s * target)) for s in (1.0, -1.0))
        assert err <= 1e-9 * np.linalg.norm(Y)

    @settings(max_examples=200, deadline=None)
    @given(Y=observations(40, 6), seed=st.integers(0, 2**32 - 1))
    def test_haar_rotation_leaves_spectrum_and_estimate(self, Y, seed):
        # M(YQ) = Q^T M(Y) Q for orthogonal Q, and the lift (YQ)(Q^T u) = Yu.
        Q = sample_haar_rotation(Y.shape[1], SeedSpec(seed))
        base = estimate_direction(Y)
        moved = estimate_direction(Y @ Q)
        scale = statistic_scale(Y)
        spread = np.linalg.eigvalsh(moved.statistic) - np.linalg.eigvalsh(base.statistic)
        assert np.max(np.abs(spread)) <= 1e-12 * scale
        assume(base.gap > 1e-3 * scale)
        err = min(np.max(np.abs(moved.raw_estimate - s * base.raw_estimate)) for s in (1.0, -1.0))
        assert err <= 1e-9 * np.linalg.norm(Y)

    @settings(max_examples=200, deadline=None)
    @given(Y=observations(6, 3), centered=st.booleans())
    def test_matches_exact_rational_sum(self, Y, centered):
        N, n = Y.shape
        exact = [[Fraction(0)] * n for _ in range(n)]
        for row in Y.tolist():
            y = [Fraction(x) for x in row]
            w = sum(x * x for x in y) - Fraction(n - 1, N)
            for a in range(n):
                for b in range(n):
                    exact[a][b] += w * y[a] * y[b]
        if centered:
            for a in range(n):
                exact[a][a] -= Fraction(3, N)
        M = build_statistic(Y, centered)
        err = max(abs(Fraction(M[a, b]) - exact[a][b]) for a in range(n) for b in range(n))
        assert float(err) <= 1e-12 * statistic_scale(Y)


class TestLeadingEigenpair:
    def test_picks_largest_magnitude(self):
        lam, u, gap = leading_eigenpair(np.diag([1.0, -2.0]))
        assert lam == -2.0
        assert np.allclose(np.abs(u), [0.0, 1.0])
        assert gap == pytest.approx(1.0)

    def test_tie_breaks_positive(self):
        lam, _, gap = leading_eigenpair(np.diag([0.5, 0.5]))
        assert lam == 0.5
        assert gap == 0.0

    def test_opposite_sign_tie_breaks_positive(self):
        lam, _, _ = leading_eigenpair(np.diag([-0.5, 0.5]))
        assert lam == 0.5

    def test_sign_canonicalization(self):
        A = np.diag([3.0, 1.0])
        _, u, _ = leading_eigenpair(A)
        assert u[np.argmax(np.abs(u))] > 0

    def test_eigenpair_residual(self):
        obs, _ = sample_rotated_instance(1000, 15, 0.05, SeedSpec(6))
        stat = build_statistic(obs)
        lam, u, _ = leading_eigenpair(stat)
        norm = np.max(np.abs(np.linalg.eigvalsh(stat)))
        assert np.linalg.norm(stat @ u - lam * u) <= 1e-8 * norm
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_easy_instance_positive_lambda(self):
        # ||v||_4^4 ~ 1/(N rho) > 3/N for rho < 1/3
        hits = 0
        for t in range(10):
            obs, _ = sample_rotated_instance(4000, 20, 0.02, SeedSpec(7, t))
            lam = estimate_direction(obs).leading_value
            hits += lam > 0
        assert hits == 10


class TestEstimateDirection:
    def test_single_column_estimate_is_signed_v(self):
        v = unit(sample_br_vector(60, 0.5, SeedSpec(8)))
        res = estimate_direction(v[:, None])
        assert np.allclose(res.raw_estimate, v) or np.allclose(
            res.raw_estimate, -v
        )

    def test_l2_error_small_in_easy_regime(self):
        hits = 0
        for t in range(20):
            obs, v = unit_rotated_instance(4000, 20, 0.02, SeedSpec(9, t))
            res = estimate_direction(obs)
            rep = score(res.raw_estimate, v)
            hits += rep.l2_error <= 0.1
        assert hits >= 19

    def test_basis_invariance_up_to_sign(self):
        plain, _ = sample_orthonormal_instance(2000, 10, 0.05, SeedSpec(10))
        rotated = haar_rotated(plain, SeedSpec(10))
        a = estimate_direction(plain).raw_estimate
        b = estimate_direction(rotated).raw_estimate
        delta = min(np.max(np.abs(a - b)), np.max(np.abs(a + b)))
        assert delta <= 1e-6


class TestRecoveryRules:
    def test_gaussian_rule_fixed_point(self):
        v = sample_br_vector(100, 0.2, SeedSpec(11))
        out = recover_gaussian_rule(v, 0.2)
        assert np.array_equal(out, v)

    def test_gaussian_rule_zero_input(self):
        out = recover_gaussian_rule(np.zeros(10), 0.5)
        assert np.all(out == 0)

    def test_gaussian_rule_tolerates_small_noise(self):
        v = sample_br_vector(200, 0.1, SeedSpec(12))
        a = 1.0 / np.sqrt(200 * 0.1)
        noise = SeedSpec(13).generator().uniform(-0.4 * a, 0.4 * a, size=200)
        out = recover_gaussian_rule(v + noise, 0.1)
        assert np.array_equal(out, v)

    def test_gaussian_rule_threshold_is_half_the_magnitude(self):
        # N = 4, rho = 0.25: the magnitude 1/sqrt(N rho) is 1, and an entry
        # is kept from 0.5 on.
        out = recover_gaussian_rule(np.array([0.5, 0.49, -0.5, -0.49]), 0.25)
        assert np.array_equal(out, np.array([1.0, 0.0, -1.0, 0.0]))

    def test_orthonormal_rule_threshold_is_half_the_peak(self):
        out = recover_orthonormal_rule(np.array([2.0, 1.0, 0.98, -1.0]))
        assert np.array_equal(out, np.array([1.0, 1.0, 0.0, -1.0]) / np.sqrt(3))

    def test_orthonormal_rule_small_entries_dropped(self):
        out = recover_orthonormal_rule(np.array([1.0, -1.0, 0.2]))
        assert np.allclose(out, np.array([1.0, -1.0, 0.0]) / np.sqrt(2))

    def test_orthonormal_rule_scale_invariant(self):
        v = unit(sample_br_vector(100, 0.3, SeedSpec(14)))
        for c in (2.0, -0.001, 1e6):
            out = recover_orthonormal_rule(c * v)
            assert signs_match(out, v)
            assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_orthonormal_rule_rejects_zero(self):
        with pytest.raises(ValueError):
            recover_orthonormal_rule(np.zeros(5))

    def test_orthonormal_rule_recovers_model2(self):
        hits = 0
        for t in range(20):
            obs, v = sample_orthonormal_instance(4000, 20, 0.02, SeedSpec(15, t))
            res = estimate_direction(obs)
            out = recover_orthonormal_rule(res.raw_estimate)
            hits += signs_match(out, v)
        assert hits >= 18


class TestScore:
    def test_sign_flip_absorbed(self):
        v = sample_br_vector(50, 0.5, SeedSpec(16))
        rep = score(-v, v)
        assert rep.l2_error == 0.0

    def test_known_l2_error(self):
        v = sample_br_vector(50, 0.5, SeedSpec(17))
        est = v.copy()
        est[0] += 0.125
        rep = score(est, v)
        assert rep.l2_error == pytest.approx(0.125, rel=1e-9)

    def test_entrywise_weighting_at_zero_coordinates(self):
        v = np.zeros(64)
        v[0] = 1.0
        est = v + 1.0 / np.sqrt(64)
        rep = score(est, v)
        # at zero coordinates the weight is exactly 1/sqrt(N)
        assert rep.entrywise_max_weighted <= 1.0 + 1e-12

    def test_exact_sign_invariance(self):
        obs, v = sample_rotated_instance(500, 8, 0.1, SeedSpec(18))
        est = estimate_direction(obs).raw_estimate
        a = score(est, v)
        b = score(-est, v)
        assert a.l2_error == b.l2_error
        assert a.entrywise_max_weighted == b.entrywise_max_weighted

    def test_exact_match_via_recovery(self):
        v = sample_br_vector(100, 0.2, SeedSpec(19))
        out = recover_gaussian_rule(-v, 0.2)
        rep = score(-v, v, out)
        assert rep.exact_match is True

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            score(np.zeros(3), np.zeros(4))


class TestRankOneBound:
    def test_orthogonal_update_no_mixing(self):
        A = np.diag([2.0, 1.0])
        lhs, rhs, applicable = rank_one_bound_check(A, 0.05, np.array([0.0, 1.0]))
        assert applicable
        assert rhs == 0.0
        assert lhs <= 1e-12

    def test_zero_scale(self):
        A = np.diag([3.0, 1.0, 0.5])
        lhs, rhs, applicable = rank_one_bound_check(A, 0.0, np.ones(3))
        assert applicable
        assert lhs == 0.0
        assert rhs == 0.0

    def test_zero_gap_not_applicable(self):
        _, _, applicable = rank_one_bound_check(np.eye(3), 0.1, np.ones(3))
        assert not applicable

    def test_randomized_property(self):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 10))
            G = rng.normal(size=(n, n))
            A = 0.5 * (G + G.T)
            b = rng.normal(size=n)
            _, _, gap = leading_eigenpair(A)
            if gap <= 1e-9:
                continue
            rho_s = float(rng.uniform(-1.0, 1.0)) * gap / (4.0 * b @ b)
            lhs, rhs, applicable = rank_one_bound_check(A, rho_s, b)
            assert applicable
            assert lhs <= rhs + 1e-10
            checked += 1
        assert checked >= 250


class TestStatisticalBehaviour:
    def test_residual_concentration_easy_regime(self):
        # |lambda| tracks |‖v‖_4^4 - 3/N| within a factor of 1.5
        hits = 0
        for t in range(20):
            obs, v = unit_rotated_instance(4000, 20, 0.02, SeedSpec(21, t))
            res = estimate_direction(obs)
            signal = abs(planted_signal(v))
            hits += 0.5 <= abs(res.leading_value) / signal <= 1.5
        assert hits >= 19

    def test_dense_case_negative_leading_eigenvalue(self):
        hits = 0
        for t in range(10):
            obs, _ = sample_rotated_instance(10000, 20, 1.0, SeedSpec(22, t))
            hits += estimate_direction(obs).leading_value < 0
        assert hits == 10

    @pytest.mark.parametrize("path", ["build_statistic", "row_blocks", "sweep"])
    def test_null_statistic_is_unbiased(self, path):
        # Under the null E[M] = 0 exactly: per row E[||y||^2 y y^T] is
        # (n+2)/N^2 I, which the weight's -(n-1)/N and the -(3/N) I cancel.
        # Fixed in advance: 200 draws at N=2000, n=10, rho=0.1; every
        # upper-triangle entry of the mean M lies within 5 standard errors
        # of 0.  Dropping -(3/N) I reads about 168 standard errors, and
        # (n-1)/N -> n/N about 61.
        N, n, rho, K = 2000, 10, 0.1, 200

        def null_statistic(seed):
            if path == "sweep":
                return estimator(N, n, rho, seed)("null")[0].statistic
            Y, _ = sample_detection_pair(N, n, rho, seed, "null")
            return build_statistic(Y) if path == "build_statistic" else row_block_statistic(Y)

        Ms = np.array([null_statistic(SeedSpec(2022, t)) for t in range(K)])
        upper = np.triu_indices(n)
        mean = Ms.mean(axis=0)[upper]
        standard_error = Ms.std(axis=0, ddof=1)[upper] / np.sqrt(K)
        assert np.max(np.abs(mean) / standard_error) <= 5

    @pytest.mark.parametrize("N, n", [(4000, 20), (10000, 20), (40000, 50)])
    def test_null_norm_matches_the_closed_form(self, N, n):
        # Fixed in advance: 40 null draws per cell on SeedSpec(2024, t)
        # through the sweep's path; the median of ||M|| over
        # null_norm_scale(N, n) lies in [0.9, 1.1].
        K = 40

        def null_norm(seed):
            M = estimator(N, n, 0.1, seed)("null")[0].statistic
            return np.max(np.abs(np.linalg.eigvalsh(M)))

        ratios = [null_norm(SeedSpec(2024, t)) / null_norm_scale(N, n) for t in range(K)]
        assert 0.9 <= np.median(ratios) <= 1.1
