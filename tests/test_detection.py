"""Tests for the spectral-norm and l1/l2 detection tests and the error-rate
harness."""

import threading
import tracemalloc

import numpy as np
import pytest

from pvlab import detection, spectral
from pvlab._blas import one_blas_thread
from pvlab.detection import (
    decide,
    detect_via_estimation,
    error_rates,
    estimate_instance,
    estimator,
    l1l2_test,
    recover,
    sample_observation,
    spectral_norm_outcome,
    spectral_norm_test,
)
from pvlab.lowdeg import advantage
from pvlab.model_gen import (
    SeedSpec,
    apply_rotation,
    sample_br_vector,
    sample_detection_pair,
    sample_gaussian_basis,
    sample_haar_rotation,
    sample_orthonormal_instance,
    sample_rotated_instance,
)
from pvlab.harness import SweepConfig, run_sweep
from pvlab.spectral import SpectralResult, estimate_direction, recover_gaussian_rule

from placing import blas_threads, on_a_fresh_thread, placed
from sampled import first_pass_error, one_call_statistic, unit_basis


class TestSpectralNormTest:
    def test_zero_statistic_is_null(self):
        out = spectral_norm_outcome(0.0, N=1000, rho=0.1, c1=0.05)
        assert out.decision == "null"
        assert out.threshold == pytest.approx(0.05 / (6 * 1000 * 0.1))

    def test_planted_detected_in_easy_regime(self):
        hits = 0
        for t in range(20):
            obs, _ = sample_detection_pair(4000, 20, 0.02, SeedSpec(1, t), "planted")
            hits += spectral_norm_test(obs, 0.02, 0.05).decision == "planted"
        assert hits == 20

    def test_statistic_rotation_invariant(self):
        obs, _ = sample_detection_pair(500, 10, 0.1, SeedSpec(2), "planted")
        Q = sample_haar_rotation(10, SeedSpec(3))
        a = spectral_norm_test(obs, 0.1).statistic_value
        b = spectral_norm_test(apply_rotation(obs, Q), 0.1).statistic_value
        assert abs(a - b) <= 1e-8

    def test_statistic_value_is_spectral_norm(self):
        obs, _ = sample_detection_pair(200, 5, 0.5, SeedSpec(4), "null")
        out = spectral_norm_test(obs, 0.5)
        from pvlab.spectral import build_statistic

        M = build_statistic(obs)
        assert out.statistic_value == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)


class TestL1L2Test:
    def test_sparse_basis_vector_planted(self):
        e1 = np.zeros(100)
        e1[0] = 1.0
        out = l1l2_test(e1, c1=0.05)
        assert out.statistic_value == pytest.approx(
            abs(1.0 - np.sqrt(200 / np.pi)), rel=1e-12
        )
        assert out.threshold == pytest.approx(0.05 * 10 / 4)
        assert out.decision == "planted"

    def test_exact_gaussian_ratio_is_null(self):
        # craft a vector whose l1/l2 ratio equals sqrt(2N/pi) exactly
        N = 16
        target = np.sqrt(2 * N / np.pi)
        v = np.zeros(N)
        # two nonzeros a, b with (a+b)/sqrt(a^2+b^2) = target/ratio trick:
        # use equal entries on k coordinates: ratio = sqrt(k); instead scale
        # one coordinate so l1/l2 hits the target continuously.
        v[0] = 1.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            v[1:] = mid
            ratio = np.abs(v).sum() / np.linalg.norm(v)
            if ratio < target:
                lo = mid
            else:
                hi = mid
        v[1:] = 0.5 * (lo + hi)
        out = l1l2_test(v, c1=0.05)
        assert out.decision == "null"
        assert out.statistic_value <= 1e-6

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=500)
        base = l1l2_test(v)
        for c in (3.0, -2.5, 1e-9, 1e9):
            out = l1l2_test(c * v)
            assert out.decision == base.decision
            assert out.statistic_value == pytest.approx(base.statistic_value, rel=1e-9)

    def test_gaussian_vectors_look_null(self):
        hits = 0
        for t in range(100):
            g = SeedSpec(6, t).generator().normal(size=10000)
            hits += l1l2_test(g).decision == "null"
        assert hits >= 99

    def test_deviation_at_the_threshold_is_planted(self):
        # At N = 16 the threshold c1*sqrt(N)/4 is c1 exactly, so c1 can be
        # set to the deviation itself: "at least" the threshold is planted.
        v = SeedSpec(5).generator().normal(size=16)
        deviation = l1l2_test(v).statistic_value
        out = l1l2_test(v, c1=deviation)
        assert out.threshold == out.statistic_value
        assert out.decision == "planted"

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            l1l2_test(np.zeros(8))


class TestDetectViaEstimation:
    def test_planted_easy_regime(self):
        hits = 0
        for t in range(20):
            obs, _ = sample_detection_pair(4000, 20, 0.02, SeedSpec(7, t), "planted")
            hits += detect_via_estimation(obs).decision == "planted"
        assert hits >= 18

    def test_null_mostly_passes(self):
        hits = 0
        for t in range(20):
            obs, _ = sample_detection_pair(4000, 20, 0.02, SeedSpec(8, t), "null")
            hits += detect_via_estimation(obs).decision == "null"
        assert hits >= 17

    def test_exact_single_column(self):
        # n=1: the estimator returns +-v, and a sparse v has a tiny l1/l2 ratio
        obs, _ = sample_detection_pair(10000, 1, 0.01, SeedSpec(9), "planted")
        assert detect_via_estimation(obs).decision == "planted"


class TestErrorRates:
    def test_single_trial_rates_are_binary(self):
        report = error_rates(500, 5, 0.05, 0.05, 1, "l1l2", SeedSpec(10))
        assert report.type_I in (0.0, 1.0)
        assert report.type_II in (0.0, 1.0)

    def test_reduction_easy_regime(self):
        report = error_rates(4000, 20, 0.02, 0.05, 25, "l1l2", SeedSpec(11))
        assert report.type_I + report.type_II <= 0.2

    def test_hard_regime_collapses(self):
        report = error_rates(400, 200, 0.5, 0.05, 25, "spectral", SeedSpec(12))
        assert report.type_I + report.type_II >= 0.5

    def test_monotone_in_signal_ratio(self):
        # paired success rate of the spectral test is non-increasing in
        # n*rho/sqrt(N) (up to 2 standard errors) along a one-knob grid
        N, n, trials = 10000, 5, 20
        rates = []
        for rho in (0.001, 0.02, 0.2, 1.0):
            ok = 0
            for t in range(trials):
                seed = SeedSpec(13, t)
                null_ok = (
                    spectral_norm_test(
                        sample_detection_pair(N, n, rho, seed, "null")[0], rho
                    ).decision
                    == "null"
                )
                planted_ok = (
                    spectral_norm_test(
                        sample_detection_pair(N, n, rho, seed, "planted")[0], rho
                    ).decision
                    == "planted"
                )
                ok += null_ok and planted_ok
            rates.append(ok / trials)
        two_se = 2 * np.sqrt(0.25 / trials)
        for a, b in zip(rates, rates[1:]):
            assert b <= a + two_se

    def test_rejects_unknown_test(self):
        with pytest.raises(ValueError):
            error_rates(100, 5, 0.1, 0.05, 1, "oracle", SeedSpec(14))

    def test_fixed_width_stream_index_does_not_wrap(self):
        # The third trial of stream np.uint8(254) reused stream 0, not 256.
        def rates(stream):
            return error_rates(200, 3, 0.1, 0.05, 3, "spectral", SeedSpec(0, stream))

        assert rates(np.uint8(254)) == rates(254)

    @pytest.mark.parametrize("trials", [True, 2.0])
    def test_non_integer_trials_rejected(self, trials):
        # trials=True ran one trial.
        with pytest.raises(ValueError, match="trials must be an integer"):
            error_rates(400, 5, 0.1, 0.05, trials, "spectral", SeedSpec(1))


class TestDispatch:
    @pytest.mark.parametrize("which", ["null", "planted"])
    def test_decide_matches_the_standalone_tests(self, which):
        obs, _ = sample_detection_pair(2000, 10, 0.05, SeedSpec(16), which)
        result = estimate_direction(obs)
        assert decide("spectral", result, 0.05) == spectral_norm_test(obs, 0.05)
        assert decide("l1l2", result, 0.05) == detect_via_estimation(obs)

    def test_planted_model_is_the_detection_planted_draw(self):
        a, _ = sample_observation("gaussian", 300, 5, 0.1, SeedSpec(17))
        b, _ = sample_detection_pair(300, 5, 0.1, SeedSpec(17), "planted")
        assert np.array_equal(a, b)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="model"):
            sample_observation("fourier", 10, 2, 0.5, SeedSpec(18))
        obs, _ = sample_observation("null", 10, 2, 0.5, SeedSpec(18))
        with pytest.raises(ValueError, match="test kind"):
            decide("oracle", estimate_direction(obs), 0.5)

    @pytest.mark.parametrize("kind", ["spectral_norm", "reduction"])
    def test_one_name_per_test(self, kind):
        obs, _ = sample_observation("null", 10, 2, 0.5, SeedSpec(18))
        with pytest.raises(ValueError, match="test kind"):
            decide(kind, estimate_direction(obs), 0.5)

    @pytest.mark.parametrize("c1", [0.0, -1.0, float("nan"), float("inf"), True, "0.05", None])
    def test_nonpositive_or_nonfinite_c1_rejected(self, c1):
        # c1 = True ran at c1 = 1, and "0.05" or None raised TypeError.
        obs, _ = sample_observation("null", 50, 2, 0.5, SeedSpec(19))
        result = estimate_direction(obs)
        for call in (
            lambda: spectral_norm_outcome(0.0, 50, 0.5, c1),
            lambda: l1l2_test(result.raw_estimate, c1),
            lambda: decide("spectral", result, 0.5, c1),
            lambda: decide("l1l2", result, 0.5, c1),
            lambda: error_rates(50, 2, 0.5, c1, 1, "spectral", SeedSpec(19)),
        ):
            with pytest.raises(ValueError, match="c1 must be positive and finite"):
                call()

    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_rho_outside_the_domain_rejected(self, rho):
        # rho = 0 divided by zero; rho < 0 gave a negative threshold and
        # "planted", and rho = nan a nan threshold and "null".
        obs, _ = sample_observation("null", 50, 2, 0.5, SeedSpec(19))
        result = estimate_direction(obs)
        for call in (
            lambda: spectral_norm_outcome(1e-3, 1000, rho),
            lambda: spectral_norm_test(obs, rho),
            lambda: decide("spectral", result, rho),
        ):
            with pytest.raises(ValueError, match=r"rho must be in \(0, 1\]"):
                call()

    @pytest.mark.parametrize("rho", [True, "0.5", None])
    def test_bool_or_non_number_rho_rejected_at_every_door(self, rho):
        # Outside SweepConfig, rho = True ran at rho = 1, and "0.5" or None
        # raised TypeError.
        for call in (
            lambda: sample_br_vector(10, rho, SeedSpec(0)),
            lambda: sample_rotated_instance(10, 2, rho, SeedSpec(0)),
            lambda: sample_orthonormal_instance(10, 2, rho, SeedSpec(0)),
            lambda: sample_detection_pair(10, 2, rho, SeedSpec(0), "null"),
            lambda: estimate_instance("gaussian", 10, 2, rho, SeedSpec(0)),
            lambda: recover_gaussian_rule(np.ones(10), rho),
            lambda: spectral_norm_outcome(1.0, 100, rho),
            lambda: advantage(100, 5, rho, 8),
            lambda: SweepConfig(Ns=[100], ns=[5], rhos=[rho]),
        ):
            with pytest.raises(ValueError, match="rho"):
                call()

    @pytest.mark.parametrize("model", ["Orth", "null", "bogus"])
    def test_recover_refuses_an_unknown_model(self, model):
        # Any name but "orth" took the Gaussian rule.
        result, v = estimate_instance("gaussian", 200, 3, 0.1, SeedSpec(20))
        with pytest.raises(ValueError, match=f"unknown model '{model}'"):
            recover(model, result, v, 0.1)

    @pytest.mark.parametrize("N", [0, -5, True, 1000.0, 2.5, "1000"])
    def test_N_outside_the_domain_rejected(self, N):
        # N = 0 divided by zero, and N = -5 gave a negative threshold and
        # "planted".
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            spectral_norm_outcome(1e-3, N, 0.1)

    def test_numpy_integer_N_accepted(self):
        expected = spectral_norm_outcome(1e-3, 1000, 0.1)
        assert spectral_norm_outcome(1e-3, np.int64(1000), 0.1) == expected

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_statistic_rejected(self, value):
        # A nan statistic was called "null".
        with pytest.raises(ValueError, match="statistic must be finite"):
            spectral_norm_outcome(value, 1000, 0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_candidate_rejected(self, value):
        # A candidate holding a nan or an inf was called "null".
        candidate = SeedSpec(19).generator().normal(size=100)
        candidate[7] = value
        with pytest.raises(ValueError, match="finite norm"):
            l1l2_test(candidate)
        result = SpectralResult(np.eye(2), 1.0, candidate, 0.5)
        with pytest.raises(ValueError, match="finite norm"):
            decide("l1l2", result, 0.1)
        with pytest.raises(ValueError, match="statistic must be finite"):
            decide("spectral", SpectralResult(np.full((2, 2), value), 1.0, candidate, 0.5), 0.1)


class TestStatisticKernel:
    N, n, rho = 8000, 40, 0.05

    @pytest.mark.parametrize("model", ["gaussian", "orth", "null"])
    def test_each_model_sums_over_its_own_blocks(self, model):
        # Every model's trial sums the statistic of its own observation:
        # uncentered, within 1e-13 relative of that observation's one
        # product.
        N, n, rho, seed = self.N, self.n, self.rho, SeedSpec(23)
        with one_blas_thread():
            Y, _ = sample_observation(model, N, n, rho, seed)
            M = estimate_instance(model, N, n, rho, seed, centered=False)[0].statistic
        one_product = one_call_statistic(Y, centered=False)
        assert np.max(np.abs(M - one_product)) <= 1e-13 * np.max(np.abs(one_product))

    @pytest.mark.parametrize("model", ["gaussian", "orth"])
    def test_a_unit_builds_one_statistic_per_instance(self, model, monkeypatch):
        # The tier-1 stand-in for the benchmark's per-unit counts: one
        # sample and one build_statistic per distinct instance.  The
        # `gaussian` sweep's smaller cell samples its two instances side by
        # side, one per thread, so each instance's statistic must follow its
        # own sample on its own thread, over its own array, whatever the
        # interleaving of the two threads.
        events = []
        sample, build = detection.sample_observation, spectral.build_statistic

        def record(*event):
            events.append((threading.current_thread().name, *event))

        def sample_recorder(model, *args, **kwargs):
            Y, v = sample(model, *args, **kwargs)
            record("sample", model, Y.ctypes.data)
            return Y, v

        def build_recorder(Y, *args, **kwargs):
            record("statistic", Y.ctypes.data)
            return build(Y, *args, **kwargs)

        monkeypatch.setattr(detection, "sample_observation", sample_recorder)
        monkeypatch.setattr(spectral, "build_statistic", build_recorder)
        tasks = ["recover", "detect_spectral", "detect_l1l2"]
        ns = [self.n, 2 * self.n]  # the smaller cell fits twice in the larger's buffer
        config = SweepConfig([self.N], ns, [self.rho], trials=1, model=model, tasks=tasks)
        placed("worker", lambda: run_sweep(config))
        sampled = [event[2] for event in events if event[1] == "sample"]
        assert sorted(sampled) == sorted([*{model, "null", "gaussian"}] * len(ns))
        assert len({event[0] for event in events}) == (2 if model == "gaussian" else 1)
        for thread in {event[0] for event in events}:
            mine = [event[1:] for event in events if event[0] == thread]
            expected = []
            for _, m, data in mine[::2]:
                expected += [("sample", m, data), ("statistic", data)]
            assert mine == expected


def traced_peak(fn):
    """Peak bytes that tracemalloc (which sees numpy's buffers) traces while
    fn runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    N, n = 20000, 50

    BOUND = 1.45  # every model; a process's first trial read 1.29-1.42 (one BLAS thread)
    # `gaussian` and `null` trials multiply and sum every row block on one
    # thread, the worker behind the draw or the calling thread in order, so
    # they hold one block's temporaries at a time: 1.20-1.31 N x n in a
    # first trial and 0.20-0.22 in a second, against 1.23-1.42 and
    # 0.30-0.33 with one per piece.
    FIRST_TRIAL = {"gaussian": 1.35, "null": 1.35, "orth": BOUND}
    SECOND_TRIAL = {"gaussian": 0.3, "null": 0.3, "orth": 0.5}
    # Each trial budget holds under one BLAS thread, where a trial draws
    # behind its products, and under two, where it draws first, whatever
    # count the process started with.
    BLAS_COUNTS = (1, 2)

    @pytest.mark.parametrize("model", ["gaussian", "orth", "null"])
    def test_trial_holds_at_most_two_observation_arrays(self, model):
        # A sweep trial samples and estimates one N x n observation and holds
        # one N x n float64 array, its thread's sample buffer, allocated here
        # on a fresh thread: the samplers write their products over the
        # drawn basis, and the statistic is summed over the returned basis a
        # block of rows at a time.  The rest is n x n matrices, N-vectors and
        # the blocks on one thread or two.
        N, n = self.N, self.n
        trial = lambda: estimator(N, n, 0.05, SeedSpec(19))(model)  # noqa: E731
        for count in self.BLAS_COUNTS:
            with blas_threads(count):
                peak = on_a_fresh_thread(lambda: traced_peak(trial))
            assert peak <= self.FIRST_TRIAL[model] * N * n * 8, count

    @pytest.mark.parametrize("model", ["gaussian", "orth", "null"])
    def test_second_trial_of_a_shape_reuses_the_buffer(self, model):
        # The thread's buffer already has room for the observation, so a
        # trial allocates only n x n matrices, N-vectors and blocks.
        N, n = self.N, self.n

        def trials():
            estimator(N, n, 0.05, SeedSpec(19))(model)
            return traced_peak(lambda: estimator(N, n, 0.05, SeedSpec(20))(model))

        for count in self.BLAS_COUNTS:
            with blas_threads(count):
                peak = on_a_fresh_thread(trials)
            assert peak <= self.SECOND_TRIAL[model] * N * n * 8, count

    @pytest.mark.parametrize("model", ["gaussian", "orth", "null"])
    def test_a_larger_trial_frees_the_smaller_buffer_first(self, model):
        # A trial of half the columns, then a full one, on one thread: the
        # half-size buffer is freed before the full one is made, so the two
        # trials hold no more than the full trial alone (both buffers would
        # be 1.5 N x n before the trial's own blocks).
        N, n = self.N, self.n

        def trials():
            estimator(N, n // 2, 0.05, SeedSpec(19))(model)
            estimator(N, n, 0.05, SeedSpec(20))(model)

        for count in self.BLAS_COUNTS:
            with blas_threads(count):
                peak = on_a_fresh_thread(lambda: traced_peak(trials))
            assert peak <= self.BOUND * N * n * 8, count

    def test_orth_second_pass_holds_at_most_two_observation_arrays(self):
        # At 200000 x 12 this basis's first CholeskyQR pass is not orthonormal
        # to n * eps (3.2 n * eps, 1.6 under the Haswell kernels), so the
        # second pass runs, in place on Q1, before the statistic's row-block
        # sum.  (With row-block Gram matrices no stream of 200000 x 10 bases
        # at rho = 0.05 probed takes it.)  At n = 12 the row blocks are five
        # of 29696 rows and a last one of 51520, split after the third: the
        # sample buffer, one block temporary of each piece and 0.2 of slack
        # make the bound.
        N, n, rho, seed = 200000, 12, 0.7, SeedSpec(19, 6)
        with one_blas_thread():
            assert first_pass_error(unit_basis(N, n, rho, seed)) > n * np.finfo(np.float64).eps
            peak = on_a_fresh_thread(lambda: traced_peak(lambda: estimator(N, n, rho, seed)("orth")))
        assert peak <= (1 + (29696 + 51520) / N + 0.2) * N * n * 8

    def test_basis_fill_needs_no_full_size_temporary(self):
        N, n = self.N, self.n
        peak = traced_peak(lambda: sample_gaussian_basis(np.zeros(N), n, SeedSpec(20)))
        assert peak <= 1.25 * N * n * 8
