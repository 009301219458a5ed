"""Tests for Hermite evaluation, moments, sphere moments, the composition
dynamic program, and the advantage computation against its brute-force oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvlab.lowdeg import (
    _log_composition_sum,
    _log_squared_moments,
    advantage,
    log_sphere_moment,
)

from oracles import (
    advantage_bruteforce,
    composition_sum,
    composition_table,
    gaussian_product_moment,
    hermite_eval,
    hermite_moment_br,
    hermite_values,
    log_advantage_exact_binomial,
    monic_hermite_coefficients,
    sphere_moment,
)


class TestHermiteEval:
    def test_first_few_values(self):
        assert hermite_eval(0, 3.7) == 1.0
        assert hermite_eval(1, 3.7) == 3.7
        assert hermite_eval(2, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert hermite_eval(3, 2.0) == pytest.approx(2.0 / math.sqrt(6), rel=1e-12)
        assert hermite_eval(4, 0.0) == pytest.approx(3.0 / math.sqrt(24), rel=1e-12)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)
        with pytest.raises(ValueError):
            monic_hermite_coefficients(-1)

    def test_recurrence_matches_exact_coefficients(self):
        # the monic coefficients are exact integers; evaluating them in
        # integer arithmetic gives an independent reference
        for k in (5, 12, 31, 64):
            for z in (0.5, -3.0, 17.0, 1000.0):
                monic = sum(
                    c * int(z) ** r if z == int(z) else c * z**r
                    for r, c in enumerate(monic_hermite_coefficients(k))
                )
                expected = float(monic) / math.sqrt(math.factorial(k))
                assert hermite_eval(k, z) == pytest.approx(expected, rel=1e-9)

    def test_orthonormality_by_exact_integration(self):
        for j in range(13):
            for k in range(13):
                target = 1.0 if j == k else 0.0
                assert abs(gaussian_product_moment(j, k) - target) <= 1e-8

    def test_all_values_consistent_with_eval(self):
        vals = hermite_values(1.3, 20)
        for k in (0, 7, 20):
            assert vals[k] == pytest.approx(hermite_eval(k, 1.3), rel=1e-14)


class TestHermiteMoments:
    def test_low_order_values(self):
        for rho in (0.1, 0.5, 1.0):
            assert hermite_moment_br(0, rho) == 1.0
            assert hermite_moment_br(2, rho) == pytest.approx(0.0, abs=1e-14)

    def test_odd_orders_vanish(self):
        for k in (1, 3, 5, 17):
            assert hermite_moment_br(k, 0.3) == 0.0

    def test_fourth_moment_formula(self):
        for rho in (0.05, 1.0 / 3.0, 0.9, 1.0):
            expected = (1.0 / rho - 3.0) / math.sqrt(24)
            assert hermite_moment_br(4, rho) == pytest.approx(expected, abs=1e-12)
        assert hermite_moment_br(4, 1.0) == pytest.approx(-2.0 / math.sqrt(24), rel=1e-12)

    def test_squared_moment_bound(self):
        # (E[h_k])^2 <= 20^k rho^(2-k) for k in [4, 40]
        for rho in (0.01, 0.1, 1.0):
            for k in range(4, 41):
                m = hermite_moment_br(k, rho)
                if m == 0.0:
                    continue
                log_bound = k * math.log(20.0) + (2.0 - k) * math.log(rho)
                assert 2.0 * math.log(abs(m)) <= log_bound

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            hermite_moment_br(4, 0.0)


class TestSquaredMoments:
    @pytest.mark.parametrize("q", [1, 2, 10, 1000])
    def test_production_moments_match_exact_rationals(self, q):
        # rho = 1/q^2 puts the atom 1/sqrt(rho) at the integer q, so
        # (E h_k)^2 = ((1 - rho) He_k(0) + rho He_k(q))^2 / k! is an exact
        # rational in the monic coefficients; at q = 1000 the recurrence
        # rescales before k = 256.  k = 2 is left out: E h_2 = 0 exactly, so
        # the float sum leaves only roundoff, and the program never reads it
        # (every part of a composition is >= 4).
        rho = Fraction(1, q * q)
        log_sq = _log_squared_moments(1.0 / q**2, 256)
        for k in range(4, 257, 2):
            monic = monic_hermite_coefficients(k)
            moment = (1 - rho) * monic[0] + rho * sum(c * q**r for r, c in enumerate(monic))
            exact = moment**2 / math.factorial(k)
            expected = math.log(exact.numerator) - math.log(exact.denominator)
            assert log_sq[k] == pytest.approx(expected, rel=1e-12), (q, k)


class TestSphereMoment:
    def test_one_dimension_is_one(self):
        for d in (0, 2, 4, 10):
            assert sphere_moment(1, d) == pytest.approx(1.0, rel=1e-12)

    def test_two_dimensions_quadratic(self):
        assert sphere_moment(2, 2) == pytest.approx(0.5, rel=1e-12)

    def test_odd_degrees_vanish(self):
        for n in (1, 3, 12):
            assert sphere_moment(n, 7) == 0.0
            assert log_sphere_moment(n, 7) == -math.inf

    @pytest.mark.parametrize("args, name", [((2.5, 4), "n"), ((True, 4), "n"), ((3, 4.0), "d")])
    def test_non_integer_arguments_rejected(self, args, name):
        # (2.5, 4) returned -1.32 and (True, 4) returned 3.3e-16.
        with pytest.raises(ValueError, match=f"{name} must be"):
            log_sphere_moment(*args)

    def test_degree_zero_is_one(self):
        for n in (1, 2, 50):
            assert sphere_moment(n, 0) == pytest.approx(1.0, rel=1e-14)

    def test_monte_carlo_agreement(self):
        n, draws = 5, 10**5
        rng = np.random.default_rng(0)
        u = rng.normal(size=(draws, n))
        w = rng.normal(size=(draws, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        dots = np.einsum("ij,ij->i", u, w)
        for d in (2, 4, 6):
            sample = dots**d
            se = sample.std() / math.sqrt(draws)
            assert abs(sample.mean() - sphere_moment(n, d)) <= 4 * se


class TestCompositionSum:
    def test_single_part(self):
        for rho in (0.25, 1.0):
            assert composition_sum(4, 1, rho) == pytest.approx(
                hermite_moment_br(4, rho) ** 2, rel=1e-12
            )
        assert composition_sum(4, 1, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_unique_two_part_composition(self):
        m4 = hermite_moment_br(4, 0.5)
        assert composition_sum(8, 2, 0.5) == pytest.approx(m4**4, rel=1e-12)

    def test_two_part_mixed_composition(self):
        m4 = hermite_moment_br(4, 0.5)
        m6 = hermite_moment_br(6, 0.5)
        expected = 2.0 * m4**2 * m6**2
        assert composition_sum(10, 2, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_empty_cases(self):
        assert composition_sum(7, 1, 0.5) == 0.0  # odd total
        assert composition_sum(6, 2, 0.5) == 0.0  # d < 4m

    @pytest.mark.parametrize("rho", [1e-3, 0.05, 0.3, 1.0 / 3.0, 0.5, 1.0])
    def test_matches_direct_enumeration(self, rho):
        # every ordered composition of d into m even parts >= 4, odd d included;
        # no part exceeds d - 4(m - 1), since the other m - 1 parts are >= 4
        for d in range(27):
            for m in range(1, d // 4 + 2):
                parts = range(4, d - 4 * (m - 1) + 1, 2)
                compositions = [
                    alpha for alpha in itertools.product(parts, repeat=m) if sum(alpha) == d
                ]
                # BR moments of order 2 and of odd order vanish, so only unit
                # weights at every order show which parts the program admits
                count = math.exp(_log_composition_sum([0.0] * (d + 1), d, m))
                assert count == pytest.approx(len(compositions), rel=1e-12), (d, m)
                got = composition_sum(d, m, rho)
                if not compositions:
                    assert got == 0.0, (d, m)
                    continue
                expected = math.fsum(
                    math.prod(hermite_moment_br(a, rho) ** 2 for a in alpha)
                    for alpha in compositions
                )
                assert got == pytest.approx(expected, rel=1e-12), (d, m)

    @settings(max_examples=150, deadline=None)
    @given(
        dm=st.integers(0, 48).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d // 4 + 1))),
        even=st.lists(st.floats(-60.0, 60.0) | st.just(-math.inf), min_size=25, max_size=25),
    )
    @example(dm=(48, 13), even=[0.0] * 25)
    def test_one_table_is_the_recursion_bit_for_bit(self, dm, even):
        # log_sq as _log_squared_moments makes it: -inf at every odd order
        d, m = dm
        log_sq = [-math.inf] * (d + 1)
        log_sq[::2] = even[: d // 2 + 1]
        want = composition_table(log_sq, d, m)[m][d]
        assert float.hex(_log_composition_sum(log_sq, d, m)) == float.hex(want)


class TestAdvantage:
    def test_degree_three_is_trivial(self):
        for N, n, rho in ((5, 3, 0.5), (100, 10, 0.02), (7, 7, 1.0)):
            b = advantage(N, n, rho, 3)
            assert b.adv == 1.0
            assert b.adv_squared == 1.0

    def test_hand_value(self):
        b = advantage(2, 2, 1.0, 4)
        assert abs(b.adv_squared - 1.125) <= 1e-12

    def test_breakdown_structure(self):
        b = advantage(4, 3, 0.5, 8)
        degrees = [row.d for row in b.per_degree]
        assert degrees == [0, 2, 4, 6, 8]
        assert b.per_degree[0].contribution == 1.0
        assert b.per_degree[1].contribution == 0.0  # d = 2 vanishes
        total = sum(row.contribution for row in b.per_degree)
        assert b.adv_squared == pytest.approx(total, rel=1e-12)

    def test_alpha_sum_at_degree_four(self):
        N, n, rho = 6, 4, 0.25
        b = advantage(N, n, rho, 4)
        expected = N * hermite_moment_br(4, rho) ** 2
        assert b.per_degree[2].alpha_sum == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_degree(self):
        values = [advantage(5, 4, 0.5, D).adv_squared for D in range(0, 13, 2)]
        for a, b in zip(values, values[1:]):
            assert b >= a
        assert all(v >= 1.0 for v in values)

    def test_rho_one_third_kills_degree_four(self):
        b = advantage(50, 10, 1.0 / 3.0, 4)
        assert b.per_degree[2].contribution <= 1e-30

    def test_oracle_equivalence_sample(self):
        for N, n, rho, D in ((3, 4, 0.5, 10), (4, 2, 0.25, 8), (2, 3, 1.0, 12)):
            a = advantage(N, n, rho, D).adv_squared
            b = advantage_bruteforce(N, n, rho, D)
            assert a == pytest.approx(b, rel=1e-10)

    def test_bruteforce_degree_zero(self):
        assert advantage_bruteforce(3, 2, 0.5, 0) == pytest.approx(1.0, rel=1e-14)

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            advantage_bruteforce(6, 2, 0.5, 4)
        with pytest.raises(ValueError):
            advantage_bruteforce(2, 2, 0.5, 13)

    def test_rho_guard(self):
        with pytest.raises(ValueError):
            advantage(10, 5, 1e-9, 4)

    @pytest.mark.parametrize(
        "args, name",
        [((10.5, 5, 0.1, 8), "N"), ((100, 5.5, 0.1, 8), "n"), ((100, 5, 0.1, 8.0), "D"),
         ((True, 5, 0.1, 8), "N")],
    )
    def test_non_integer_sizes_rejected(self, args, name):
        # A float N or n was computed with, and a float D raised TypeError.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            advantage(*args)
        assert advantage(np.int64(100), np.int32(5), 0.1, np.int64(8)) == advantage(100, 5, 0.1, 8)

    def test_fixed_width_sizes_do_not_wrap(self):
        # _log_binomial's N + 1 wrapped np.uint8(255) to 0: an overflow
        # warning and a math domain error, where 255 gives 64.37.
        assert advantage(np.uint8(255), np.uint8(5), 0.1, np.uint8(8)) == advantage(255, 5, 0.1, 8)

    def test_large_parameters_log_space(self):
        # far beyond linear-space range: C(10^4, 5) * rho^(2-k) terms
        b = advantage(10**4, 20, 0.01, 24)
        assert math.isfinite(b.log_adv_squared)
        assert b.adv >= 1.0
        assert not b.overflowed

    @pytest.mark.parametrize("N", [10**8, 10**12, 10**15, 10**18])
    def test_large_N_matches_the_exact_binomial_sum(self, N):
        # lgamma(N + 1) - lgamma(N - m + 1) lost about eps * N ln N: at
        # N = 1e18 log adv^2 read 33.15 where the exact sum gives 332.67
        got = advantage(N, 100, 0.01, 32).log_adv_squared
        assert got == pytest.approx(log_advantage_exact_binomial(N, 100, 0.01, 32), rel=1e-12)
        if N == 10**18:
            assert round(got, 7) == 332.6671423

    def test_overflow_saturates_linear_fields(self):
        # adv^2 ~ e^1353 leaves double range: the log fields stay finite and
        # authoritative, the linear fields beyond range read inf
        b = advantage(10**4, 20, 1e-6, 128)
        assert b.overflowed and not b.underflowed
        assert math.isfinite(b.log_adv_squared) and b.adv_squared == math.inf
        assert b.adv == pytest.approx(math.exp(0.5 * b.log_adv_squared), rel=1e-12)
        top = b.per_degree[-1]
        assert top.contribution == math.inf and math.isfinite(top.log_contribution)
        assert b.log_adv_squared >= max(r.log_contribution for r in b.per_degree)

    def test_hermite_moment_beyond_double_range_has_exact_log(self):
        # h_160(1000) ~ 1e338 leaves double range.  With N = 1 the only
        # admissible multi-index at degree d is (d,), so the top
        # log_contribution is log E<u,u'>^d + 2 log|E h_d(x)|, checked here
        # in exact integer arithmetic with the atom at 1/sqrt(rho) = 1000
        d, rho = 160, 1e-6
        b = advantage(1, 5, rho, d)
        monic = monic_hermite_coefficients(d)
        at_atom = sum(c * 1000**r for r, c in enumerate(monic))
        moment = Fraction(10**6 - 1, 10**6) * monic[0] + Fraction(1, 10**6) * at_atom
        log_moment = (
            math.log(abs(moment.numerator)) - math.log(moment.denominator)
            - 0.5 * math.lgamma(d + 1)
        )
        expected = log_sphere_moment(5, d) + 2.0 * log_moment
        assert b.per_degree[-1].d == d
        assert b.per_degree[-1].log_contribution == pytest.approx(expected, rel=1e-12)
        assert b.overflowed


# Points of the exact shape laws: N up to 1e8, n up to 1e5, rho log-uniform
# in [1e-3, 1], D up to 32.
_Ns = st.integers(1, 10**8)
_ns = st.integers(1, 10**5)
_rhos = st.floats(-3.0, 0.0).map(lambda e: 10.0**e)
_Ds = st.integers(0, 32)


class TestShapeLaws:
    """Exact consequences of the formula, checked with no tolerance."""

    @settings(max_examples=200, deadline=None)
    @given(N=_Ns, n=_ns, rho=_rhos, degrees=st.lists(_Ds, min_size=2, max_size=2))
    def test_nondecreasing_in_degree(self, N, n, rho, degrees):
        # every added degree contributes a term >= 0
        low, high = sorted(degrees)
        assert advantage(N, n, rho, high).log_adv_squared >= advantage(N, n, rho, low).log_adv_squared

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 10**18), min_size=2, max_size=2), n=_ns, rho=_rhos, D=_Ds)
    @example(sizes=[10**15, 10**18], n=100, rho=0.01, D=32)
    def test_nondecreasing_in_N(self, sizes, n, rho, D):
        # C(N, m) grows with N; the slack covers the final logsumexp's rounding
        low, high = sorted(sizes)
        below = advantage(low, n, rho, D).log_adv_squared
        assert advantage(high, n, rho, D).log_adv_squared >= below - 1e-12 * abs(below)

    @settings(max_examples=200, deadline=None)
    @given(N=_Ns, n=_ns, rho=_rhos, D=_Ds)
    def test_nonincreasing_from_n_to_2n(self, N, n, rho, D):
        # each sphere moment E<u,u'>^d decreases in n; doubling n keeps the
        # step above lgamma's rounding where n + 1 would not
        assert advantage(N, 2 * n, rho, D).log_adv_squared <= advantage(N, n, rho, D).log_adv_squared
