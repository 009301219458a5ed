"""Exact low-degree advantage for the planted-vector detection problem.

The degree-D advantage is the maximum of E_planted[f] / sqrt(E_null[f^2])
over polynomials f of degree at most D in the observed matrix entries.  For
a planted direction drawn uniformly from the sphere and coordinates carrying
a symmetric unit-variance distribution nu (here Bernoulli-Rademacher, with
atoms 0 and +-1/sqrt(rho)), it admits the closed form

    adv^2 = sum_d E[<u, u'>^d] * sum_{|alpha| = d} prod_i (E[h_{alpha_i}])^2

where h_k are the orthonormal Hermite polynomials, u, u' are independent
uniform unit vectors in R^n, and alpha ranges over N-dimensional multi-indices.
Only alpha whose nonzero entries are even and >= 4 contribute (the Hermite
moments of orders 1, 2, 3 and all odd orders vanish), which collapses the
inner sum to a dynamic program over compositions; a brute-force enumeration
of all alpha in the tests (`tests/oracles.py`) validates the program on small
parameters.

Magnitudes span hundreds of orders (binomials up to C(N, D/4) against moments
of order rho^(2-k)), so the combination is accumulated in log space.  All
summands are squares times nonnegative sphere moments, so magnitudes alone
suffice, with no sign channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import _check_integer, _check_rho

__all__ = [
    "DegreeContribution",
    "AdvantageBreakdown",
    "log_sphere_moment",
    "advantage",
]

# Smallest sparsity the advantage computation accepts; below this the
# Bernoulli-Rademacher atoms at +-1/sqrt(rho) leave double precision.
MIN_RHO = 1e-6

_RESCALE_LIMIT = 1e250


def _hermite_scaled(z: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """h_0(z), ..., h_k_max(z) in one recurrence pass, as mantissas and
    power-of-two exponents: h_k(z) = ldexp(mantissa[k], exponent[k]).

    h_k are the orthonormal Hermite polynomials, E[h_j(z) h_k(z)] = delta_jk
    under z ~ N(0, 1): h_0(z) = 1, h_1(z) = z, and the normalized three-term
    recurrence h_{k+1}(z) = (z h_k(z) - sqrt(k) h_{k-1}(z)) / sqrt(k+1).  The
    running pair is rescaled by powers of two when it approaches overflow, so
    values stay accurate for large |z| with the magnitude in the exponent.
    """
    if k_max < 0:
        raise ValueError(f"degree must be >= 0, got {k_max}")
    out = np.empty(k_max + 1)
    exponents = np.zeros(k_max + 1, dtype=int)
    prev, cur = 0.0, 1.0
    scale_exp = 0
    out[0] = 1.0
    for k in range(k_max):
        prev, cur = cur, (z * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
        if abs(cur) > _RESCALE_LIMIT:
            prev = math.ldexp(prev, -512)
            cur = math.ldexp(cur, -512)
            scale_exp += 512
        out[k + 1] = cur
        exponents[k + 1] = scale_exp
    return out, exponents


def log_sphere_moment(n: int, d: int) -> float:
    """log E[<u, u'>^d] for independent uniform unit vectors in R^n;
    -inf for odd d."""
    n, d = _check_integer("n", n, 1), _check_integer("d", d, 0)
    if d % 2:
        return -math.inf
    return (
        math.lgamma(n / 2.0)
        + math.lgamma((d + 1) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma((n + d) / 2.0)
    )


def _exp(x: float) -> float:
    """exp(x), saturating to inf where the result leaves double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _logsumexp(values: list[float]) -> float:
    top = max(values, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in values))


def _log_binomial(N: int, m: int) -> float:
    """log C(N, m), from the exact integer above N = 2**21.

    The lgamma difference cancels two values near N ln N, so its absolute
    error grows like eps * N ln N; at N <= 2**21 it stays under 1e-8.  That
    branch stays only because the committed advantage references (N = 1e4
    and 1e6) were written with it, until they are re-pinned (ROADMAP item 18).
    """
    if m < 0 or m > N:
        return -math.inf
    if N > 2**21:
        return math.log(math.comb(N, m))
    return math.lgamma(N + 1) - math.lgamma(m + 1) - math.lgamma(N - m + 1)


def _log_squared_moments(rho: float, D: int) -> list[float]:
    """log (E[h_k(x)])^2 for k = 0..D, x Bernoulli-Rademacher(rho).

    Each moment is summed at the atom's power-of-two scale, so an h_k beyond
    double range still has an exact log."""
    at_zero, _ = _hermite_scaled(0.0, D)  # |h_k(0)| <= 1: every exponent is 0
    at_atom, exponents = _hermite_scaled(1.0 / math.sqrt(rho), D)
    moments = (1.0 - rho) * np.ldexp(at_zero, -exponents) + rho * at_atom
    moments[1::2] = 0.0
    with np.errstate(divide="ignore"):
        return (2.0 * (np.log(np.abs(moments)) + exponents * math.log(2.0))).tolist()


def _log_composition_sum(log_sq: list[float], d: int, m: int) -> float:
    """log g(d, m): sum over ordered compositions of d into m even parts
    >= 4 of the product of squared Hermite moments."""
    memo: dict[tuple[int, int], float] = {}

    def rec(rem: int, parts: int) -> float:
        if parts == 0:
            return 0.0 if rem == 0 else -math.inf
        key = (rem, parts)
        if key not in memo:
            terms = [
                log_sq[a] + rec(rem - a, parts - 1)
                for a in range(4, rem - 4 * (parts - 1) + 1, 2)
            ]
            memo[key] = _logsumexp(terms)
        return memo[key]

    return rec(d, m)


@dataclass(frozen=True)
class DegreeContribution:
    d: int
    sphere_moment: float
    alpha_sum: float
    contribution: float
    log_contribution: float


@dataclass(frozen=True)
class AdvantageBreakdown:
    per_degree: list[DegreeContribution]
    adv_squared: float
    adv: float
    log_adv_squared: float
    underflowed: bool = False
    overflowed: bool = False


def advantage(N: int, n: int, rho: float, D: int) -> AdvantageBreakdown:
    """Exact degree-D advantage for the detection problem with parameters
    (N, n, rho), with per-degree breakdown.

    adv^2 = 1 + sum over even d in [4, D] of
        E[<u,u'>^d] * sum_m C(N, m) * g(d, m),
    accumulated in log space.  The log fields are authoritative: a per-degree
    contribution whose log is finite but flushes to zero on exponentiation
    sets the underflow flag, and a linear field that leaves double range
    saturates to inf and sets the overflow flag.
    """
    N, n, D = _check_integer("N", N, 1), _check_integer("n", n, 1), _check_integer("D", D)
    _check_rho(rho)
    if D < 0 or rho < MIN_RHO:
        raise ValueError(f"need D >= 0 and rho >= {MIN_RHO:g}, got D={D}, rho={rho}")
    log_sq = _log_squared_moments(rho, D) if D >= 4 else None
    per_degree = [DegreeContribution(0, 1.0, 1.0, 1.0, 0.0)]
    log_contribs = [0.0]
    underflowed = False
    for d in range(2, D + 1, 2):
        log_sphere = log_sphere_moment(n, d)
        log_alpha = _logsumexp(
            [
                _log_binomial(N, m) + _log_composition_sum(log_sq, d, m)
                for m in range(1, min(d // 4, N) + 1)
            ]
        )
        log_contrib = log_sphere + log_alpha
        contrib = _exp(log_contrib)
        if contrib == 0.0 and log_contrib > -math.inf:
            underflowed = True
        per_degree.append(
            DegreeContribution(d, math.exp(log_sphere), _exp(log_alpha), contrib, log_contrib)
        )
        log_contribs.append(log_contrib)
    log_adv_sq = _logsumexp(log_contribs)
    adv_squared = _exp(log_adv_sq)
    return AdvantageBreakdown(
        per_degree=per_degree,
        adv_squared=adv_squared,
        adv=_exp(0.5 * log_adv_sq),
        log_adv_squared=log_adv_sq,
        underflowed=underflowed,
        overflowed=math.isinf(adv_squared) or any(math.isinf(r.alpha_sum) for r in per_degree),
    )
