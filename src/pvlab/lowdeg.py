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
of all alpha validates the program on small parameters.

Magnitudes span hundreds of orders (binomials up to C(N, D/4) against moments
of order rho^(2-k)), so the combination is accumulated in log space.  All
summands are squares times nonnegative sphere moments, so magnitudes alone
suffice, with no sign channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DegreeContribution",
    "AdvantageBreakdown",
    "hermite_values",
    "hermite_eval",
    "monic_hermite_coefficients",
    "gaussian_product_moment",
    "hermite_moment_br",
    "sphere_moment",
    "log_sphere_moment",
    "composition_sum",
    "advantage",
    "advantage_bruteforce",
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


def hermite_values(z: float, k_max: int) -> np.ndarray:
    """h_0(z), ..., h_k_max(z); raises OverflowError beyond double range."""
    mantissas, exponents = _hermite_scaled(z, k_max)
    return np.array([math.ldexp(m, int(e)) for m, e in zip(mantissas, exponents)])


def hermite_eval(k: int, z: float) -> float:
    """Orthonormal Hermite polynomial h_k at z."""
    return float(hermite_values(z, k)[k])


@lru_cache(maxsize=None)
def monic_hermite_coefficients(k: int) -> tuple[int, ...]:
    """Integer coefficients (ascending powers) of the monic Hermite
    polynomial; h_k is the monic polynomial divided by sqrt(k!)."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 1)
    prev2 = monic_hermite_coefficients(k - 2)
    prev1 = monic_hermite_coefficients(k - 1)
    out = [0] * (k + 1)
    for power, c in enumerate(prev1):
        out[power + 1] += c
    for power, c in enumerate(prev2):
        out[power] -= (k - 1) * c
    return tuple(out)


def gaussian_product_moment(j: int, k: int) -> float:
    """E[h_j(z) h_k(z)] for z ~ N(0,1), by exact integration of the
    coefficient products against the Gaussian moments (m-1)!!.

    Independent of the recurrence evaluation path; equals delta_jk.
    """
    cj = monic_hermite_coefficients(j)
    ck = monic_hermite_coefficients(k)
    total = 0
    for r, a in enumerate(cj):
        if a == 0:
            continue
        for s, b in enumerate(ck):
            if b == 0 or (r + s) % 2:
                continue
            total += a * b * _double_factorial(r + s - 1)
    return total / math.sqrt(math.factorial(j) * math.factorial(k))


def _double_factorial(m: int) -> int:
    # (-1)!! = 1 by convention
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def hermite_moment_br(k: int, rho: float) -> float:
    """E[h_k(x)] for the three-atom Bernoulli-Rademacher variable with
    P{x = 0} = 1 - rho and P{x = +-1/sqrt(rho)} = rho/2.

    Odd k short-circuits to exactly 0 by symmetry.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if k % 2:
        return 0.0
    a = 1.0 / math.sqrt(rho)
    return (1.0 - rho) * hermite_eval(k, 0.0) + rho * hermite_eval(k, a)


def log_sphere_moment(n: int, d: int) -> float:
    """log E[<u, u'>^d] for independent uniform unit vectors in R^n;
    -inf for odd d."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if d % 2:
        return -math.inf
    return (
        math.lgamma(n / 2.0)
        + math.lgamma((d + 1) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma((n + d) / 2.0)
    )


def sphere_moment(n: int, d: int) -> float:
    """E[<u, u'>^d] = Gamma(n/2) Gamma((d+1)/2) / (sqrt(pi) Gamma((n+d)/2))
    for even d, and 0 for odd d."""
    return math.exp(log_sphere_moment(n, d))


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
    if m < 0 or m > N:
        return -math.inf
    return math.lgamma(N + 1) - math.lgamma(m + 1) - math.lgamma(N - m + 1)


def _log_squared_moments(rho: float, D: int) -> list[float]:
    """log (E[h_k(x)])^2 for k = 0..D, x Bernoulli-Rademacher(rho).

    Each moment is summed at the atom's power-of-two scale, so an h_k beyond
    double range still has an exact log."""
    at_zero = hermite_values(0.0, D)  # |h_k(0)| <= 1, never rescaled
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


def composition_sum(d: int, m: int, rho: float) -> float:
    """g(d, m): the inner sum over multi-index mass patterns with support
    size m and total degree d, for the Bernoulli-Rademacher distribution.

    Zero whenever d < 4m or d is odd (no admissible composition).
    """
    if d < 0 or m < 1:
        raise ValueError(f"need d >= 0 and m >= 1, got d={d}, m={m}")
    if d % 2 or d < 4 * m:
        return 0.0
    log_sq = _log_squared_moments(rho, d)
    return _exp(_log_composition_sum(log_sq, d, m))


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
    if N < 1 or n < 1 or D < 0:
        raise ValueError(f"need N, n >= 1 and D >= 0, got N={N}, n={n}, D={D}")
    if not MIN_RHO <= rho <= 1:
        raise ValueError(f"rho must be in [{MIN_RHO:g}, 1], got {rho}")
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


def advantage_bruteforce(N: int, n: int, rho: float, D: int) -> float:
    """Direct enumeration of adv^2 over every multi-index alpha in N^N with
    |alpha| <= D.  Independent oracle for `advantage`; tiny parameters only."""
    if N > 5 or D > 12:
        raise ValueError(f"brute force is guarded to N <= 5 and D <= 12, got N={N}, D={D}")
    if N < 1 or n < 1 or D < 0:
        raise ValueError(f"need N, n >= 1 and D >= 0, got N={N}, n={n}, D={D}")
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    sq = np.array([hermite_moment_br(k, rho) for k in range(D + 1)]) ** 2
    sphere = np.array([sphere_moment(n, d) for d in range(D + 1)])
    grids = np.stack(np.meshgrid(*([np.arange(D + 1)] * N), indexing="ij"))
    alphas = grids.reshape(N, -1)
    degrees = alphas.sum(axis=0)
    keep = degrees <= D
    products = np.prod(sq[alphas[:, keep]], axis=0)
    return float(np.sum(sphere[degrees[keep]] * products))
