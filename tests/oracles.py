"""Independent oracles for the production arithmetic in pvlab.

The brute-force enumeration of adv^2 checks the low-degree dynamic program
(`pvlab.lowdeg.advantage`), the same sum over exact integer binomials checks
it at large N, one bottom-up table of composition sums matches its
recursion bit for bit, the exact integer Hermite coefficients and their
Gaussian integration check the Hermite recurrence, and the rank-one
eigenvector perturbation bound is checked on explicit instances.  The
statistic's two scales in closed form, the planted signal and the null
spectral norm, are checked against sampled statistics.  None of these runs
in a `pvlab` command or sweep, so they live with the tests.
"""

import math
from functools import lru_cache

import numpy as np

from pvlab.lowdeg import (
    _exp,
    _hermite_scaled,
    _log_composition_sum,
    _log_squared_moments,
    _logsumexp,
    log_sphere_moment,
)
from pvlab.spectral import leading_eigenpair


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


def sphere_moment(n: int, d: int) -> float:
    """E[<u, u'>^d] = Gamma(n/2) Gamma((d+1)/2) / (sqrt(pi) Gamma((n+d)/2))
    for even d, and 0 for odd d."""
    return math.exp(log_sphere_moment(n, d))


def composition_sum(d: int, m: int, rho: float) -> float:
    """g(d, m): the inner sum over multi-index mass patterns with support
    size m and total degree d, for the Bernoulli-Rademacher distribution,
    through the production program's `_log_composition_sum`.

    Zero whenever d < 4m or d is odd (no admissible composition).
    """
    if d < 0 or m < 1:
        raise ValueError(f"need d >= 0 and m >= 1, got d={d}, m={m}")
    if d % 2 or d < 4 * m:
        return 0.0
    log_sq = _log_squared_moments(rho, d)
    return _exp(_log_composition_sum(log_sq, d, m))


def composition_table(log_sq: list[float], d_max: int, m_max: int) -> list[list[float]]:
    """L[m][d] = log g(d, m) for every d <= d_max and m <= m_max, as one
    table built bottom-up (the shared table of ROADMAP item 2): L[0] is 0
    at d = 0 and -inf above, and L[m][d] is `_logsumexp` over the even parts
    a >= 4 that leave room for m - 1 more, in increasing a, of
    log_sq[a] + L[m - 1][d - a], the terms of `_log_composition_sum`'s
    recursion in its order."""
    table = [[0.0] + [-math.inf] * d_max]
    for m in range(1, m_max + 1):
        below = table[-1]
        table.append([
            _logsumexp([log_sq[a] + below[d - a] for a in range(4, d - 4 * (m - 1) + 1, 2)])
            for d in range(d_max + 1)
        ])
    return table


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


def log_advantage_exact_binomial(N: int, n: int, rho: float, D: int) -> float:
    """log adv^2 as `advantage` sums it, with every log C(N, m) taken from
    the exact integer `math.comb(N, m)`; the oracle for large N, where a
    difference of lgammas near N ln N loses digits."""
    log_sq = _log_squared_moments(rho, D)
    log_contribs = [0.0]
    for d in range(4, D + 1, 2):
        terms = [
            math.log(math.comb(N, m)) + _log_composition_sum(log_sq, d, m)
            for m in range(1, min(d // 4, N) + 1)
        ]
        log_contribs.append(log_sphere_moment(n, d) + _logsumexp(terms))
    return _logsumexp(log_contribs)


def rank_one_bound_check(
    A: np.ndarray, rho_s: float, b: np.ndarray
) -> tuple[float, float, bool]:
    """Check the rank-one eigenvector perturbation bound on one instance.

    For the leading eigenvector u1 of symmetric A (gap Delta between its two
    largest singular values) and the leading eigenvector of A + rho_s*b b^T,
    whenever |rho_s| ||b||^2 <= Delta/4 the sign-minimized distance between
    the two eigenvectors is at most 2*sqrt(2) |rho_s| ||b|| |b^T u1| / Delta.

    Returns (lhs, rhs, applicable); the bound is only claimed when applicable.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _, u1, gap = leading_eigenpair(A)
    _, u1_tilde, _ = leading_eigenpair(A + rho_s * np.outer(b, b))
    lhs = min(
        float(np.linalg.norm(u1 - u1_tilde)), float(np.linalg.norm(u1 + u1_tilde))
    )
    bnorm = float(np.linalg.norm(b))
    applicable = gap > 0 and abs(rho_s) * bnorm**2 <= gap / 4.0
    if gap > 0:
        rhs = 2.0 * np.sqrt(2.0) * abs(rho_s) * bnorm * abs(float(b @ u1)) / gap
    else:
        rhs = np.inf
    return lhs, float(rhs), applicable


def planted_signal(v: np.ndarray) -> float:
    """||v||_4^4 - 3/N: in the hidden basis, E[M]'s entry in the planted
    direction, for a unit-norm planted vector v."""
    return float(np.sum(v**4) - 3.0 / v.size)


def null_norm_scale(N: int, n: int) -> float:
    """2 sqrt(n (2n + 33)) N^(-3/2), the null spectral norm of M predicted
    by the semicircle edge: an off-diagonal entry of M has variance
    (2n + 33) / N^3 under the null, from the Gaussian fourth and sixth
    moments.  It fails as n/N grows (at n/N = 1/2)."""
    return 2.0 * np.sqrt(n * (2 * n + 33)) * N**-1.5
