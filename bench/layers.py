"""Layer microbenchmarks at pinned sizes, timed through pvlab's public
functions.  Inputs come from the benchmark seed; each figure is a median over
repeats."""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from pvlab import lowdeg, model_gen, spectral
from pvlab.model_gen import SeedSpec

SIZES = ((4000, 20), (10000, 100), (40000, 200))
LAYER_RHO = 0.02
ADVANTAGE_DEGREES = (32, 64, 128)
ADVANTAGE_CELL = (1_000_000, 1000, 0.01)  # (N, n, rho)
NORMALS_SHAPE = (40000, 200)
FLOPS_SIZE = SIZES[-1]

LAYER_FUNCS = (
    "model_gen.sample_br_vector",
    "model_gen.sample_gaussian_basis",
    "model_gen.sample_haar_rotation",
    "model_gen.apply_rotation",
    "model_gen.orthonormalize",
    "spectral.build_statistic",
    "spectral.leading_eigenpair",
)


def metric_units() -> dict[str, str]:
    """Name and unit of every metric `measure` returns."""
    units = {f"{f}.{N}x{n}.ms": "ms" for N, n in SIZES for f in LAYER_FUNCS}
    units.update({f"lowdeg.advantage.D{D}.ms": "ms" for D in ADVANTAGE_DEGREES})
    units["spectral.build_statistic.gflops_computed"] = "GFLOP/s"
    units["model_gen.orthonormalize.gflops_computed"] = "GFLOP/s"
    units["model_gen.normals_philox_over_sfc64"] = "ratio"
    return units


def _clock(times: list, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    times.append(time.perf_counter() - start)
    return out


def _median_ms(times: list[float]) -> float:
    return statistics.median(times) * 1000.0


def _normals_s(bit_generator, seed: int, repeats: int) -> float:
    times = []
    for r in range(repeats):
        rng = np.random.Generator(bit_generator(np.random.SeedSequence([seed, r])))
        _clock(times, lambda: rng.normal(scale=1.0 / np.sqrt(NORMALS_SHAPE[0]), size=NORMALS_SHAPE))
    return statistics.median(times)


def measure(seed: int, repeats: int = 5, advantage_repeats: int = 3) -> dict[str, float]:
    out: dict[str, float] = {}
    for N, n in SIZES:
        t: dict[str, list[float]] = defaultdict(list)
        for r in range(repeats):
            spec = SeedSpec(seed, r)
            v = _clock(t["model_gen.sample_br_vector"], model_gen.sample_br_vector, N, LAYER_RHO, spec)
            Y = _clock(t["model_gen.sample_gaussian_basis"], model_gen.sample_gaussian_basis, v, n, spec)
            Q = _clock(t["model_gen.sample_haar_rotation"], model_gen.sample_haar_rotation, n, spec)
            Y_rot = _clock(t["model_gen.apply_rotation"], model_gen.apply_rotation, Y, Q)
            _clock(t["model_gen.orthonormalize"], model_gen.orthonormalize, Y)
            stat = _clock(t["spectral.build_statistic"], spectral.build_statistic, Y_rot)
            _clock(t["spectral.leading_eigenpair"], spectral.leading_eigenpair, stat)
            del v, Y, Q, Y_rot, stat
        for f in LAYER_FUNCS:
            out[f"{f}.{N}x{n}.ms"] = _median_ms(t[f])

    # Flop counts computed from the array sizes, not counted by hardware:
    # the Gram product Y^T diag(w) Y is 2*N*n^2; Householder QR plus forming
    # Q is 4*N*n^2 - (4/3)*n^3.
    N, n = FLOPS_SIZE
    tag = f"{N}x{n}"
    out["spectral.build_statistic.gflops_computed"] = (
        2.0 * N * n * n / (out[f"spectral.build_statistic.{tag}.ms"] * 1e6)
    )
    out["model_gen.orthonormalize.gflops_computed"] = (
        (4.0 * N * n * n - 4.0 * n**3 / 3.0) / (out[f"model_gen.orthonormalize.{tag}.ms"] * 1e6)
    )

    for D in ADVANTAGE_DEGREES:
        times: list[float] = []
        for _ in range(advantage_repeats):
            _clock(times, lowdeg.advantage, *ADVANTAGE_CELL, D)
        out[f"lowdeg.advantage.D{D}.ms"] = _median_ms(times)

    out["model_gen.normals_philox_over_sfc64"] = (
        _normals_s(np.random.Philox, seed, repeats) / _normals_s(np.random.SFC64, seed, repeats)
    )
    return out
