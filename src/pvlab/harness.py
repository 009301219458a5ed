"""Seeded parameter sweeps over (N, n, rho) grids with CSV emission.

Each (cell, trial) unit draws its randomness from a stream index derived by a
stable 64-bit hash of (N, n, rho, trial), so editing the grid never reshuffles
the randomness of unrelated cells, and records come out in deterministic cell
order no matter how many worker threads ran them.

A unit runs the one trial path it shares with `detection.error_rates`
(`detection.estimator`, then `detection.detect`): it samples each distinct
instance once (the gaussian `recover` instance is also the detection tests'
planted instance) and keeps only its spectral result and truth.  The
deterministic advantage is computed once per cell.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

# hashlib.blake2b is this same object (hashlib never serves BLAKE2 from OpenSSL); hashlib maps libcrypto.
from _blake2 import blake2b

from . import _blas
from ._domain import _check_integer, _check_rho
from .model_gen import SeedSpec
from .detection import _DETECTED, _sample_buffer, detect, estimator, recover
from .lowdeg import MIN_RHO, advantage

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "CellSummary",
    "CSV_HEADER",
    "TASKS",
    "stream_for_cell",
    "run_sweep",
    "records_to_csv",
    "summarize",
]

log = logging.getLogger("pvlab")

TASKS = ("recover", "detect_spectral", "detect_l1l2", "advantage")

CSV_HEADER = "N,n,rho,trial,task,success,l2_error,entrywise_err,statistic,adv,elapsed_ms"

@dataclass(frozen=True)
class SweepConfig:
    """Grid definition for a sweep; see SweepConfig.from_json for the file
    format."""

    Ns: list[int]
    ns: list[int]
    rhos: list[float]
    trials: int = 10
    model: str = "gaussian"
    tasks: tuple[str, ...] = ("recover",)
    D: int = 8
    seed: int = 0
    out: str | None = None
    collect_timing: bool = False

    def __post_init__(self):
        for name in ("Ns", "ns", "rhos", "tasks"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.Ns or not self.ns or not self.rhos:
            raise ValueError("Ns, ns, and rhos must all be nonempty")
        for name, low in (("trials", 1), ("D", 0), ("seed", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low))
        for name in ("Ns", "ns"):
            values = [_check_integer(f"{name} entry", value, 1) for value in getattr(self, name)]
            object.__setattr__(self, name, values)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} entries must be distinct, got {values!r}")
        for rho in self.rhos:
            _check_rho(rho, "rhos entry")
        if len({_rho_key(r) for r in self.rhos}) != len(self.rhos):
            raise ValueError("rhos must be distinct and differ by more than 1e-9")
        if self.model not in ("gaussian", "orth"):
            raise ValueError(f"model must be 'gaussian' or 'orth', got {self.model!r}")
        unknown = [task for task in self.tasks if task not in TASKS]
        if unknown:
            raise ValueError(f"unknown tasks: {unknown}")
        if not self.tasks or len(set(self.tasks)) != len(self.tasks):
            raise ValueError(f"tasks must be nonempty and distinct, got {list(self.tasks)}")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ValueError(f"out must be a nonempty path string, got {self.out!r}")
        if all(n > N for N in self.Ns for n in self.ns):
            raise ValueError("grid has no valid cell: n > N for every (N, n)")
        if "advantage" in self.tasks and min(self.rhos) < MIN_RHO:
            raise ValueError(f"advantage needs rho >= {MIN_RHO:g}, got {min(self.rhos)!r}")

    @staticmethod
    def from_json(path: str) -> "SweepConfig":
        with open(path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got a {type(raw).__name__}")
        known = {"Ns", "ns", "rhos", "trials", "model", "tasks", "D", "seed", "out"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {"Ns", "ns", "rhos"} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return SweepConfig(**raw)

    def cells(self) -> list[tuple[int, int, float]]:
        """Valid grid cells in deterministic order; invalid (n > N) cells are
        skipped and logged."""
        out = []
        for N in self.Ns:
            for n in self.ns:
                for rho in self.rhos:
                    if n > N:
                        log.warning("skipping invalid cell N=%d n=%d (n > N)", N, n)
                        continue
                    out.append((N, n, rho))
        return out


@dataclass(frozen=True)
class SweepRecord:
    """One (cell, trial, task) result row."""

    N: int
    n: int
    rho: float
    trial: int
    task: str
    success: bool
    l2_error: float | None = None
    entrywise_max_weighted: float | None = None
    statistic_value: float | None = None
    adv: float | None = None
    elapsed_ms: float | None = None


def _rho_key(rho: float) -> int:
    """rho in fixed-point nanounits, as it enters the stream hash."""
    return round(rho * 1_000_000_000)


def stream_for_cell(N: int, n: int, rho: float, trial: int) -> int:
    """Stable 64-bit stream index for a (cell, trial) unit.

    rho enters as fixed-point nanounits so float formatting cannot shift the
    hash between platforms.
    """
    payload = f"{N},{n},{_rho_key(rho)},{trial}".encode()
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


def _instances(config: SweepConfig) -> tuple[str, ...]:
    """The distinct instances a unit's tasks ask for, in the order they ask."""
    asked = {"recover": (config.model,), "advantage": ()}
    return tuple(dict.fromkeys(m for task in config.tasks for m in asked.get(task, _DETECTED)))


def _run_cell(config: SweepConfig, N: int, n: int, rho: float) -> list[SweepRecord]:
    """Execute every trial of one cell, sharing the cell's advantage."""
    cell_advantage = functools.cache(lambda: advantage(N, n, rho, config.D))
    return [
        record
        for trial in range(config.trials)
        for record in _run_unit(config, N, n, rho, trial, cell_advantage)
    ]


def _run_unit(
    config: SweepConfig, N: int, n: int, rho: float, trial: int, cell_advantage
) -> list[SweepRecord]:
    """Execute all tasks for one (cell, trial) unit; never raises.

    Shared work is done by the first task that needs it and is charged to that
    task's elapsed_ms, so a unit's rows sum to its wall time.
    """
    seed = SeedSpec(config.seed, stream_for_cell(N, n, rho, trial))
    estimate = estimator(N, n, rho, seed, _instances(config))

    def run_task(task: str) -> dict:
        if task == "recover":
            result, truth = estimate(config.model)
            report = recover(config.model, result, truth, rho)
            return dict(
                success=bool(report.exact_match),
                l2_error=report.l2_error,
                entrywise_max_weighted=report.entrywise_max_weighted,
                statistic_value=result.leading_value,
            )
        if task == "advantage":
            return dict(success=True, adv=cell_advantage().adv)
        null_out, planted_out = detect(task.removeprefix("detect_"), estimate, rho)
        return dict(
            success=(null_out.decision == "null" and planted_out.decision == "planted"),
            statistic_value=planted_out.statistic_value,
        )

    records = []
    for task in config.tasks:
        start = time.perf_counter()
        try:
            fields = run_task(task)
        except Exception as exc:
            log.warning(
                "cell N=%d n=%d rho=%g trial=%d task=%s failed: %s: %s",
                N, n, rho, trial, task, type(exc).__name__, exc,
                exc_info=not isinstance(exc, ValueError),
            )
            fields = dict(success=False)
        records.append(
            SweepRecord(N, n, rho, trial, task, **fields, elapsed_ms=_elapsed(config, start))
        )
    return records


def _elapsed(config: SweepConfig, start: float) -> float | None:
    if not config.collect_timing:
        return None
    return (time.perf_counter() - start) * 1000.0


def run_sweep(config: SweepConfig, workers: int = 1) -> list[SweepRecord]:
    """Run every (cell, trial, task) unit and return records in deterministic
    cell order, independent of worker count.  A cell is the unit of work; with
    workers >= 2 cells run on that many threads of this process (numpy's
    generators, BLAS and LAPACK release the GIL, and every unit has its own
    stream).  A workers that is not an integer >= 1 (a bool included)
    raises ValueError.  The sweep runs under one BLAS thread, whatever the
    environment asks for, so its bytes do not depend on the BLAS thread
    count and workers do not oversubscribe the cores; the caller's count is
    restored on return.  With workers >= 2 the sweep holds
    `pvlab._blas.taken` while its pool runs, so no cell thread hands a piece
    to the products' worker.  It takes the lock once any piece another
    thread has out is done, and it is never called from inside a piece,
    whose caller holds the lock.

    Each thread samples its units' instances into its own reused buffer
    (`detection.estimate_instance`).  The calling thread's outlives this
    call, so later sweeps in the process reuse it instead of freeing and
    reallocating N x n arrays; a pool thread's goes with the pool.  A sweep
    whose tasks sample nothing (`advantage` only) allocates none.  With
    workers=1, a sweep whose units ask for two distinct instances (see
    `detection.estimator`) first sizes the buffer to its largest cell's
    N x n, so the units of every cell of at most half that size have room
    to sample their two side by side.

    Per-unit failures (degenerate draws, or any other exception) are logged
    and recorded with success=False and empty values; they never abort the
    sweep.
    """
    _check_integer("workers", workers, 1)
    cells = config.cells()
    with _blas.one_blas_thread():
        if workers == 1:  # on this thread: a pool thread's own malloc arena raises peak RSS
            if len(_instances(config)) == 2:  # room for the smaller cells' units to pair
                # A size numpy cannot address raises ValueError; the cell's units record either.
                with contextlib.suppress(MemoryError, ValueError):
                    _sample_buffer(*max(cells, key=lambda cell: cell[0] * cell[1])[:2])
            batches = [_run_cell(config, *cell) for cell in cells]
        else:
            # Cell threads fill the cores, so their pieces stay on them.
            with _blas.taken, ThreadPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(lambda cell: _run_cell(config, *cell), cells))
    return [record for batch in batches for record in batch]


def _format_value(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def records_to_csv(records: list[SweepRecord]) -> str:
    """Render records under the fixed header; None fields are left empty."""
    lines = [CSV_HEADER]
    for r in records:
        values = (r.l2_error, r.entrywise_max_weighted, r.statistic_value, r.adv, r.elapsed_ms)
        fields = [str(r.N), str(r.n), repr(float(r.rho)), str(r.trial), r.task]
        fields.append("1" if r.success else "0")
        fields += [_format_value(x) for x in values]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CellSummary:
    """Per-cell aggregate over trials.  Rows whose task raised (`errors` of
    the `trials`) count in neither the rate nor the means; with no completed
    row the rate and its interval are None."""

    N: int
    n: int
    rho: float
    task: str
    trials: int
    errors: int
    success_rate: float | None
    wilson_low: float | None
    wilson_high: float | None
    mean_l2: float | None
    se_l2: float | None
    mean_entrywise: float | None


def _wilson(successes: int, total: int, z: float = 1.959963984540054) -> tuple[float, float]:
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return center - half, center + half


def _raised(r: SweepRecord) -> bool:
    """An error row: every task that completes fills at least one value."""
    values = (r.l2_error, r.entrywise_max_weighted, r.statistic_value, r.adv)
    return all(x is None for x in values)


def summarize(records: list[SweepRecord]) -> list[CellSummary]:
    """Group records by (N, n, rho, task): success rates with Wilson 95%
    intervals plus mean errors and their standard errors, over the rows whose
    task completed."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple, list[SweepRecord]] = {}
    for r in records:
        groups.setdefault((r.N, r.n, r.rho, r.task), []).append(r)
    out = []
    for key, rows in groups.items():
        done = [r for r in rows if not _raised(r)]
        wins = sum(1 for r in done if r.success)
        low, high = _wilson(wins, len(done)) if done else (None, None)
        l2s = [r.l2_error for r in done if r.l2_error is not None]
        ews = [r.entrywise_max_weighted for r in done if r.entrywise_max_weighted is not None]
        mean_l2 = sum(l2s) / len(l2s) if l2s else None
        se_l2 = None
        if len(l2s) > 1:
            var = sum((x - mean_l2) ** 2 for x in l2s) / (len(l2s) - 1)
            se_l2 = math.sqrt(var / len(l2s))
        out.append(
            CellSummary(
                N=key[0], n=key[1], rho=key[2], task=key[3],
                trials=len(rows),
                errors=len(rows) - len(done),
                success_rate=wins / len(done) if done else None,
                wilson_low=low,
                wilson_high=high,
                mean_l2=mean_l2,
                se_l2=se_l2,
                mean_entrywise=sum(ews) / len(ews) if ews else None,
            )
        )
    return out
