"""The benchmark's workloads: `pvlab sweep` grids whose master seed is the
benchmark's --seed.

Each workload stresses a different layer, so an optimisation of one layer has
one workload that exercises it and others on which the prediction is no change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Reference outputs are committed for this master seed.
DEFAULT_SEED = 0

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


@dataclass(frozen=True)
class Workload:
    """A sweep grid (the `pvlab sweep` config keys other than `seed` and
    `out`) plus how the benchmark reports it.

    `tail_percentile` is fixed per workload, so that a faster commit is scored
    at the same percentile as its parent; at the seed state one run has at
    least ten unit executions beyond it.  `probe` is an extra sweep run once
    by the traced run; its units count in `harness.failed_frac`.
    """

    name: str
    grid: dict
    tail_percentile: int = 95
    reference: Path | None = None
    probe: "Workload | None" = None

    def write_config(self, path: Path, seed: int) -> Path:
        path.write_text(json.dumps({**self.grid, "seed": seed}))
        return path

    def sweep_config(self):
        """The grid as pvlab itself reads it, so units and cells follow
        pvlab's rules (defaults, skipped n > N cells)."""
        from pvlab import harness  # importable only once run.py has put src/ on the path

        return harness.SweepConfig(**self.grid)

    @property
    def tasks(self) -> tuple[str, ...]:
        return tuple(self.sweep_config().tasks)

    def units(self) -> list[tuple[int, int, float, int]]:
        """Every (N, n, rho, trial) unit the sweep attempts, in sweep order."""
        config = self.sweep_config()
        return [(N, n, float(rho), trial) for N, n, rho in config.cells() for trial in range(config.trials)]

    def cells(self) -> int:
        return len(self.sweep_config().cells())


# The documented overflow input: advantage() raises OverflowError here, which
# today escapes run_sweep and fails the whole sweep.
OVERFLOW_PROBE = Workload(
    "overflow_probe",
    {"Ns": [10000], "ns": [20], "rhos": [1e-6], "trials": 2, "tasks": ["advantage"], "D": 128},
)

WORKLOADS = {
    w.name: w
    for w in (
        # Main trial path: Gaussian draws in model_gen, then spectral and
        # detection.  Each unit samples 5 instances (2 distinct) and builds 5
        # statistics; working sets run from ~0.6 MB (fits L2) to ~8 MB.
        Workload(
            "gauss_all_tasks",
            {
                "Ns": [4000, 10000], "ns": [20, 100], "rhos": [0.02, 0.2],
                "trials": 8, "model": "gaussian",
                "tasks": ["recover", "detect_spectral", "detect_l1l2"],
            },
            reference=REFERENCE_DIR / "gauss_all_tasks.csv",
        ),
        # Householder orthonormalize dominates each 64 MB 40000x200 instance;
        # one task and one instance per unit, and never run by the other two.
        Workload(
            "orth_recover_large",
            {
                "Ns": [40000], "ns": [100, 200], "rhos": [0.01, 0.05],
                "trials": 1, "model": "orth", "tasks": ["recover"],
            },
            tail_percentile=60,
            reference=REFERENCE_DIR / "orth_recover_large.csv",
        ),
        # Nearly all time is the lowdeg DP, recomputed on every trial;
        # model_gen and spectral do no work here.
        Workload(
            "advantage_table",
            {
                "Ns": [10000, 1000000], "ns": [20, 1000], "rhos": [0.01, 0.1],
                "trials": 2, "tasks": ["advantage"], "D": 64,
            },
            reference=REFERENCE_DIR / "advantage_table.csv",
            probe=OVERFLOW_PROBE,
        ),
    )
}
