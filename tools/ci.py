"""The CI test steps, in order, each in its own environment, with one table.

Every step runs from the repository root with `src` on PYTHONPATH and
`OPENBLAS_NUM_THREADS=1`, as the CI job sets it, and changes only what its
step changes: three steps unset the count, two pin the process to CPU 0
(`taskset -c 0`), and one selects the Haswell kernels.  The workflow
(`.github/workflows/tests.yml`) runs this script, so the steps have one
source; installing the package and the console-script checks stay in the
workflow.

    python tools/ci.py

Each step's output is printed as it runs, then one table of each step's
result and time.  Exits 1 if any step fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PYTEST = [sys.executable, "-m", "pytest", "-q"]
PLACEMENT = ["tests/test_threads.py", "tests/test_buffer.py"]
MEMORY = ["tests/test_detection.py::TestMemoryBudget", *PLACEMENT]

# key: (description, command, environment variables unset, set, on CPU 0 only)
STEPS = {
    "tier1": (
        "Tier-1 tests",
        [*PYTEST, "--continue-on-collection-errors"], (), {}, False,
    ),
    "references-threads": (
        "Reference bytes under the default BLAS threading",
        [*PYTEST, "tests/test_references.py"], ("OPENBLAS_NUM_THREADS",), {}, False,
    ),
    "placement": (
        "Memory budgets, sample buffers and thread placement with the pieces in order",
        [*PYTEST, *MEMORY], ("OPENBLAS_NUM_THREADS",), {}, False,
    ),
    "placement-one-cpu": (
        "Memory budgets, sample buffers and thread placement on one CPU",
        [*PYTEST, *MEMORY], ("OPENBLAS_NUM_THREADS",), {}, True,
    ),
    "placement-haswell": (
        "Thread placement and sample buffers on the Haswell kernels",
        [*PYTEST, *PLACEMENT], (), {"OPENBLAS_CORETYPE": "Haswell"}, False,
    ),
    "references-one-cpu": (
        "Reference bytes on one CPU",
        [*PYTEST, "tests/test_references.py"], (), {}, True,
    ),
    "mutants": (
        "Mutation catalog",
        [sys.executable, "tools/mutants.py"], (), {}, False,
    ),
    "smoke-orth": (
        "Benchmark smoke test, orth workload",
        [*PYTEST, "bench/test_smoke.py", "-k", "orth_recover_large"], (), {}, False,
    ),
    "smoke": (
        "Benchmark smoke test",
        [*PYTEST, "bench/test_smoke.py"], (), {}, False,
    ),
}


def run_step(key: str) -> tuple[bool, float]:
    """(passed, seconds) for one step, its output going to this process's."""
    _, command, unset, set_, one_cpu = STEPS[key]
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath, **set_)
    for name in unset:
        env.pop(name, None)
    if one_cpu:
        command = ["taskset", "-c", "0", *command]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=env)
    return done.returncode == 0, time.perf_counter() - start


def main() -> int:
    results = []
    for key in STEPS:
        print(f"== {key}: {STEPS[key][0]}", flush=True)
        results.append((key, *run_step(key)))
    width = max(len(key) for key, _, _ in results)
    print(f"\n{'step':<{width}}  result  seconds")
    for key, passed, seconds in results:
        print(f"{key:<{width}}  {'pass' if passed else 'FAIL':<6}  {seconds:7.1f}")
    return 0 if all(passed for _, passed, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
