"""Mutation catalog: tier-1 must fail on every named one-line mutation.

Each mutation is an exact anchor string in one file and its replacement.
The script copies the repository to a temporary directory, applies one
mutation at a time there, runs the tier-1 suite with `-x`, and restores the
file; it never writes to the checkout.  A mutant is caught when the suite
fails.  A mutant that survives must be listed, with the reason, in
EXPECTED_SURVIVORS.

Run from anywhere:

    python tools/mutants.py

Exits 1 if an anchor does not occur exactly once, if a mutant survives
that is not listed, or if a listed survivor is caught (the entry is stale).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TIMEOUT_S = 1800  # per mutant; a mutant that hangs the suite counts as caught

TIER1 = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
]

# name: (file, anchor, replacement)
MUTATIONS = {
    "drop the -(3/N) I centering": (
        "src/pvlab/spectral.py",
        "M -= (3.0 / N) * np.eye(n)",
        "M -= 0.0 * np.eye(n)",
    ),
    "(n-1)/N -> n/N in the row weights": (
        "src/pvlab/spectral.py",
        "- (rows.shape[1] - 1) / N",
        "- rows.shape[1] / N",
    ),
    "gaussian rule threshold 0.5 -> 0.45": (
        "src/pvlab/spectral.py",
        "np.abs(raw) >= 0.5 * magnitude",
        "np.abs(raw) >= 0.45 * magnitude",
    ),
    "eigenvalue tie-break flipped": (
        "src/pvlab/spectral.py",
        "idx = -1 if abs(hi) >= abs(lo) else 0",
        "idx = -1 if abs(hi) > abs(lo) else 0",
    ),
    ">= -> > in l1l2_test": (
        "src/pvlab/detection.py",
        '"planted" if deviation >= threshold else "null"',
        '"planted" if deviation > threshold else "null"',
    ),
    "6*N*rho -> 8*N*rho in the spectral threshold": (
        "src/pvlab/detection.py",
        "c1 / (6.0 * N * rho)",
        "c1 / (8.0 * N * rho)",
    ),
    "Hermite recurrence off by one": (
        "src/pvlab/lowdeg.py",
        "(z * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)",
        "(z * cur - math.sqrt(k + 1) * prev) / math.sqrt(k + 1)",
    ),
    "stream hash key changed": (
        "src/pvlab/harness.py",
        "hashlib.blake2b(payload, digest_size=8)",
        'hashlib.blake2b(payload, digest_size=8, key=b"pvlab")',
    ),
    "Haar R-diagonal sign fix dropped": (
        "src/pvlab/model_gen.py",
        "    signs[signs == 0.0] = 1.0\n    return Q * signs",
        "    signs[signs == 0.0] = 1.0\n    return Q",
    ),
    "zero-vector check in _br_from_rng removed": (
        "src/pvlab/model_gen.py",
        "    if not entries.any():\n        raise DegenerateDrawError(",
        "    if False:\n        raise DegenerateDrawError(",
    ),
    "_sample_buffer hands out the old buffer after it grows": (
        "src/pvlab/detection.py",
        "        _this_thread.buffer = buffer = np.empty(N * n)",
        "        _this_thread.buffer = np.empty(N * n)",
    ),
    "gram drops the second piece's sum": (
        "src/pvlab/_blas.py",
        "return sums[0] + sums[1]",
        "return sums[0]",
    ),
    "gram sums both pieces into one accumulator": (
        "src/pvlab/_blas.py",
        "sums[int(a >= split)] +=",
        "sums[0] +=",
    ),
    "a block behind the draw waits for its first row, not its last": (
        "src/pvlab/_blas.py",
        "while final < b:",
        "while final < a + 1:",
    ),
    "_on_two_threads raises the caller's error without waiting for the worker piece": (
        "src/pvlab/_blas.py",
        "    except BaseException:\n        futures.wait([pending])\n        raise",
        "    except BaseException:\n        raise",
    ),
    "orth Gram overflow no longer silenced": (
        "src/pvlab/model_gen.py",
        '    with np.errstate(over="ignore", invalid="ignore"):\n        G = _blas.gram(Y)',
        "    if True:\n        G = _blas.gram(Y)",
    ),
}

# name: why tier-1 cannot catch it
EXPECTED_SURVIVORS: dict[str, str] = {}


def check_anchors() -> list[str]:
    """One message per mutation whose anchor does not occur exactly once."""
    problems = []
    for name, (path, anchor, _) in MUTATIONS.items():
        count = (ROOT / path).read_text().count(anchor)
        if count != 1:
            problems.append(f"{name}: anchor occurs {count} times in {path}")
    return problems


def run_mutant(copy: Path, name: str) -> tuple[bool, float, str]:
    """(caught, seconds, last line of the suite's output) for one mutant."""
    path, anchor, replacement = MUTATIONS[name]
    target = copy / path
    original = target.read_text()
    target.write_text(original.replace(anchor, replacement))
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            TIER1, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
        caught, lines = done.returncode != 0, done.stdout.strip().splitlines()
        last = lines[-1] if lines else f"exit {done.returncode}"
    except subprocess.TimeoutExpired:
        caught, last = True, f"timed out after {TIMEOUT_S} s"
    finally:
        target.write_text(original)
    return caught, time.perf_counter() - start, last


def main() -> int:
    problems = check_anchors()
    if problems:
        print("\n".join(problems))
        return 1

    failures = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="pvlab-mutants-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"
            ),
        )
        for name in MUTATIONS:
            caught, seconds, last = run_mutant(copy, name)
            expected = name in EXPECTED_SURVIVORS
            if caught and expected:
                verdict = "CAUGHT, but listed in EXPECTED_SURVIVORS"
                failures.append(name)
            elif caught:
                verdict = "caught"
            elif expected:
                verdict = f"survived (expected: {EXPECTED_SURVIVORS[name]})"
            else:
                verdict = "SURVIVED"
                failures.append(name)
            print(f"{verdict:>9}  {seconds:6.1f} s  {name}  [{last}]", flush=True)
    print(f"{len(MUTATIONS)} mutants, {len(failures)} unexpected, {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
