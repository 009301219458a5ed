"""Mutation catalog: tier-1 must fail on every named one-line mutation.

Each mutation is an exact anchor string in one file, its replacement, and
the tests expected to catch it: a test file, or one test's node id.  The
script copies the repository to a temporary directory and first runs each
named test there, alone, on the unmutated code: every one must pass, so
that a failure that comes only from running a test alone cannot count as a
catch.  Then it applies one mutation at a time, runs the named test with
`-x`, and only if that passes runs the whole tier-1 suite with `-x`; it
restores the file after each and never writes to the checkout.  A mutant
is caught when either run fails, and the named test is part of tier-1, so
the verdict is tier-1's.  A mutant that survives must be listed, with the
reason, in EXPECTED_SURVIVORS.

Run from anywhere:

    python tools/mutants.py

Exits 1 if an anchor does not occur exactly once, if a named test fails
on the unmutated code, if a mutant survives that is not listed, or if
a listed survivor is caught (the entry is stale).
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

# name: (file, anchor, replacement, test file or node id expected to catch it)
MUTATIONS = {
    "drop the -(3/N) I centering": (
        "src/pvlab/spectral.py",
        "M -= (3.0 / N) * np.eye(n)",
        "M -= 0.0 * np.eye(n)",
        "tests/test_acceptance.py",
    ),
    "(n-1)/N -> n/N in the row weights": (
        "src/pvlab/spectral.py",
        "- (rows.shape[1] - 1) / N",
        "- rows.shape[1] / N",
        "tests/test_spectral.py",
    ),
    "gaussian rule threshold 0.5 -> 0.45": (
        "src/pvlab/spectral.py",
        "np.abs(raw) >= 0.5 * magnitude",
        "np.abs(raw) >= 0.45 * magnitude",
        "tests/test_spectral.py",
    ),
    "eigenvalue tie-break flipped": (
        "src/pvlab/spectral.py",
        "idx = -1 if abs(hi) >= abs(lo) else 0",
        "idx = -1 if abs(hi) > abs(lo) else 0",
        "tests/test_spectral.py",
    ),
    ">= -> > in l1l2_test": (
        "src/pvlab/detection.py",
        '"planted" if deviation >= threshold else "null"',
        '"planted" if deviation > threshold else "null"',
        "tests/test_detection.py",
    ),
    "6*N*rho -> 8*N*rho in the spectral threshold": (
        "src/pvlab/detection.py",
        "c1 / (6.0 * N * rho)",
        "c1 / (8.0 * N * rho)",
        "tests/test_detection.py",
    ),
    "Hermite recurrence off by one": (
        "src/pvlab/lowdeg.py",
        "(z * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)",
        "(z * cur - math.sqrt(k + 1) * prev) / math.sqrt(k + 1)",
        "tests/test_lowdeg.py",
    ),
    "stream hash key changed": (
        "src/pvlab/harness.py",
        "blake2b(payload, digest_size=8)",
        'blake2b(payload, digest_size=8, key=b"pvlab")',
        "tests/test_harness.py",
    ),
    "stream hash through hashlib": (
        "src/pvlab/harness.py",
        "from _blake2 import blake2b",
        "from hashlib import blake2b",
        "tests/test_harness.py::TestStreamDerivation::test_an_advantage_run_maps_no_openssl",
    ),
    "lgamma log-binomial at every N": (
        "src/pvlab/lowdeg.py",
        "    if N > 2**21:\n        return math.log(math.comb(N, m))\n",
        "",
        "tests/test_lowdeg.py::TestAdvantage::test_large_N_matches_the_exact_binomial_sum",
    ),
    "Haar R-diagonal sign fix dropped": (
        "src/pvlab/model_gen.py",
        "    signs[signs == 0.0] = 1.0\n    return Q * signs",
        "    signs[signs == 0.0] = 1.0\n    return Q",
        "tests/test_model_gen.py",
    ),
    "zero-vector check in _br_from_rng removed": (
        "src/pvlab/model_gen.py",
        "    if not entries.any():\n        raise DegenerateDrawError(",
        "    if False:\n        raise DegenerateDrawError(",
        "tests/test_model_gen.py",
    ),
    "_sample_buffer hands out the old buffer after it grows": (
        "src/pvlab/detection.py",
        "        _this_thread.buffer = buffer = np.empty(N * n)",
        "        _this_thread.buffer = np.empty(N * n)",
        "tests/test_buffer.py",
    ),
    "gram drops the second piece's sum": (
        "src/pvlab/_blas.py",
        "return sums[0] + sums[1]",
        "return sums[0]",
        "tests/test_threads.py::test_blocked_statistic_equals_one_call",
    ),
    "gram sums both pieces into one accumulator": (
        "src/pvlab/_blas.py",
        "sums[int(a >= split)] +=",
        "sums[0] +=",
        "tests/test_threads.py::test_split_products_equal_one_call",
    ),
    "a block behind the draw waits for its first row, not its last": (
        "src/pvlab/_blas.py",
        "while final < b:",
        "while final < a + 1:",
        "tests/test_threads.py::test_no_block_is_read_before_its_rows_are_drawn",
    ),
    "side_by_side raises the caller's error without waiting for the worker piece": (
        "src/pvlab/_blas.py",
        "        except BaseException:\n            futures.wait([pending])\n            raise",
        "        except BaseException:\n            raise",
        "tests/test_threads.py::TestWorkerFailures::test_caller_exception_waits_for_the_worker_piece",
    ),
    "orth Gram overflow no longer silenced": (
        "src/pvlab/model_gen.py",
        '    with np.errstate(over="ignore", invalid="ignore"):\n        G = _blas.gram(Y)',
        "    if True:\n        G = _blas.gram(Y)",
        "tests/test_model_gen.py",
    ),
    "worker piece runs without the caller's context": (
        "src/pvlab/_blas.py",
        "submit(contextvars.copy_context().run, second)",
        "submit(second)",
        "tests/test_threads.py::TestWorkerFailures::test_caller_error_state_applies_to_the_worker_piece",
    ),
    "cell threads hand their pieces to the worker": (
        "src/pvlab/harness.py",
        "with _blas.taken, ThreadPoolExecutor(",
        "with ThreadPoolExecutor(",
        "tests/test_threads.py::test_sweep_cell_threads_keep_their_pieces",
    ),
    "side_by_side never releases taken": (
        "src/pvlab/_blas.py",
        "    finally:\n        taken.release()",
        "    finally:\n        pass",
        "tests/test_threads.py::TestWorkerFailures::test_worker_exception_reaches_the_caller_and_the_worker_recovers",
    ),
    "fork hook not registered": (
        "src/pvlab/_blas.py",
        "os.register_at_fork(after_in_child=_forget_worker)",
        "",
        "tests/test_threads.py::test_a_forked_child_hands_its_pieces_to_a_worker_of_its_own",
    ),
    "fork hook leaves taken held": (
        "src/pvlab/_blas.py",
        "    _worker = None\n    taken = threading.Lock()",
        "    _worker = None",
        "tests/test_threads.py::test_a_forked_child_hands_its_pieces_to_a_worker_of_its_own",
    ),
    "split at the first inner edge": (
        "src/pvlab/_blas.py",
        "    return min(range(1, len(edges) - 1), key=lambda i: abs(2 * edges[i] - edges[-1]), default=0)",
        "    return 1 if len(edges) > 2 else 0",
        "tests/test_threads.py::test_split_products_equal_one_call",
    ),
    "row blocks of twice the rows": (
        "src/pvlab/_blas.py",
        "** 2)) * 1024",
        "** 2)) * 2048",
        "tests/test_threads.py::test_split_products_equal_one_call",
    ),
    "a pair samples into a buffer without room for two": (
        "src/pvlab/detection.py",
        "    if buffer is None or buffer.size < 2 * N * n:",
        "    if buffer is None:",
        "tests/test_threads.py::test_pairing_never_grows_the_buffer",
    ),
    "both pieces of a pair sample into the same half": (
        "src/pvlab/detection.py",
        "buffer[N * n : 2 * N * n].reshape(N, n)",
        "buffer[: N * n].reshape(N, n)",
        "tests/test_threads.py::test_pairing_never_grows_the_buffer",
    ),
    "_check_integer accepts a bool": (
        "src/pvlab/_domain.py",
        "        or isinstance(value, bool)\n",
        "",
        "tests/test_model_gen.py",
    ),
    "_check_rho accepts 0": (
        "src/pvlab/_domain.py",
        "not 0 < rho <= 1",
        "not 0 <= rho <= 1",
        "tests/test_detection.py",
    ),
}

# name: why tier-1 cannot catch it
EXPECTED_SURVIVORS: dict[str, str] = {}


def check_anchors() -> list[str]:
    """One message per mutation whose anchor does not occur exactly once."""
    problems = []
    for name, (path, anchor, _, _) in MUTATIONS.items():
        count = (ROOT / path).read_text().count(anchor)
        if count != 1:
            problems.append(f"{name}: anchor occurs {count} times in {path}")
    return problems


def run_suite(copy: Path, *args: str) -> tuple[bool, str]:
    """(failed, last line of the output) for tier-1 with -x, given args."""
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [*TIER1, *args], cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode != 0, lines[-1] if lines else f"exit {done.returncode}"


def run_mutant(copy: Path, name: str) -> tuple[bool, float, str]:
    """(caught, seconds, which run caught it and its last line) for one
    mutant: its named test first, then tier-1 if that test passes."""
    path, anchor, replacement, named = MUTATIONS[name]
    target = copy / path
    original = target.read_text()
    target.write_text(original.replace(anchor, replacement))
    start = time.perf_counter()
    try:
        caught, last = run_suite(copy, named)
        where = named
        if not caught:
            caught, last = run_suite(copy)
            where = "tier-1"
    finally:
        target.write_text(original)
    return caught, time.perf_counter() - start, f"{where}: {last}"


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
        for named in sorted({entry[3] for entry in MUTATIONS.values()}):
            failed, last = run_suite(copy, named)
            print(f"{'FAILS' if failed else 'passes':>9}  unmutated  {named}  [{last}]", flush=True)
            if failed:
                failures.append(named)
        if failures:
            print("a named test fails on the unmutated code")
            return 1
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
