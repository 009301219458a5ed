"""Runs one workload through `pvlab.cli.main` and turns its output into the
benchmark's metrics.

Every sweep runs serially in this one process (`workers=1`).  The untraced run
gives the end-to-end metrics; the traced run repeats the same sweeps with
spans around pvlab's public functions and adds the layer microbenchmarks.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pvlab
from pvlab import cli, detection, harness, lowdeg, model_gen, spectral

import layers
import outputs
from tracer import Tracer
from workloads import DEFAULT_SEED, Workload

PVLAB_MODULES = {
    "cli": cli, "harness": harness, "model_gen": model_gen,
    "spectral": spectral, "detection": detection, "lowdeg": lowdeg,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "completed_frac": "frac",
    "success_rate": "frac",
}

# Set-up is measured in fresh processes spawned between the sweeps, spread
# evenly over the run so that their median spans it; a first spawn before the
# sweeps also compiles bytecode and is not counted.
SETUP_SPAWNS = 7
# The child runs `pvlab sweep` on the workload's config through cli.main, so
# set-up covers whatever cli and harness do before the first unit; the first
# call into model_gen or lowdeg (a unit's first work) prints the time and ends
# the process.
SETUP_CHILD = """
import os, sys, time
sys.path[:0] = sys.argv[1:3]
from pvlab import cli, detection, harness, lowdeg, model_gen, spectral
from tracer import replace_everywhere

def first_unit(*args, **kwargs):
    print(repr(time.time()), flush=True)
    os._exit(0)

modules = {m.__name__: m for m in (cli, detection, harness, lowdeg, model_gen, spectral)}
for module in (model_gen, lowdeg):
    for value in list(vars(module).values()):
        if callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) == module.__name__:
            replace_everywhere(modules, value, first_unit)
cli.main(["sweep", "--config", sys.argv[3], "--timing"])
sys.exit("the sweep made no call into model_gen or lowdeg")
"""

SELF_TIMED = (
    "model_gen.sample_rotated_instance",
    "model_gen.sample_detection_pair.null",
    "detection.spectral_norm_test",
    "detection.detect_via_estimation",
    "model_gen.sample_orthonormal_instance",
    "model_gen.orthonormalize",
    "spectral.build_statistic",
    "spectral.leading_eigenpair",
    "spectral.estimate_direction",
    "spectral.recover_rule",
    "spectral.score",
    "lowdeg.advantage",
)

INSTANCE_SAMPLERS = {
    "model_gen.sample_rotated_instance",
    "model_gen.sample_orthonormal_instance",
    "model_gen.sample_detection_pair.null",
    "model_gen.sample_detection_pair.planted",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every metric the traced run reports."""
    units = {}
    for name in SELF_TIMED:
        units[name] = "ms"
        units[f"{name}.share"] = "frac"
    units.update({
        "harness.self_ms_per_unit": "ms",
        "cli.self_ms": "ms",
        "model_gen.instances_per_unit": "count",
        "spectral.statistics_per_unit": "count",
        "lowdeg.advantage_calls_per_cell": "count",
        "harness.error_rows": "count",
        "harness.failed_frac": "frac",
        "trace.overhead_frac": "frac",
    })
    units.update(layers.metric_units())
    return units


@dataclass
class Pass:
    """One `pvlab sweep` invocation."""

    wall_s: float
    csv_text: str | None  # None when the sweep raised
    error: str | None = None
    rows: list[dict] | None = field(init=False)

    def __post_init__(self):
        self.rows = None if self.csv_text is None else outputs.parse_rows(self.csv_text)


def run_pass(config_path: Path, timing: bool = True) -> Pass:
    argv = ["sweep", "--config", str(config_path)] + (["--timing"] if timing else [])
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
    except Exception as exc:  # a sweep that raises fails all its units; the run goes on
        return Pass(time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    if status != 0:
        return Pass(wall, None, f"exit status {status}")
    return Pass(wall, out.getvalue())


def run_for(config_path: Path, seconds: float, between=None) -> list[Pass]:
    """Whole sweeps, back to back, until they have taken `seconds` (at least
    one).  `between(passes_so_far)` runs after each sweep, outside the
    measured time."""
    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(run_pass(config_path))
        if between is not None:
            between(passes)
    return passes


def setup_once(config_path: Path) -> float:
    """Seconds from spawning a `pvlab sweep` process until its first unit
    starts."""
    src = Path(pvlab.__file__).resolve().parent.parent
    bench = Path(__file__).resolve().parent
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(src), str(bench), str(config_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def tally(workload: Workload, passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) units over the passes."""
    units = workload.units()
    failed = sum(outputs.failed_units(p.rows, units, workload.tasks) for p in passes)
    return len(units) * len(passes), failed


def nearest_rank(values: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile by nearest rank, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: Workload, passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    attempted, failed = tally(workload, passes)
    per_unit: dict[tuple, list[float]] = defaultdict(list)
    rows = [r for p in passes for r in p.rows or []]
    for p in passes:
        for unit, ms in outputs.unit_times_ms(p.rows or []).items():
            per_unit[unit].append(ms)
    executions = [ms for times in per_unit.values() for ms in times]
    # Each unit repeats identical work in every pass, so its mean over passes
    # is its time; the median over units of those is robust to the gaps
    # between the grid's cell sizes.  A mean, not a median, over passes: on a
    # shared machine whole passes run in a fast or a slow phase, and a median
    # over passes jumps between the two when they come in near equal numbers.
    p50 = statistics.median(statistics.mean(t) for t in per_unit.values())
    tail, beyond = nearest_rank(executions, workload.tail_percentile)
    metrics = {
        "setup_s": setup_s,
        "units_per_s": (attempted - failed) / sum(p.wall_s for p in passes),
        "unit_ms_p50": p50,
        "unit_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": (attempted - failed) / attempted,
        "success_rate": sum(r["success"] == "1" for r in rows) / max(1, len(rows)),
    }
    info = {
        "unit_executions": len(executions),
        "tail_percentile": workload.tail_percentile,
        "tail_executions_beyond": beyond,
        "pass_seconds": [round(p.wall_s, 3) for p in passes],
        "failed_frac": failed / attempted,
    }
    return metrics, info


def check_outputs(workload: Workload, reference_pass: Pass, passes: list[Pass]) -> tuple[list[str], dict]:
    """Output check: the default-seed pass against the committed reference,
    and every measured pass against the first (same seed, same rows)."""
    issues = []
    info = {}
    if reference_pass.rows is None:
        issues.append(f"default-seed sweep failed: {reference_pass.error}")
    elif workload.reference is not None:
        if not workload.reference.is_file():
            issues.append(f"reference output {workload.reference.name} is missing")
        else:
            expected = workload.reference.read_text()
            issues += outputs.compare_to_reference(reference_pass.rows, outputs.parse_rows(expected))
            info["csv_byte_identical_to_reference"] = reference_pass.csv_text == expected
    first = next((outputs.without_timing(p.rows) for p in passes if p.rows is not None), None)
    if any(p.rows is not None and outputs.without_timing(p.rows) != first for p in passes):
        issues.append("repeated sweeps of one config gave different rows")
    return issues, info


@dataclass
class TracedRun:
    untraced: list[Pass]
    traced: list[Pass]
    tracer: Tracer
    probe: list[Pass]


def traced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> TracedRun:
    """Untraced sweeps for half the time, then as many traced sweeps, then the
    workload's probe sweep (untraced)."""
    config = workload.write_config(workdir / "sweep.json", seed)
    untraced = run_for(config, seconds / 2.0)
    tracer = Tracer()
    with tracer.patch(PVLAB_MODULES):
        traced = [run_pass(config) for _ in untraced]
    probe = []
    if workload.probe is not None:
        probe.append(run_pass(workload.probe.write_config(workdir / "probe.json", seed)))
    return TracedRun(untraced, traced, tracer, probe)


def untraced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> tuple[list[Pass], float]:
    """Sweeps for `seconds`, with set-up measured in processes spawned
    between them; returns the sweeps and the median set-up time."""
    config = workload.write_config(workdir / "sweep.json", seed)
    setup_once(config)
    setups: list[float] = []

    def spawn_when_due(passes: list[Pass]) -> None:
        if len(setups) < SETUP_SPAWNS * sum(p.wall_s for p in passes) / seconds:
            setups.append(setup_once(config))

    passes = run_for(config, seconds, between=spawn_when_due)
    while len(setups) < SETUP_SPAWNS:
        setups.append(setup_once(config))
    return passes, statistics.median(setups)


def per_layer(workload: Workload, run: TracedRun) -> dict[str, float]:
    spans = run.tracer.finished()
    traced_wall = sum(p.wall_s for p in run.traced)
    untraced_wall = sum(p.wall_s for p in run.untraced)
    units = len(workload.units()) * len(run.traced)
    cells = workload.cells() * len(run.traced)
    self_s: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        self_s[s.name].append(s.self_s)

    m: dict[str, float] = {}
    for name in SELF_TIMED:
        times = self_s.get(name, [])
        m[name] = statistics.median(times) * 1000.0 if times else 0.0
        m[f"{name}.share"] = sum(times) / traced_wall
    m["harness.self_ms_per_unit"] = sum(self_s["harness.run_sweep"]) * 1000.0 / units
    m["cli.self_ms"] = statistics.median(self_s["cli.main"]) * 1000.0
    outermost = [
        s for s in spans
        if s.name in INSTANCE_SAMPLERS and run.tracer.parent_name(s) not in INSTANCE_SAMPLERS
    ]
    m["model_gen.instances_per_unit"] = len(outermost) / units
    m["spectral.statistics_per_unit"] = len(self_s["spectral.build_statistic"]) / units
    m["lowdeg.advantage_calls_per_cell"] = len(self_s["lowdeg.advantage"]) / cells

    # One pass of the sweep plus the probe sweep, averaged over passes.
    sweeps = run.untraced + run.traced
    attempted, failed = tally(workload, sweeps)
    probe_attempted, probe_failed = tally(workload.probe, run.probe) if run.probe else (0, 0)
    m["harness.error_rows"] = (
        sum(outputs.error_rows(p.rows) for p in sweeps) / len(sweeps)
        + sum(outputs.error_rows(p.rows) for p in run.probe)
    )
    m["harness.failed_frac"] = (failed / len(sweeps) + probe_failed) / (
        attempted / len(sweeps) + probe_attempted
    )
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_version() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(root: Path, workload: Workload, seed: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "reference_seed": DEFAULT_SEED,
        "workers": 1,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": _blas_threads(),
        "pvlab": pvlab.__version__,
        "git_commit": _git_commit(root),
    }


def run_workload(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, dict]:
    """One benchmark run: returns the result object and the information lines
    (manifest, which percentile the tail is, the output check)."""
    info = {"manifest": manifest(root, workload, seed)}
    # The default-seed sweep is the output check and also warms caches.
    reference_pass = run_pass(workload.write_config(workdir / "reference.json", DEFAULT_SEED), timing=False)
    if trace:
        run = traced_run(workload, seed, seconds, workdir)
        passes = run.untraced + run.traced
        metrics = per_layer(workload, run)
        metrics.update(layers.measure(seed))
        units = per_layer_units()
        if run.probe:
            info["probe"] = [p.error or "completed" for p in run.probe]
    else:
        passes, setup_s = untraced_run(workload, seed, seconds, workdir)
        metrics, info["run"] = end_to_end(workload, passes, setup_s)
        units = END_TO_END_UNITS
    issues, info["check"] = check_outputs(workload, reference_pass, passes)
    info["check"]["issues"] = issues[:20] + ([f"... {len(issues) - 20} more"] if len(issues) > 20 else [])
    errors = sorted({p.error for p in passes if p.error})
    if errors:
        info["sweep_errors"] = errors
    attempted, failed = tally(workload, passes)
    result = {
        "correct": not issues,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info
