"""pvlab's benchmark: sweep throughput on three workloads, with a traced
per-layer breakdown.

    python3 bench/run.py --workload gauss_all_tasks --seed 3 --seconds 30 --trace 0

Run from anywhere; it benchmarks the pvlab source in `src/` next to this
directory.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer ones.  Information lines start with `#`; the last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

# One BLAS thread, set before numpy is first imported: with a thread per core,
# a core taken by another process stalls every BLAS call at its barrier.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
# Scratch space for generated sweep configs, inside the checkout.
WORK_DIR = ROOT / ".bench_build" / "pvlab-bench"


def use_checkout_source() -> None:
    """Import pvlab from the checkout's `src/`, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "pvlab" / "__init__.py").is_file():
        raise ImportError(f"no pvlab source under {src}")
    sys.path.insert(0, str(src))
    import pvlab

    if Path(pvlab.__file__).resolve().parent != (src / "pvlab").resolve():
        raise ImportError(f"pvlab was imported from {pvlab.__file__}, not {src}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master seed of the generated sweep config")
    p.add_argument("--seconds", type=float, required=True, help="measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import measure  # imports pvlab, so only after use_checkout_source

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        result, info = measure.run_workload(
            ROOT, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp)
        )
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
