"""Command-line interface: pvlab gen | estimate | detect | advantage | sweep."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import sys

from . import harness
from ._blas import one_blas_thread
from .detection import DEFAULT_C1, error_rates, recover, sample_observation
from .lowdeg import advantage
from .model_gen import SeedSpec, dump_instance
from .spectral import estimate_direction


def _add_cell_flags(p: argparse.ArgumentParser, seed=True, stream=False) -> None:
    """--N, --n and --rho, plus --seed and --stream where the command draws."""
    p.add_argument("--N", type=int, required=True, help="ambient dimension")
    p.add_argument("--n", type=int, required=True, help="subspace dimension")
    p.add_argument("--rho", type=float, required=True, help="sparsity in (0, 1]")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="master seed")
    if stream:
        p.add_argument("--stream", type=int, default=0, help="stream index (trial number)")


def _output(path: str | None):
    """The file at `path` opened for writing, or stdout (left open) if None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _cmd_gen(args) -> int:
    seed = SeedSpec(args.seed, args.stream)
    Y, _ = sample_observation(args.model, args.N, args.n, args.rho, seed)
    with _output(args.out) as f:
        dump_instance(Y, args.model, args.rho, seed, f)
    return 0


def _cmd_estimate(args) -> int:
    seed = SeedSpec(args.seed, args.stream)
    Y, v = sample_observation(args.model, args.N, args.n, args.rho, seed)
    result = estimate_direction(Y, centered=not args.uncentered)
    report = recover(args.model, result, v, args.rho)
    if args.dump_estimate is not None:  # written first, so a bad path prints no result
        with open(args.dump_estimate, "w") as f:
            f.write("\n".join(repr(float(x)) for x in result.raw_estimate) + "\n")
    print(
        f"lambda={result.leading_value:.6e} gap={result.gap:.6e} "
        f"l2_error={report.l2_error:.6e} "
        f"entrywise_max_weighted={report.entrywise_max_weighted:.6e} "
        f"exact_match={int(bool(report.exact_match))}"
    )
    return 0


def _cmd_detect(args) -> int:
    report = error_rates(
        args.N, args.n, args.rho, args.c1, args.trials, args.test, SeedSpec(args.seed)
    )
    if args.csv is not None:  # written first, so a bad path prints no result
        row = (
            f"{args.N},{args.n},{args.rho!r},{args.c1!r},{args.test},"
            f"{args.trials},{report.type_I!r},{report.type_II!r}\n"
        )
        with open(args.csv, "a") as f:
            f.write(row)
    print(
        f"N={args.N} n={args.n} rho={args.rho} c1={args.c1} test={args.test} "
        f"trials={args.trials} type_I={report.type_I:.4f} type_II={report.type_II:.4f}"
    )
    return 0


def _cmd_advantage(args) -> int:
    breakdown = advantage(args.N, args.n, args.rho, args.D)
    print(
        f"adv={breakdown.adv:.12g} adv_squared={breakdown.adv_squared:.12g} "
        f"log_adv_squared={breakdown.log_adv_squared:.12g}"
    )
    if args.breakdown:
        print("d,sphere_moment,alpha_sum,contribution")
        for row in breakdown.per_degree:
            print(f"{row.d},{row.sphere_moment!r},{row.alpha_sum!r},{row.contribution!r}")
    return 0


def _cmd_sweep(args) -> int:
    config = harness.SweepConfig.from_json(args.config)
    if args.timing:
        config = dataclasses.replace(config, collect_timing=True)
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    with _output(config.out) as f:  # opened before the first unit runs
        records = harness.run_sweep(config, workers=args.workers)
        f.write(harness.records_to_csv(records))
    if args.summary:
        for cell in harness.summarize(records):
            line = f"N={cell.N} n={cell.n} rho={cell.rho} task={cell.task}"
            if cell.success_rate is not None:
                line += (
                    f" rate={cell.success_rate:.3f}"
                    f" wilson95=[{cell.wilson_low:.3f},{cell.wilson_high:.3f}]"
                )
            line += f" errors={cell.errors}"
            for name in ("mean_l2", "se_l2", "mean_entrywise"):
                if getattr(cell, name) is not None:
                    line += f" {name}={getattr(cell, name):.4g}"
            print(line, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvlab",
        description="Planted vector in a random subspace: generation, spectral "
        "recovery, detection tests, and exact low-degree advantage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance and dump it as CSV")
    _add_cell_flags(p, stream=True)
    p.add_argument("--model", choices=["gaussian", "orth", "null"], default="gaussian")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("estimate", help="run the spectral estimator on a fresh instance")
    _add_cell_flags(p, stream=True)
    p.add_argument("--model", choices=["gaussian", "orth"], default="gaussian")
    p.add_argument("--uncentered", action="store_true",
                   help="drop the -(3/N) I centering term (comparison variant)")
    p.add_argument("--dump-estimate", default=None, help="write the raw estimate as CSV")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("detect", help="estimate detection error rates")
    _add_cell_flags(p)
    p.add_argument("--c1", type=float, default=DEFAULT_C1)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--test", choices=["spectral", "l1l2"], default="spectral")
    p.add_argument("--csv", default=None, help="append a result row to this CSV file")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("advantage", help="exact degree-D advantage")
    _add_cell_flags(p, seed=False)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--breakdown", action="store_true", help="print per-degree CSV")
    p.set_defaults(func=_cmd_advantage)

    p = sub.add_parser("sweep", help="run a (N, n, rho) grid sweep from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--workers", type=int, default=1, help="threads running cells (>= 1)")
    p.add_argument("--summary", action="store_true", help="print per-cell summary to stderr")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock per unit (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():  # output bytes must not depend on the BLAS thread count
            return args.func(args)
    except (ValueError, OSError) as exc:  # e.g. n > N, a bad config, or an unopenable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
