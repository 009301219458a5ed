"""Tests for the sweep harness: determinism, record bookkeeping, summaries."""

import functools
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pvlab import _blas, cli, detection, harness, lowdeg, model_gen, spectral
from pvlab.detection import DEFAULT_C1, detect_via_estimation, error_rates, spectral_norm_test
from pvlab.harness import (
    CSV_HEADER,
    SweepConfig,
    SweepRecord,
    records_to_csv,
    run_sweep,
    stream_for_cell,
    summarize,
)
from pvlab.lowdeg import advantage
from pvlab.model_gen import (
    SeedSpec,
    sample_detection_pair,
    sample_orthonormal_instance,
    sample_rotated_instance,
)
from pvlab.spectral import (
    estimate_direction,
    recover_gaussian_rule,
    recover_orthonormal_rule,
    score,
)
from placing import blas_threads
from sampled import planted_support


def small_config(**overrides):
    base = dict(Ns=[200], ns=[4], rhos=[0.1], trials=3, tasks=("recover",), seed=5)
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "Ns": [100, 200],
                    "ns": [2, 4],
                    "rhos": [0.1, 0.5],
                    "trials": 7,
                    "model": "orth",
                    "tasks": ["recover", "advantage"],
                    "D": 6,
                    "seed": 42,
                    "out": "results.csv",
                }
            )
        )
        cfg = SweepConfig.from_json(str(path))
        assert cfg.Ns == [100, 200]
        assert cfg.model == "orth"
        assert cfg.tasks == ("recover", "advantage")
        assert cfg.D == 6
        assert cfg.out == "results.csv"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"Ns": [10], "ns": [2], "rhos": [0.5], "mode": "x"}))
        with pytest.raises(ValueError, match="unknown config keys"):
            SweepConfig.from_json(str(path))

    @pytest.mark.parametrize("text", ['"abc"', "[1, 2]", "5", "null"])
    def test_non_object_config_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="config must be a JSON object"):
            SweepConfig.from_json(str(path))

    def test_rho_floor_applies_only_to_advantage(self):
        assert small_config(rhos=[1e-7], tasks=("recover", "detect_l1l2")).rhos == [1e-7]

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"Ns": [10]}))
        with pytest.raises(ValueError, match="missing config keys"):
            SweepConfig.from_json(str(path))

    @pytest.mark.parametrize(
        "bad",
        [
            {"Ns": []},
            {"rhos": [0.0]},
            {"rhos": [1.5]},
            {"trials": 0},
            {"model": "fourier"},
            {"tasks": ("recover", "transmute")},
            {"seed": -1},
            {"D": -2},
            {"rhos": [1e-10, 2e-10]},
            {"seed": 1.5},
            {"seed": True},
            {"trials": 2.5},
            {"D": 8.0},
            {"Ns": [200.0]},
            {"ns": [4, "4"]},
            {"rhos": ["0.1"]},
            {"rhos": [True]},
            {"out": 7},
            {"out": 1},
            {"tasks": ()},
            {"tasks": ("recover", "recover")},
            {"Ns": [200, 200]},
            {"ns": [4, 4]},
            {"rhos": [0.1, 0.1]},
            {"Ns": 5},
            {"ns": 4},
            {"rhos": 0.5},
            {"tasks": None},
            {"tasks": [["recover"]]},
            {"Ns": [5], "ns": [10]},
            {"Ns": [3, 5], "ns": [6, 10]},
            {"rhos": [1e-7], "tasks": ("advantage", "recover")},
            {"rhos": [0.1, 5e-7], "tasks": ("advantage",)},
            {"out": ""},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"Ns": "200"}, "Ns must be a list"),
            ({"Ns": {"200": 1}}, "Ns must be a list"),
            ({"tasks": "recover"}, "tasks must be a list"),
        ],
    )
    def test_strings_and_mappings_are_not_lists(self, bad, match):
        # Each is iterable, so without the list check a later check would see
        # its characters or keys ("recover" as five unknown tasks).
        with pytest.raises(ValueError, match=match):
            small_config(**bad)

    def test_invalid_cells_skipped(self, caplog):
        cfg = small_config(Ns=[3, 200], ns=[4])
        with caplog.at_level("WARNING", logger="pvlab"):
            cells = cfg.cells()
        assert (3, 4, 0.1) not in cells
        assert (200, 4, 0.1) in cells
        assert any("skipping invalid cell" in m for m in caplog.messages)


class TestStreamDerivation:
    def test_stable_values(self):
        # frozen: grid edits must not reshuffle unrelated cells' randomness
        assert stream_for_cell(100, 5, 0.1, 0) == stream_for_cell(100, 5, 0.1, 0)
        assert stream_for_cell(100, 5, 0.1, 0) != stream_for_cell(100, 5, 0.1, 1)
        assert stream_for_cell(100, 5, 0.1, 0) != stream_for_cell(100, 6, 0.1, 0)

    def test_fixed_point_rho(self):
        assert stream_for_cell(10, 2, 0.1, 0) == stream_for_cell(10, 2, 0.1 + 1e-12, 0)
        assert stream_for_cell(10, 2, 0.1, 0) != stream_for_cell(10, 2, 0.2, 0)

    @pytest.mark.parametrize(
        "unit, stream",
        [
            ((100, 5, 0.1, 0), 15726997624763673958),
            ((10000, 100, 0.2, 7), 3158303982090623667),
            ((40000, 200, 0.05, 0), 15975107324010853077),
            ((1000000, 1000, 0.01, 1), 16589160779005914900),
        ],
    )
    def test_pinned_values(self, unit, stream):
        # BLAKE2b-8 of "N,n,rho_nano,trial", big-endian
        assert stream_for_cell(*unit) == stream

    def test_an_advantage_run_maps_no_openssl(self, tmp_path):
        # hashlib imports _hashlib, OpenSSL's libcrypto; the stream hash
        # needs only CPython's own _blake2, so `pvlab advantage` and an
        # advantage-only sweep must not load it
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"Ns": [10000], "ns": [20], "rhos": [0.01], "trials": 2,
                                      "D": 16, "tasks": ["advantage"],
                                      "out": str(tmp_path / "r.csv")}))
        code = (
            "import sys\n"
            "from pvlab import cli\n"
            "assert cli.main(['advantage', '--N', '10000', '--n', '20', '--rho', '0.01', '--D', '16']) == 0\n"
            f"assert cli.main(['sweep', '--config', {str(config)!r}]) == 0\n"
            "print('_hashlib' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 3


class TestRunSweep:
    def test_record_count(self):
        cfg = small_config(tasks=("recover", "detect_spectral", "advantage"))
        records = run_sweep(cfg)
        assert len(records) == 1 * 3 * 3

    def test_single_cell_single_trial(self):
        cfg = small_config(trials=1, tasks=("recover", "detect_l1l2"))
        records = run_sweep(cfg)
        assert len(records) == 2
        assert {r.task for r in records} == {"recover", "detect_l1l2"}

    def test_csv_determinism(self):
        cfg = small_config(tasks=("recover", "detect_spectral", "advantage"))
        a = records_to_csv(run_sweep(cfg))
        b = records_to_csv(run_sweep(cfg))
        assert a == b

    def test_worker_count_invariance(self):
        cfg = small_config(Ns=[200, 300], ns=[2, 4], rhos=[0.1, 0.3], trials=2, tasks=ALL_TASKS)
        serial = records_to_csv(run_sweep(cfg, workers=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the cells interleave
        try:
            for workers in (2, 8):  # one thread per cell: more threads than cores
                assert records_to_csv(run_sweep(cfg, workers=workers)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_serial_sweep_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must run on the calling thread")

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        assert len(run_sweep(small_config(), workers=1)) == 3

    @pytest.mark.parametrize("workers", [0, -1, 1.5, 2.0, "2", True, None])
    def test_rejects_a_worker_count_that_is_not_an_integer_of_at_least_one(
        self, workers, monkeypatch
    ):
        # 1.5 ran a pool of up to two threads, and "2" raised TypeError.
        def no_pool(*args, **kwargs):
            raise AssertionError("no pool may start for a bad worker count")

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run_sweep(small_config(), workers=workers)

    def test_accepts_a_numpy_integer_worker_count(self):
        assert run_sweep(small_config(), workers=np.int64(2)) == run_sweep(small_config())

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_grid_writes_the_plain_int_csv(self, dtype):
        # Numpy integers were refused; taken as they are, np.uint8 sizes would
        # wrap the sample buffer's N * n (200 * 4 -> 32).
        def grid(t):
            return small_config(
                Ns=[t(200), t(250)], ns=[t(2), t(4)], trials=t(2), D=t(8), seed=t(5), tasks=ALL_TASKS
            )

        assert records_to_csv(run_sweep(grid(dtype))) == records_to_csv(run_sweep(grid(int)))
        config = grid(dtype)
        sizes = [*config.Ns, *config.ns, config.trials, config.D, config.seed]
        assert all(type(size) is int for size in sizes)

    def test_header(self):
        cfg = small_config(trials=1)
        text = records_to_csv(run_sweep(cfg))
        assert text.splitlines()[0] == CSV_HEADER

    def test_degenerate_draws_recorded_not_fatal(self):
        # N * rho so small that normalized draws are often all-zero
        cfg = small_config(Ns=[3], ns=[1], rhos=[0.01], trials=40, model="orth")
        records = run_sweep(cfg)
        assert len(records) == 40
        assert any(not r.success for r in records)

    def test_all_zero_planted_vector_is_an_error_row(self):
        # At N * rho = 0.1 most gaussian draws plant v = 0, a pure-noise
        # instance: Y u would threshold to zeros, match v and read as exact
        # recovery, and the detection tasks would score noise as planted
        N, n, rho, trials = 50, 2, 0.002, 9
        records = run_sweep(small_config(Ns=[N], ns=[n], rhos=[rho], trials=trials, seed=0))
        zero = [
            not planted_support(N, rho, SeedSpec(0, stream_for_cell(N, n, rho, t))).any()
            for t in range(trials)
        ]
        assert zero.count(False) == 2  # trials 2 and 8
        assert [r.l2_error is None and not r.success for r in records] == zero
        (cell,) = summarize(records)
        assert cell.errors == 7 and cell.success_rate == 1.0

        tasks = ["recover", "detect_spectral", "detect_l1l2"]
        cfg = small_config(Ns=[N], ns=[n], rhos=[rho], trials=4, seed=0, tasks=tasks)
        assert zero[:4] == [True, True, False, True]
        assert records_to_csv(run_sweep(cfg)).splitlines()[1:] == [
            *(f"50,2,0.002,{t},{task},0,,,,," for t in (0, 1) for task in tasks),
            "50,2,0.002,2,recover,1,0.07491071565799604,0.2192064442724075,100.69761417773702,,",
            "50,2,0.002,2,detect_spectral,1,,,100.69761417773702,,",
            "50,2,0.002,2,detect_l1l2,1,,,4.513624892757086,,",
            *(f"50,2,0.002,3,{task},0,,,,," for task in tasks),
        ]

    def test_sweep_and_error_rates_run_the_same_trial(self):
        tasks = ("detect_spectral", "detect_l1l2")
        cfg = small_config(Ns=[100, 200], ns=[2, 8], rhos=[0.1, 0.3], trials=2, tasks=tasks)
        successes = []
        for r in run_sweep(cfg):
            seed = SeedSpec(cfg.seed, stream_for_cell(r.N, r.n, r.rho, r.trial))
            report = error_rates(r.N, r.n, r.rho, DEFAULT_C1, 1, r.task.removeprefix("detect_"), seed)
            assert (report.type_I == report.type_II == 0) == r.success
            successes.append(r.success)
        assert set(successes) == {False, True}  # both outcomes are compared

    def test_timing_column_empty_by_default(self):
        cfg = small_config(trials=1)
        line = records_to_csv(run_sweep(cfg)).splitlines()[1]
        assert line.endswith(",")

    def test_timing_opt_in(self):
        cfg = small_config(trials=1, collect_timing=True)
        rec = run_sweep(cfg)[0]
        assert rec.elapsed_ms is not None and rec.elapsed_ms >= 0.0


class TestBlasThreads:
    @pytest.mark.parametrize("workers", [1, 2, 0], ids=["serial", "threads", "bad_workers"])
    def test_sweep_runs_on_one_thread_and_restores_the_callers_count(self, workers, monkeypatch):
        seen = []
        real = detection.estimate_direction
        with blas_threads(2):
            get = _blas._thread_functions()[0]
            monkeypatch.setattr(
                detection, "estimate_direction", lambda Y, *a, **k: seen.append(get()) or real(Y, *a, **k)
            )
            if workers < 1:
                with pytest.raises(ValueError):
                    run_sweep(small_config(), workers=workers)
            else:
                run_sweep(small_config(), workers=workers)
                assert seen == [1] * 3
            assert get() == 2

    def test_unknown_blas_warns_once_and_sweeps(self, monkeypatch, tmp_path, caplog):
        no_libs = types.SimpleNamespace(__file__=str(tmp_path / "numpy" / "__init__.py"))
        monkeypatch.setattr(_blas, "np", no_libs)
        monkeypatch.setattr(
            _blas, "_thread_functions", functools.cache(_blas._thread_functions.__wrapped__)
        )
        cfg = small_config()
        with caplog.at_level("WARNING", logger="pvlab"):
            first, second = run_sweep(cfg), run_sweep(cfg)
        assert sum("BLAS thread count cannot be set" in m for m in caplog.messages) == 1
        assert first == second and len(first) == 3


def task_by_task(cfg):
    """The sweep's records rebuilt one task at a time from the public calls,
    sampling every instance afresh for each task."""
    records = []
    for N, n, rho in cfg.cells():
        for trial in range(cfg.trials):
            seed = SeedSpec(cfg.seed, stream_for_cell(N, n, rho, trial))
            for task in cfg.tasks:
                head = (N, n, rho, trial, task)
                if task == "recover":
                    if cfg.model == "orth":
                        obs, v = sample_orthonormal_instance(N, n, rho, seed)
                    else:
                        obs, v = sample_rotated_instance(N, n, rho, seed)
                    result = estimate_direction(obs)
                    if cfg.model == "orth":
                        rule = recover_orthonormal_rule(result.raw_estimate)
                    else:
                        rule = recover_gaussian_rule(result.raw_estimate, rho)
                    report = score(result.raw_estimate, v, rule)
                    records.append(SweepRecord(
                        *head, success=bool(report.exact_match),
                        l2_error=report.l2_error,
                        entrywise_max_weighted=report.entrywise_max_weighted,
                        statistic_value=result.leading_value,
                    ))
                elif task == "advantage":
                    records.append(
                        SweepRecord(*head, success=True, adv=advantage(N, n, rho, cfg.D).adv)
                    )
                else:
                    null, _ = sample_detection_pair(N, n, rho, seed, "null")
                    planted, _ = sample_detection_pair(N, n, rho, seed, "planted")
                    if task == "detect_spectral":
                        outs = [spectral_norm_test(obs, rho, DEFAULT_C1) for obs in (null, planted)]
                    else:
                        outs = [detect_via_estimation(obs, DEFAULT_C1) for obs in (null, planted)]
                    records.append(SweepRecord(
                        *head,
                        success=outs[0].decision == "null" and outs[1].decision == "planted",
                        statistic_value=outs[1].statistic_value,
                    ))
    return records


ALL_TASKS = ("recover", "detect_spectral", "detect_l1l2", "advantage")


class TestSharedPipeline:
    @pytest.mark.parametrize("model", ["gaussian", "orth"])
    def test_byte_identical_to_task_by_task(self, model):
        cfg = small_config(
            Ns=[300, 2000], ns=[4, 12], rhos=[0.02, 0.3], trials=2,
            model=model, tasks=ALL_TASKS,
        )
        text = records_to_csv(run_sweep(cfg))
        assert text == records_to_csv(task_by_task(cfg))
        # both outcomes occur, so the comparison covers both branches
        assert {line.split(",")[5] for line in text.splitlines()[1:]} == {"0", "1"}

    def test_each_instance_sampled_and_estimated_once(self, monkeypatch):
        calls = Counter()

        def count(fn, name_of):
            def counted(*args, **kwargs):
                calls[name_of(args, kwargs)] += 1
                return fn(*args, **kwargs)

            # callers import names directly: replace every reference
            for module in (cli, detection, harness, lowdeg, model_gen, spectral):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)

        count(sample_rotated_instance, lambda a, k: "planted")
        count(sample_detection_pair, lambda a, k: f"detection_pair.{a[4]}")
        count(spectral.build_statistic, lambda a, k: "build_statistic")
        count(advantage, lambda a, k: "advantage")

        cfg = small_config(Ns=[200, 300], trials=3, tasks=ALL_TASKS)
        units, cells = 2 * 3, 2
        for workers in (1, 2):  # the counters see only calls made in this process
            calls.clear()
            records = run_sweep(cfg, workers=workers)
            assert len(records) == units * len(ALL_TASKS)
            assert calls == Counter(
                {"planted": units, "detection_pair.null": units,
                 "build_statistic": 2 * units, "advantage": cells}
            )

    def test_exception_in_a_task_becomes_an_error_row(self, monkeypatch, caplog):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "advantage", broken)
        cfg = small_config(Ns=[200, 300], trials=2, tasks=("recover", "advantage"))
        with caplog.at_level("WARNING", logger="pvlab"):
            records = run_sweep(cfg)
        errors = [r for r in records if r.task == "advantage"]
        assert len(errors) == 4 and not any(r.success for r in errors)
        assert all(r.adv is None and r.statistic_value is None for r in errors)
        assert all(r.l2_error is not None for r in records if r.task == "recover")
        assert records_to_csv(errors).splitlines()[1].endswith(",advantage,0,,,,,")
        assert sum("RuntimeError: boom" in m for m in caplog.messages) == 4


class TestSummarize:
    def test_wilson_all_success(self):
        cfg = small_config(Ns=[1000], ns=[3], rhos=[0.05], trials=50)
        cells = summarize(run_sweep(cfg))
        assert len(cells) == 1
        cell = cells[0]
        assert cell.success_rate == 1.0
        assert cell.wilson_low == pytest.approx(0.929, abs=0.002)

    def test_mixed_rate(self):
        from pvlab.harness import SweepRecord

        records = [
            SweepRecord(10, 2, 0.5, t, "recover", success=(t % 2 == 0), l2_error=0.1)
            for t in range(50)
        ]
        cell = summarize(records)[0]
        assert cell.success_rate == 0.5

    def test_raised_units_are_errors_not_failed_trials(self):
        # At N = 50, rho = 0.002 five of six planted draws are all zero and
        # raise DegenerateDrawError; the one that completes succeeds.
        cfg = small_config(Ns=[50], ns=[2], rhos=[0.002], trials=6, model="orth", seed=3)
        (cell,) = summarize(run_sweep(cfg))
        assert (cell.trials, cell.errors) == (6, 5)
        assert cell.success_rate == 1.0
        assert (cell.wilson_low, cell.wilson_high) == pytest.approx(harness._wilson(1, 1))
        assert cell.mean_l2 is not None and cell.se_l2 is None

    def test_cell_where_every_unit_raised_has_no_rate(self):
        records = [SweepRecord(10, 2, 0.5, t, "advantage", success=False) for t in range(3)]
        cell = summarize(records)[0]
        assert (cell.trials, cell.errors) == (3, 3)
        assert cell.success_rate is cell.wilson_low is cell.wilson_high is None
        assert cell.mean_l2 is None

    def test_groups_by_cell_and_task(self):
        cfg = small_config(Ns=[100, 200], tasks=("recover", "advantage"), trials=2)
        cells = summarize(run_sweep(cfg))
        assert len(cells) == 4

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestPhaseTransition:
    def test_recovery_rate_falls_across_threshold(self):
        # fixed N = 2500 (sqrt(N) = 50): the low-signal cell has n*rho = 0.1,
        # the high-signal cell n*rho = 250; recovery collapses in between
        cfg = SweepConfig(
            Ns=[2500],
            ns=[5, 500],
            rhos=[0.02, 0.5],
            trials=20,
            tasks=("recover",),
            seed=17,
        )
        rates = {
            (c.n, c.rho): c.success_rate
            for c in summarize(run_sweep(cfg))
        }
        assert rates[(5, 0.02)] >= 0.9
        assert rates[(500, 0.5)] <= 0.2
