"""End-to-end tests of the pvlab command-line interface."""

import json

import numpy as np
import pytest

from pvlab import harness
from pvlab._blas import one_blas_thread
from pvlab.cli import main
from pvlab.detection import estimator
from pvlab.model_gen import SeedSpec, load_instance, sample_orthonormal_instance
from pvlab.spectral import estimate_direction


GEN_DUMPS = {
    "gaussian": """\
N,n,rho,kind,seed,stream
6,2,0.5,rotated,0,0
0.4812938956652323,-0.33076066354165956
0.15134396483865958,0.3123907154404311
-0.41144580047541107,-0.8492697288094445
0.39140808784921366,-0.516294932063839
0.6316617285074771,-0.020384792717261502
0.10827408563463255,0.22348971173788987
""",
    "orth": """\
N,n,rho,kind,seed,stream
6,2,0.5,orthonormal,0,0
0.5773502691896258,-0.041731807791201135
0.0,0.31327608070000407
0.0,-0.8516766950755025
0.5773502691896258,-0.2277919101096194
0.5773502691896258,0.2695237179008206
0.0,0.22412311733179724
""",
    "null": """\
N,n,rho,kind,seed,stream
6,2,0.5,null,0,0
0.5274032825880651,-0.09293378281856511
0.3551984841019332,-0.4919821210125257
-0.26671216914734497,0.5026956231944509
-0.14716820762928565,-0.14855108101100528
-0.8237424004564616,0.5350216403360346
-0.19930301685079757,-0.4217366176201134
""",
}


class TestGen:
    @pytest.mark.parametrize("model", sorted(GEN_DUMPS))
    def test_dump_bytes_pinned(self, model, tmp_path):
        out = tmp_path / "inst.csv"
        argv = ["gen", "--N", "6", "--n", "2", "--rho", "0.5", "--model", model, "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == GEN_DUMPS[model].encode()

    def test_orth_dump_near_householder_values(self, tmp_path):
        # The Householder QR that produced the orth dump before CholeskyQR2;
        # the two factorizations agree up to rounding.
        householder = np.array(
            [
                [0.5773502691896257, -0.04173180779120115],
                [0.0, 0.3132760807000041],
                [0.0, -0.8516766950755024],
                [0.5773502691896258, -0.2277919101096194],
                [0.5773502691896258, 0.2695237179008206],
                [0.0, 0.2241231173317972],
            ]
        )
        out = tmp_path / "inst.csv"
        main(["gen", "--N", "6", "--n", "2", "--rho", "0.5", "--model", "orth", "--out", str(out)])
        with open(out) as f:
            Y, _, _, _ = load_instance(f)
        assert np.max(np.abs(Y - householder)) <= 4e-16
        assert np.array_equal(Y == 0.0, householder == 0.0)

    def test_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.csv"
        rc = main(
            ["gen", "--N", "30", "--n", "3", "--rho", "0.5", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        with open(out) as f:
            Y, kind, rho, seed = load_instance(f)
        assert Y.shape == (30, 3)
        assert kind == "rotated"
        assert rho == 0.5
        assert seed.master_seed == 7

    def test_orth_model_kind(self, tmp_path):
        out = tmp_path / "inst.csv"
        main(["gen", "--N", "40", "--n", "4", "--rho", "0.5", "--model", "orth", "--out", str(out)])
        with open(out) as f:
            Y, kind, _, _ = load_instance(f)
        assert kind == "orthonormal"
        assert np.max(np.abs(Y.T @ Y - np.eye(4))) <= 1e-10

    def test_stdout_default(self, capsys):
        main(["gen", "--N", "4", "--n", "2", "--rho", "1.0", "--model", "null"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,n,rho,kind,seed,stream"
        assert lines[1].split(",")[3] == "null"
        assert len(lines) == 2 + 4


class TestEstimate:
    def test_easy_instance_summary_line(self, capsys):
        rc = main(
            ["estimate", "--N", "2000", "--n", "10", "--rho", "0.05", "--seed", "3"]
        )
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert "lambda=" in line and "gap=" in line
        assert "exact_match=1" in line

    def test_dump_estimate(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        main(
            ["estimate", "--N", "500", "--n", "4", "--rho", "0.1",
             "--dump-estimate", str(out)]
        )
        values = [float(x) for x in out.read_text().split()]
        assert len(values) == 500

    ORTH = ["estimate", "--model", "orth", "--N", "20000", "--n", "50", "--rho", "0.05",
            "--seed", "5", "--stream", "2"]

    def test_orth_agrees_with_the_sweep_trial(self, tmp_path, capsys):
        # The sampler sums the statistic in its last pass in both; 20000 x 50
        # spans ten row blocks on two threads.
        out = tmp_path / "est.csv"
        assert main(self.ORTH + ["--dump-estimate", str(out)]) == 0
        line = capsys.readouterr().out
        with one_blas_thread():
            result, _ = estimator(20000, 50, 0.05, SeedSpec(5, 2))("orth")
        assert line.split()[0] == f"lambda={result.leading_value:.6e}"
        assert out.read_text() == "\n".join(repr(float(x)) for x in result.raw_estimate) + "\n"

    def test_orth_uncentered_on_the_summed_path(self, capsys):
        main(self.ORTH)
        centered = capsys.readouterr().out.split()[0]
        main(self.ORTH + ["--uncentered"])
        uncentered = capsys.readouterr().out.split()[0]
        with one_blas_thread():
            Q, _ = sample_orthonormal_instance(20000, 50, 0.05, SeedSpec(5, 2))
            expected = estimate_direction(Q, centered=False).leading_value
        assert uncentered != centered
        assert float(uncentered.removeprefix("lambda=")) == pytest.approx(expected, rel=1e-6)

    def test_uncentered_flag_changes_lambda(self, capsys):
        args = ["estimate", "--N", "1000", "--n", "5", "--rho", "1.0", "--seed", "2"]
        main(args)
        centered = capsys.readouterr().out
        main(args + ["--uncentered"])
        uncentered = capsys.readouterr().out
        assert centered.split()[0] != uncentered.split()[0]


class TestDetect:
    def test_prints_report_and_appends_csv(self, tmp_path, capsys):
        csv = tmp_path / "rates.csv"
        args = [
            "detect", "--N", "500", "--n", "4", "--rho", "0.05",
            "--trials", "3", "--test", "l1l2", "--csv", str(csv),
        ]
        assert main(args) == 0
        assert "type_I=" in capsys.readouterr().out
        assert main(args) == 0
        rows = csv.read_text().splitlines()
        assert len(rows) == 2
        fields = rows[0].split(",")
        assert fields[0] == "500" and fields[4] == "l1l2" and fields[5] == "3"

    @pytest.mark.parametrize("c1", ["0", "-1", "nan", "inf"])
    def test_bad_c1_is_an_error(self, c1, tmp_path, capsys):
        csv = tmp_path / "rates.csv"
        args = [
            "detect", "--N", "200", "--n", "5", "--rho", "0.1",
            "--c1", c1, "--trials", "2", "--csv", str(csv),
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not csv.exists()
        assert captured.err.startswith("error: c1 must be positive and finite")

    def test_only_the_two_test_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["detect", "--N", "200", "--n", "5", "--rho", "0.1", "--test", "reduction"])
        assert "invalid choice" in capsys.readouterr().err


class TestAdvantage:
    def test_value_matches_library(self, capsys):
        main(["advantage", "--N", "2", "--n", "2", "--rho", "1.0", "--D", "4"])
        out = capsys.readouterr().out
        assert "adv_squared=1.125" in out

    def test_breakdown_csv(self, capsys):
        main(["advantage", "--N", "3", "--n", "2", "--rho", "0.5", "--D", "6", "--breakdown"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "d,sphere_moment,alpha_sum,contribution"
        degrees = [row.split(",")[0] for row in lines[2:]]
        assert degrees == ["0", "2", "4", "6"]

    def test_prints_log_value_where_linear_fields_overflow(self, capsys):
        main(["advantage", "--N", "1", "--n", "5", "--rho", "1e-6", "--D", "160"])
        out = capsys.readouterr().out
        assert out.startswith("adv=inf adv_squared=inf log_adv_squared=1518.26")


class TestSweep:
    def test_runs_and_writes_csv(self, tmp_path):
        out = tmp_path / "records.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"Ns": [200], "ns": [3], "rhos": [0.1], "trials": 2,
                 "tasks": ["recover"], "seed": 1, "out": str(out)}
            )
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("N,n,rho,trial,task")
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "records.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"Ns": [200], "ns": [3], "rhos": [0.1, 0.5], "trials": 3,
                 "tasks": ["recover", "detect_spectral"], "seed": 4, "out": str(out)}
            )
        )
        main(["sweep", "--config", str(cfg)])
        first = out.read_bytes()
        main(["sweep", "--config", str(cfg)])
        assert out.read_bytes() == first

    @pytest.mark.parametrize("N", [2**62, 2**58])  # N x 4: beyond numpy's dimension, too big
    @pytest.mark.parametrize("tasks", [["detect_spectral"], ["detect_spectral", "detect_l1l2"], ["recover"]])
    def test_unaddressable_cell_writes_error_rows(self, N, tasks, tmp_path):
        # numpy refuses such a size with ValueError before allocating
        # anything; the detect sweep's pre-size must not abort on it
        out = tmp_path / "records.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Ns": [N], "ns": [4], "rhos": [0.5], "trials": 1,
                                   "tasks": tasks, "out": str(out)}))
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows == [f"{N},4,0.5,0,{task},0,,,,," for task in tasks]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Ns": [100]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "config",
        [
            {"Ns": 5, "ns": [2], "rhos": [0.5]},
            {"Ns": [20], "ns": [2], "rhos": [0.5], "tasks": "recover"},
            {"Ns": [20], "ns": [2], "rhos": [0.5], "tasks": [["recover"]]},
            {"Ns": [20], "ns": [2], "rhos": [0.5], "mode": "x"},
            {"Ns": [20]},
            {"Ns": [5], "ns": [10], "rhos": [0.5]},
            {"Ns": [20], "ns": [2], "rhos": [1e-7], "tasks": ["advantage", "recover"]},
            "abc",
            [1, 2],
            None,
        ],
    )
    def test_malformed_config_is_one_error_line(self, config, tmp_path, capsys, monkeypatch):
        out = tmp_path / "records.csv"
        if isinstance(config, dict):
            config = {**config, "out": str(out)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        units = []
        monkeypatch.setattr(harness, "_run_unit", lambda *args: units.append(args) or [])
        assert main(["sweep", "--config", str(cfg), "--summary"]) == 2
        assert units == [] and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unparsable_config_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unopenable_out_fails_before_any_unit(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"Ns": [200], "ns": [3], "rhos": [0.1], "trials": 2,
                        "out": str(tmp_path / "missing_dir" / "x.csv")})
        )
        units = []
        monkeypatch.setattr(harness, "_run_unit", lambda *args: units.append(args) or [])
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert units == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_fail_before_out_is_opened(
        self, workers, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "records.csv"
        out.write_text("kept\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"Ns": [200], "ns": [3], "rhos": [0.1], "trials": 2, "out": str(out)})
        )
        units = []
        monkeypatch.setattr(harness, "_run_unit", lambda *args: units.append(args) or [])
        assert main(["sweep", "--config", str(cfg), "--workers", workers]) == 2
        assert units == [] and out.read_text() == "kept\n"
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"

    def test_summary_counts_raised_units_as_errors(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        config = {"Ns": [50], "ns": [2], "rhos": [0.002], "trials": 6, "model": "orth",
                  "seed": 3, "out": str(tmp_path / "r.csv")}
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg), "--summary"]) == 0
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith("N=50 n=2 rho=0.002 task=recover rate=1.000 wilson95=[")
        assert " errors=5 " in line
        cfg.write_text(json.dumps(dict(config, trials=2, seed=4)))
        assert main(["sweep", "--config", str(cfg), "--summary"]) == 0
        line = capsys.readouterr().err.splitlines()[-1]
        assert line == "N=50 n=2 rho=0.002 task=recover errors=2"

    def test_summary_prints_mean_errors(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        config = {"Ns": [200], "ns": [3], "rhos": [0.1], "trials": 3,
                  "tasks": ["recover", "advantage"], "seed": 2, "out": str(tmp_path / "r.csv")}
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg), "--summary"]) == 0
        recover, adv = capsys.readouterr().err.splitlines()
        cell = harness.summarize(harness.run_sweep(harness.SweepConfig.from_json(str(cfg))))[0]
        assert recover.endswith(
            f" mean_l2={cell.mean_l2:.4g} se_l2={cell.se_l2:.4g}"
            f" mean_entrywise={cell.mean_entrywise:.4g}"
        )
        assert "task=advantage" in adv and "mean_" not in adv

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


class TestOutOfDomain:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--N", "5", "--n", "10", "--rho", "0.5"],
            ["estimate", "--N", "5", "--n", "10", "--rho", "0.5"],
            ["detect", "--N", "5", "--n", "10", "--rho", "0.5", "--trials", "1"],
            ["advantage", "--N", "5", "--n", "2", "--rho", "1e-9", "--D", "4"],
            ["gen", "--N", "5", "--n", "2", "--rho", "0.5", "--out", "missing_dir/x.csv"],
            ["estimate", "--N", "50", "--n", "2", "--rho", "0.5",
             "--dump-estimate", "missing_dir/x.csv"],
            ["detect", "--N", "50", "--n", "2", "--rho", "0.5", "--trials", "1",
             "--csv", "missing_dir/x.csv"],
            ["gen", "--N", "5", "--n", "2", "--rho", "0.5", "--out", ""],
            ["estimate", "--N", "50", "--n", "2", "--rho", "0.5", "--dump-estimate", ""],
            ["detect", "--N", "50", "--n", "2", "--rho", "0.5", "--trials", "1", "--csv", ""],
            # this stream plants v = 0, which an all-zero estimate would "recover"
            ["estimate", "--N", "50", "--n", "2", "--rho", "0.002", "--seed", "0", "--stream", "0"],
            ["gen", "--N", "50", "--n", "2", "--rho", "0.002", "--seed", "0", "--stream", "0"],
            # nine of these ten planted draws are v = 0, pure noise scored as planted
            ["detect", "--N", "50", "--n", "2", "--rho", "0.002", "--trials", "10"],
        ],
    )
    def test_out_of_domain_value_exit_code(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # so missing_dir/ is certain not to exist
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["gen", "--seed", "-1"], "master_seed"),
            (["gen", "--stream", "-1"], "stream_index"),
            (["estimate", "--seed", "-1"], "master_seed"),
            (["detect", "--seed", "-1", "--trials", "1", "--csv", "rates.csv"], "master_seed"),
        ],
    )
    def test_negative_seed_names_field_and_value(self, argv, name, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--N", "50", "--n", "2", "--rho", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "rates.csv").exists()
        assert captured.err == f"error: {name} must be a non-negative integer, got -1\n"
