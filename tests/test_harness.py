import csv
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rpcqr.harness as harness
from rpcqr import (
    CholeskyBreakdown,
    RankDeficientSampleError,
    cholesky_qr2,
    cond2,
    eta,
    ortho_deviation,
    ortho_estimate,
    rel_residual,
    rp_cholesky_qr,
)
from rpcqr.cli import build_parser, main
from rpcqr.harness import (
    CSV_COLUMNS,
    MATRIX_KINDS,
    METHODS,
    ConfigError,
    ExperimentConfig,
    derive_matrix_seed,
    derive_seed,
    emit_csv,
    format_summary,
    load_config,
    run_experiment,
    sweep_points,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_sweep_config(**overrides):
    base = dict(
        experiment="sweep_c", matrix_kind="worst_coherence", m=200, n=20,
        kappa=1e15, c_list=[40, 60], trials=3, master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validate_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="bogus").validate()

    def test_validate_rejects_c_below_n(self):
        for config in (
            small_sweep_config(c_list=[10]),
            ExperimentConfig(experiment="single", m=200, n=100, c=50),
            ExperimentConfig(experiment="compare_cqr2", m=200, n=20, c=10,
                             matrix_kind="haar_rotated"),
        ):
            with pytest.raises(ConfigError):
                config.validate()

    def test_validate_rejects_n_above_m(self):
        for config in (
            ExperimentConfig(experiment="single", m=10, n=20),
            ExperimentConfig(experiment="single", m=10, n=0),
            ExperimentConfig(experiment="sweep_n", m=10, n_list=[0, 5]),
            ExperimentConfig(experiment="sweep_n", m=10, n_list=[5, 20]),
        ):
            with pytest.raises(ConfigError):
                config.validate()

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.5])
    def test_validate_rejects_bad_kappa(self, kappa):
        with pytest.raises(ConfigError):
            small_sweep_config(kappa=kappa).validate()

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": 1, "experiment": "sweep_c", "m": 100, "n": 10,
            "c_list": [20, 30], "kappa": 1e6, "trials": 2, "master_seed": 5,
        }))
        cfg = load_config(path)
        assert cfg.m == 100 and cfg.c_list == [20, 30]

    def test_load_config_requires_schema_version(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "single", "m": 10, "n": 2}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        for key in ("samples", "regenerate_matrix_per_trial",
                    "retry_on_rank_deficient"):
            path.write_text(json.dumps({"schema_version": 1,
                                        "experiment": "single", "n": 5,
                                        key: 3}))
            with pytest.raises(ConfigError):
                load_config(path)

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"schema_version": 1, "experiment": "single", "n": 5, "trials": 2.5}',
        '{"schema_version": 1, "experiment": "single", "n": 5, "m": 200.0}',
        '{"schema_version": 1, "experiment": "single", "n": 5, '
        '"trials": true}',
        '{"schema_version": 1, "experiment": "sweep_n", "n_list": [5.0]}',
        '{"schema_version": 1, "experiment": "sweep_n", "n_list": 5}',
        '{"schema_version": 1, "experiment": "single", "n": 5, '
        '"master_seed": -1}',
        '{"schema_version": 1, "experiment": "single", "n": 5, '
        '"output_path": 1}',
        '{"schema_version": 1, "experiment": "single", "n": 5, '
        '"kappa": true}',
        '{"schema_version": 1, "experiment": "single", "n": 5, '
        '"kappa": "1e7"}',
        '{"schema_version": 1, "experiment": "sweep_c", "n": 5, '
        '"c_list": 20}',
        '{"schema_version": 1, "experiment": "sweep_c", "n": 5, '
        '"c_list": [20], "n_list": [5]}',
        '{"schema_version": 1, "experiment": "compare_cqr2", '
        '"matrix_kind": "haar_rotated", "n": 5, "c_list": [20], '
        '"n_list": [5]}',
    ])
    def test_load_config_rejects_malformed_values(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("config, key", [
        (dict(experiment="sweep_n", n_list=[5], n=7), "n"),
        (dict(experiment="sweep_n", n_list=[5], c=50), "c"),
        (dict(experiment="sweep_n", n_list=[5], c_list=[20]), "c_list"),
        (dict(experiment="sweep_c", n=5, c_list=[20], n_list=[5]), "n_list"),
        (dict(experiment="sweep_c", n=5, c_list=[20], c=30), "c"),
        (dict(experiment="single", n=5, n_list=[5]), "n_list"),
        (dict(experiment="single", n=5, c_list=[20, 30]), "c_list"),
        (dict(experiment="compare_cqr2", matrix_kind="haar_rotated", n=5,
              c_list=[20], n_list=[5]), "c_list"),
        (dict(experiment="sweep_n", n_list=5), "n_list"),
        (dict(experiment="sweep_c", n=5, c_list=20), "c_list"),
        (dict(experiment="sweep_c", n=5, c_list="20"), "c_list"),
        (dict(experiment="single", n=5, c=50, method="basic"), "c"),
        (dict(experiment="sweep_c", n=5, c_list=[20, 30], method="cqr2"),
         "c_list"),
        (dict(experiment="compare_cqr2", matrix_kind="haar_rotated", n=5,
              c=20, method="basic"), "method"),
    ])
    def test_validate_names_an_ignored_or_malformed_point_key(self, config,
                                                              key):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            ExperimentConfig(**config).validate()

    @pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 9)])
    def test_shipped_configs(self, name):
        config = load_config(CONFIGS / f"{name}.json")
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert config.experiment.replace("_", "-") in sub.choices
        if name in ("fig3", "fig6", "fig8"):
            assert all(c == 3 * n for n, c in sweep_points(config))


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(1, 2, 3, "rp") == derive_seed(1, 2, 3, "rp")

    def test_golden_values(self):
        assert derive_seed(0, 0, 0, "rp") == 7559663011601410144
        assert derive_matrix_seed(101, 0) == 15300423673866037780

    def test_no_collisions_across_axes(self):
        seeds = {
            derive_seed(ms, p, t, meth)
            for ms in range(3) for p in range(4) for t in range(5)
            for meth in ("basic", "cqr2", "precond", "rp")
        }
        assert len(seeds) == 3 * 4 * 5 * 4


class TestRunSingle:
    def test_rp_on_singular_matrix(self):
        cfg = ExperimentConfig(experiment="single", m=500, n=50, kappa=1e15,
                               c=150, method="rp", master_seed=3)
        rows = run_experiment(cfg)
        assert not rows[0]["breakdown"]
        assert rows[0]["residual"] <= 1e-14
        assert rows[0]["kappa_A1"] is not None and rows[0]["eta"] is not None

    def test_basic_on_orthonormal_input(self):
        cfg = ExperimentConfig(experiment="single", m=300, n=30, kappa=1.0,
                               matrix_kind="haar_rotated", method="basic",
                               master_seed=4)
        rows = run_experiment(cfg)
        assert rows[0]["deviation"] <= 1e-14
        assert rows[0]["c"] is None and rows[0]["kappa_A1"] is None
        assert rows[0]["eta"] is None

    def test_deterministic_modulo_wall_time(self):
        cfg = ExperimentConfig(experiment="single", m=200, n=20, kappa=1e10,
                               c=60, method="rp", master_seed=5)
        (r1,) = run_experiment(cfg)
        (r2,) = run_experiment(cfg)
        assert r1["deviation"] == r2["deviation"]
        assert r1["residual"] == r2["residual"]
        assert r1["kappa_A1"] == r2["kappa_A1"]
        assert r1["seed"] == r2["seed"]

    def test_basic_breakdown_recorded_not_raised(self):
        cfg = ExperimentConfig(experiment="single", m=400, n=40, kappa=1e15,
                               method="basic", master_seed=6)
        rows = run_experiment(cfg)
        assert rows[0]["breakdown"]
        assert rows[0]["deviation"] is None and rows[0]["residual"] is None

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_is_one_point_one_trial_sweep(self, method):
        # A method that samples no rows takes no c, so its single run
        # matches the first point of a sweep over n instead.
        samples = METHODS[method].samples_c
        single = ExperimentConfig(experiment="single", m=200, n=20,
                                  kappa=1e10, c=60 if samples else None,
                                  method=method, trials=5, master_seed=12)
        (row,) = run_experiment(single)
        sweep = (small_sweep_config(c_list=[60]) if samples else
                 ExperimentConfig(experiment="sweep_n", m=200, n_list=[20]))
        (swept,) = run_experiment(replace(sweep, kappa=1e10, method=method,
                                          trials=1, master_seed=12))
        ignored = ("experiment", "wall_time_s")
        assert {k: v for k, v in row.items() if k not in ignored} == \
            {k: v for k, v in swept.items() if k not in ignored}


class TestSweeps:
    def test_sweep_c_shapes(self):
        cfg = small_sweep_config()
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 3
        assert len(format_summary(cfg, rows).splitlines()) == 1 + 2

    def test_sweep_n_uses_3n_samples(self):
        cfg = ExperimentConfig(experiment="sweep_n", m=300, kappa=1e12,
                               n_list=[10, 20], trials=2, master_seed=7)
        rows = run_experiment(cfg)
        assert {r["c"] for r in rows} == {30, 60}
        est = [r["estimate_5_2"] for r in rows if not r["breakdown"]]
        kap = [r["kappa_A1"] for r in rows if not r["breakdown"]]
        u = 2.220446049250313e-16
        assert all(e == 4 * u * k for e, k in zip(est, kap))

    def test_compare_cqr2_pairs_methods(self):
        cfg = ExperimentConfig(experiment="compare_cqr2",
                               matrix_kind="haar_rotated", m=300, n=30,
                               kappa=1e5, c_list=[90], trials=2,
                               master_seed=8)
        rows = run_experiment(cfg)
        assert {r["method"] for r in rows} == {"rp", "cqr2"}
        assert len(rows) == 4
        assert [line.split()[2] for line in
                format_summary(cfg, rows).splitlines()[1:]] == ["rp", "cqr2"]

    @pytest.mark.parametrize("entry, config", [
        ("sweep_c", dict(experiment="sweep_c", m=100, n=10, kappa=1e10,
                         c_list=[20, 30], trials=2, master_seed=19)),
        ("compare_cqr2", dict(experiment="compare_cqr2",
                              matrix_kind="haar_rotated", m=100, n=10,
                              kappa=1e5, c_list=[30], trials=2,
                              master_seed=20)),
    ])
    def test_benchmark_entry_points(self, entry, config):
        # perfbench/ calls these names and unpacks ``rows, _``.
        cfg = ExperimentConfig(**config)
        rows, rest = getattr(harness, entry)(cfg)
        assert rest is None
        expected = run_experiment(cfg)
        for row in rows + expected:
            del row["wall_time_s"]
        assert rows == expected and len(rows) == 4

    def test_methods_are_looked_up_at_call_time(self, monkeypatch):
        calls = []

        def fake(A):
            calls.append(A.shape)
            raise CholeskyBreakdown(0, -1.0, stage=1)

        monkeypatch.setattr(harness, "cholesky_qr2", fake)
        cfg = ExperimentConfig(experiment="compare_cqr2",
                               matrix_kind="haar_rotated", m=100, n=10,
                               kappa=1e3, c=30, trials=2, master_seed=13)
        rows = run_experiment(cfg)
        assert calls == [(100, 10)] * 2
        assert [r["breakdown"] for r in rows if r["method"] == "cqr2"] == \
            [True, True]

    def test_one_matrix_and_one_norm_per_point(self, monkeypatch):
        counts = {"haar_rotated": 0, "spectral_norm": 0}

        def counting(name):
            original = getattr(harness, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(harness, name, counting(name))
        cfg = ExperimentConfig(experiment="compare_cqr2",
                               matrix_kind="haar_rotated", m=100, n=10,
                               kappa=1e5, c_list=[30, 40], trials=3,
                               master_seed=15)
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 3 * 2
        assert counts == {"haar_rotated": 2, "spectral_norm": 2}

    @pytest.mark.parametrize("config", [
        dict(experiment="compare_cqr2", matrix_kind="haar_rotated", m=150,
             n=15, kappa=1e7, c_list=[30, 45], trials=2, master_seed=16),
        dict(experiment="sweep_c", matrix_kind="worst_coherence", m=150,
             n=15, kappa=1e15, c_list=[30, 45], trials=2, master_seed=17),
    ], ids=["compare_cqr2", "sweep_c"])
    def test_rows_replay_from_their_columns(self, config):
        cfg = ExperimentConfig(**config)
        rows = run_experiment(cfg)
        per_point = len(rows) // len(sweep_points(cfg))
        for i, row in enumerate(rows):
            # Rows come point by point; a cqr2 row's c cell is empty, so
            # the point index is read from the row's position.
            A = MATRIX_KINDS[row["matrix_kind"]](
                row["m"], row["n"], row["kappa_target"],
                derive_matrix_seed(cfg.master_seed, i // per_point))
            assert not row["breakdown"]
            if row["method"] == "rp":
                f, R_s, A1 = rp_cholesky_qr(A, row["c"], row["seed"])
                assert row["kappa_A1"] == cond2(A1)
                assert row["eta"] == eta(A, A1, R_s)
                assert row["estimate_5_2"] == ortho_estimate(cond2(A1))
            else:
                f = cholesky_qr2(A)
                assert row["kappa_A1"] is None and row["eta"] is None
            assert row["deviation"] == ortho_deviation(f.Q)
            assert row["residual"] == rel_residual(A, f)

    def test_breakdowns_become_rows(self):
        cfg = ExperimentConfig(experiment="sweep_n", m=300, n_list=[30],
                               kappa=1e15, trials=2, method="basic",
                               master_seed=9)
        rows = run_experiment(cfg)
        assert len(rows) == 2
        assert all(r["breakdown"] for r in rows)
        assert all(r["deviation"] is None for r in rows)
        assert format_summary(cfg, rows).splitlines()[1].split()[3] == "2"


class TestRankDeficientSample:
    def test_is_a_breakdown_row_after_one_call_on_the_row_seed(
            self, monkeypatch):
        seeds = []

        def deficient(A, c, seed):
            seeds.append(seed)
            raise RankDeficientSampleError("planted")

        monkeypatch.setattr(harness, "rp_cholesky_qr", deficient)
        (row,) = run_experiment(ExperimentConfig(
            experiment="single", m=200, n=20, kappa=1e10, c=60,
            method="rp", master_seed=14))
        assert row["breakdown"] and row["deviation"] is None
        assert row["kappa_A1"] is None and row["eta"] is None
        assert seeds == [row["seed"]]


class TestEmitCsv:
    def test_schema_and_empty_cells(self, tmp_path):
        cfg = ExperimentConfig(experiment="single", m=100, n=10, kappa=1e15,
                               method="basic", master_seed=10)
        rows = run_experiment(cfg)
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row["method"] == "basic"
        assert row["c"] == "" and row["kappa_A1"] == "" and row["eta"] == ""
        assert row["breakdown"] in ("true", "false")

    def test_refuses_empty_table(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")

    def test_float_cells_round_trip(self, tmp_path):
        rows = run_experiment(small_sweep_config(trials=1))
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        for raw, row in zip(parsed, rows):
            if row["deviation"] is not None:
                assert float(raw["deviation"]) == row["deviation"]


class TestCli:
    def test_single_runs(self, capsys):
        rc = main(["single", "--m", "200", "--n", "20", "--kappa", "1e10",
                   "--matrix", "worst", "--method", "rp", "--seed", "3"])
        assert rc == 0
        assert "deviation=" in capsys.readouterr().out

    def test_sweep_c_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep-c", "--m", "200", "--n", "20", "--c", "40,60",
                   "--kappa", "1e12", "--trials", "2", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        with open(out) as fh:
            assert fh.readline().strip() == ",".join(CSV_COLUMNS)

    def test_config_error_exit_code(self, tmp_path, capsys):
        array, fractional = tmp_path / "array.json", tmp_path / "frac.json"
        array.write_text("[]")
        fractional.write_text(json.dumps({
            "schema_version": 1, "experiment": "single", "n": 10,
            "m": 200.0}))
        for argv in (
            ["sweep-c", "--m", "100", "--n", "200", "--c", "300"],
            ["single", "--n", "100", "--c", "50"],
            ["compare-cqr2", "--c", "10", "--n", "20"],
            ["single", "--n", "10", "--kappa", "nan"],
            ["single", "--n", "10", "--kappa", "inf"],
            ["single", "--n", "10", "--kappa", "0.5"],
            ["single", "--n", "0"],
            ["sweep-n", "--n", "0,10"],
            ["sweep-c", "--config", str(CONFIGS / "fig1.json"),
             "--n", "10,20"],
            ["single", "--n", "10", "--c", "20,30"],
            ["sweep-n", "--n", "7", "--c", "50"],
            ["single", "--method", "basic", "--m", "100", "--n", "10",
             "--c", "50"],
            ["sweep-c", "--method", "cqr2", "--m", "100", "--n", "10",
             "--c", "20,30"],
            ["single", "--n", "10", "--seed", "-1"],
            ["compare-cqr2", "--method", "basic", "--matrix", "haar",
             "--m", "200", "--n", "10", "--c", "30", "--trials", "1",
             "--kappa", "1e3"],
            ["single", "--config", str(array)],
            ["single", "--config", str(fractional)],
            ["bounds", "--kappa-a1", "10", "--eta", "nan"],
            ["bounds", "--kappa-a1", "10", "--eta", "-3"],
            ["bounds", "--kappa-a1", "10", "--eta", "20"],
        ):
            rc = main(argv)
            assert rc == 1, argv
            assert capsys.readouterr().err.startswith("error: "), argv

    @pytest.mark.parametrize("argv", [
        ["single", "--n", ","],
        ["single", "--n", "5", "--c", ","],
        ["single", "--n", "abc"],
    ])
    def test_int_list_without_ints_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected comma-separated ints" in err
        assert "Traceback" not in err

    def test_method_choices_come_from_method_table(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        method = next(a for a in sub.choices["single"]._actions
                      if a.dest == "method")
        assert method.choices == sorted(METHODS)

    def test_io_error_exit_code(self, tmp_path, capsys):
        rc = main(["sweep-c", "--m", "100", "--n", "10", "--c", "30",
                   "--trials", "1",
                   "--out", str(tmp_path / "no_dir" / "x.csv")])
        assert rc == 2

    def test_unwritable_out_fails_before_any_trial(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_trials(config):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("rpcqr.cli.run_experiment", no_trials)
        path = tmp_path / "no_dir" / "x.csv"
        rc = main(["sweep-c", "--m", "400", "--n", "20", "--c", "40,60",
                   "--trials", "3", "--out", str(path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: cannot write CSV: ")

    def test_singular_preconditioned_matrix_is_a_row(self, capsys):
        # The 10 sampled rows hold 7 distinct ones, so sigma_n(A1) = 0.
        rc = main(["single", "--m", "50", "--n", "10", "--c", "10",
                   "--matrix", "haar", "--seed", "3"])
        assert rc == 0
        assert "kappa_A1=inf" in capsys.readouterr().out

    def test_bounds_subcommand(self, capsys):
        rc = main(["bounds", "--eps", "1e-16", "--kappa-a1", "10",
                   "--eta", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ortho_bound=" in out and "assumption_ok=True" in out

    @pytest.mark.parametrize("argv, lines", [
        (["--eps", "2.2e-16", "--kappa-rs", "10", "--kappa-a1", "1e3",
          "--eta", "2", "--eps-gram", "1e-15"],
         ["assumption_ok=True", "cond_factor=1.000000005010005",
          "ortho_bound=1.6600000166332154e-09",
          "residual_bound=4.4110000220440433e-13", "eta=2.0",
          "kappa_preconditioned=1000.0"]),
        (["--eps", "2.2e-16", "--kappa-rs", "1e15", "--kappa-a1", "1e3",
          "--eta", "2"],
         ["assumption_ok=False", "cond_factor=None", "ortho_bound=None",
          "residual_bound=None", "eta=2.0", "kappa_preconditioned=1000.0"]),
    ], ids=["assumption_holds", "assumption_fails"])
    def test_bounds_output_golden(self, argv, lines, capsys):
        assert main(["bounds", *argv]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_summary_table_golden(self, capsys):
        # 2 points x 2 trials; cqr2 breaks down on the first point's matrix
        # only, and its lines carry the point's c.
        rc = main(["compare-cqr2", "--matrix", "haar", "--m", "100",
                   "--n", "10", "--c", "20,30", "--kappa", "1e9",
                   "--trials", "2", "--seed", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("     n      c   method broke   dev(gmean)   "
                            "res(gmean)    kA1(mean)   est(gmean)")
        assert [line.split()[:4] for line in lines[1:]] == [
            ["10", "20", "rp", "0"], ["10", "20", "cqr2", "2"],
            ["10", "30", "rp", "0"], ["10", "30", "cqr2", "0"]]
        assert [line for line in lines if "cqr2" in line] == [
            "    10     20     cqr2     2" + "            -" * 4,
            "    10     30     cqr2     0    9.009e-16    1.561e-16"
            + "            -" * 2,
        ]
        for line in (lines[1], lines[3]):  # rp: four finite statistics
            assert all(re.fullmatch(r"\d\.\d{3}e[-+]\d\d", cell)
                       for cell in line.split()[4:])

    def test_breakdowns_do_not_affect_exit_code(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["sweep-n", "--m", "300", "--n", "30",
                   "--kappa", "1e15", "--method", "basic", "--trials", "2",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0

    def test_config_file_with_cli_override(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "schema_version": 1, "experiment": "sweep_c", "m": 150, "n": 15,
            "c_list": [30], "kappa": 1e8, "trials": 1, "master_seed": 4,
        }))
        out = tmp_path / "o.csv"
        rc = main(["sweep-c", "--config", str(cfgp), "--trials", "2",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # CLI override wins


def _strip_wall_time(text):
    lines = text.splitlines()
    idx = lines[0].split(",").index("wall_time_s")
    return [",".join(v for i, v in enumerate(line.split(",")) if i != idx)
            for line in lines]


class TestDeterminism:
    def test_repeat_invocation_identical_modulo_wall_time(self, tmp_path):
        args = ["sweep-c", "--m", "300", "--n", "30", "--c", "60,90",
                "--kappa", "1e15", "--trials", "3", "--seed", "21"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert _strip_wall_time(out1.read_text()) == \
            _strip_wall_time(out2.read_text())

    def test_subprocess_determinism(self, tmp_path):
        # Fresh interpreter each time, like a user at the shell.
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "rpcqr.cli", "single", "--m", "120",
                 "--n", "12", "--kappa", "1e10", "--seed", "9",
                 "--out", str(out)],
                check=True, capture_output=True,
            )
            outs.append(_strip_wall_time(out.read_text()))
        assert outs[0] == outs[1]
