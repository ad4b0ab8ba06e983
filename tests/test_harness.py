import csv
import faulthandler
import json
import multiprocessing
import re
import subprocess
import sys
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import rpcqr.harness as harness
from rpcqr import (
    CholeskyBreakdown,
    RankDeficientSampleError,
    cholesky_qr2,
    ortho_deviation,
    rel_residual,
    rp_cholesky_qr,
)
from rpcqr.cli import _build_config, build_parser, main
from rpcqr.harness import (
    CSV_COLUMNS,
    MATRIX_KINDS,
    METHODS,
    SCHEMA_VERSION,
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
from rpcqr.kernels import spectral_norm
from rpcqr.metrics import measure
from svd_bound import BOUND, a1, svd_ratios

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_text(keys):
    """A config file's text at the current schema, with ``keys`` after."""
    return f'{{"schema_version": {SCHEMA_VERSION}, {keys}}}'


def small_sweep_config(**overrides):
    base = dict(
        matrix_kind="worst_coherence", m=200, n=20,
        kappa=1e15, c_list=[40, 60], trials=3, master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Every method value that samples rows takes the same point keys: n, one
# or a list, with or without c_list.
METHOD_VALUES = ("rp", ["rp"], ["rp", "cqr2"])
METHOD_IDS = ["rp", "rp-list", "rp-cqr2"]
POINT_VALUES = {"n": 5, "c_list": [20]}

# Each shipped config's points, written out: each n at every c of c_list,
# else at 3n.
SHIPPED_POINTS = {
    "fig1": [(100, 200), (100, 300), (100, 400), (100, 600), (100, 800)],
    "fig2": [(200, 400), (200, 600), (200, 800), (200, 1200), (200, 1600)],
    "fig3": [(50, 150), (100, 300), (150, 450), (200, 600)],
    "fig7": [(200, 400), (200, 600), (200, 800), (200, 1200), (200, 1600)],
    "fig8": [(50, 150), (100, 300), (150, 450), (200, 600)],
}
# fig7 and fig8 compare the randomized method with CholeskyQR2.
SHIPPED_METHODS = {"fig1": "rp", "fig2": "rp", "fig3": "rp",
                   "fig7": ["rp", "cqr2"], "fig8": ["rp", "cqr2"]}


def point_config(method, keys=(), **points):
    return ExperimentConfig(method=method, matrix_kind="haar_rotated", m=200,
                            **{k: POINT_VALUES[k] for k in keys},
                            **points)


class TestConfig:
    @pytest.mark.parametrize("method", [
        "bogus", "single", ["rp", "bogus"], [], ["rp", "rp"],
        ["cqr2", "rp", "cqr2"]])
    def test_validate_rejects_a_bad_method_value(self, method):
        # An unknown name, alone or in a list, an empty list and a repeated
        # name: each error names the whole value.
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(n=5, method=method).validate()
        assert str(exc.value) == (
            "method must be one of basic, cqr2, precond, rp or a non-empty "
            f"list of distinct ones, got {method!r}")

    def test_validate_rejects_c_below_n(self):
        for config in (
            small_sweep_config(c_list=[10]),
            ExperimentConfig(m=200, n=100, c_list=[50]),
            ExperimentConfig(method=["rp", "cqr2"], m=200, n=20,
                             c_list=[10], matrix_kind="haar_rotated"),
            # One pair of the grid: c = 25 < n = 30.
            ExperimentConfig(m=200, n=[20, 30],
                             c_list=[25, 40]),
        ):
            with pytest.raises(ConfigError):
                config.validate()

    def test_validate_rejects_an_m_numpy_cannot_shape(self):
        # m x n float64 cells of 8 bytes past the largest intp: numpy
        # could not even shape the array, so no generator may run.
        limit = np.iinfo(np.intp).max
        ExperimentConfig(m=limit // 8, n=1).validate()  # nothing allocated
        for m, n in ((limit // 8 + 1, 1), (limit // 16 + 1, 2),
                     (10 ** 30, 5)):
            with pytest.raises(ConfigError, match=(
                    r"^an m x n float64 array is beyond numpy's size limit, "
                    rf"got m={m}, n={n}$")):
                ExperimentConfig(m=m, n=n).validate()

    def test_validate_bounds_c_by_2_to_the_32(self):
        # About 30 s of draws; validate draws none, so 2**32 passes at once.
        ExperimentConfig(n=5, c_list=[20, 2 ** 32]).validate()
        for c in (2 ** 32 + 1, 10 ** 20):
            with pytest.raises(ConfigError, match=(
                    rf"^every c must be <= {2 ** 32}, got c={c}$")):
                ExperimentConfig(n=5, c_list=[20, c]).validate()

    def test_validate_rejects_n_above_m(self):
        for config in (
            ExperimentConfig(m=10, n=20),
            ExperimentConfig(m=10, n=0),
            ExperimentConfig(m=10, n=[0, 5]),
            ExperimentConfig(m=10, n=[5, 20]),
        ):
            # The generators' own rule and message, so a valid config
            # never fails in generation.
            with pytest.raises(ConfigError,
                               match=r"^need 1 <= n <= m, got m=10, n="):
                config.validate()

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.5])
    def test_validate_rejects_bad_kappa(self, kappa):
        with pytest.raises(ConfigError, match="^kappa must be a finite "
                                              r"number >= 1, got "):
            small_sweep_config(kappa=kappa).validate()

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "m": 100, "n": 10,
            "c_list": [20, 30], "kappa": 1e6, "trials": 2, "master_seed": 5,
        }))
        cfg = load_config(path)
        assert cfg.m == 100 and cfg.c_list == [20, 30]

    def test_load_config_requires_schema_version(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 10, "n": 2}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_rejects_schema_1(self, tmp_path):
        # Schema 1 files set experiment; no alias reads them.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "n": 5}))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == \
            f"{path}: missing or unsupported schema_version"

    @pytest.mark.parametrize("text, reason", [
        (None, "cannot read config"), ("{", "invalid config syntax")])
    def test_load_config_names_an_unreadable_file(self, tmp_path, text,
                                                  reason):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "
                                              f"{reason}: "):
            load_config(path)

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        # n_list, c, experiment and output_path were keys once: no alias
        # keeps them.
        path = tmp_path / "cfg.json"
        for key in ("samples", "regenerate_matrix_per_trial",
                    "retry_on_rank_deficient", "n_list", "c", "experiment",
                    "output_path"):
            path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                        "n": 5, key: 3}))
            with pytest.raises(ConfigError) as exc:
                load_config(path)
            assert str(exc.value) == f"{path}: unknown config keys ['{key}']"

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"schema_version": true, "n": 5}',
        # The current version as a float.
        f'{{"schema_version": {float(SCHEMA_VERSION)}, "n": 5}}',
        config_text('"n": 5, "trials": 2.5'),
        config_text('"n": 5, "m": 200.0'),
        config_text('"n": 5, "trials": true'),
        config_text('"n": [5.0]'),
        config_text('"n": "5"'),
        config_text('"n": 5, "master_seed": -1'),
        config_text('"n": 5, "method": ["rp", "rp"]'),
        config_text('"n": 5, "kappa": true'),
        config_text('"n": 5, "kappa": "1e7"'),
        config_text('"n": 5, "kappa": 1' + "0" * 400),
        config_text('"n": 5, "c_list": 20'),
        config_text('"n": [5, 30], "c_list": [20]'),
        config_text('"method": ["rp", "cqr2"], "matrix_kind": "haar_rotated", '
                    '"n": [5, 30], "c_list": [20]'),
    ])
    def test_load_config_rejects_malformed_values(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("config, key", [
        (dict(), "n"),
        (dict(c_list=[20]), "n"),
        (dict(n=[5, 5.0]), "n"),
        (dict(n=(5,)), "n"),
        (dict(n=[5], c_list=[20.0]), "c_list"),
        (dict(n=[5, 6], c_list=[[20]]), "c_list"),
        (dict(n=5, c_list=20), "c_list"),
        (dict(n=5, c_list="20"), "c_list"),
        (dict(n=5, c_list=[50], method="basic"),
         "c_list"),
        (dict(n=5, c_list=[20, 30], method="cqr2"),
         "c_list"),
        (dict(n=5, c_list=[20], method=["cqr2", "basic"]), "c_list"),
        (dict(n=5, c_list=[20], method=[]), "method"),
        (dict(n=5, c_list=[20], method=("rp",)), "method"),
        (dict(n=5, matrix_kind=["haar_rotated"]),
         "matrix_kind"),
        (dict(n=5, method=[["rp"]]), "method"),
    ])
    def test_validate_names_an_ignored_or_malformed_point_key(self, config,
                                                              key):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            ExperimentConfig(**config).validate()

    @pytest.mark.parametrize("key", [
        f.name for f in fields(ExperimentConfig)
        if f.name != "c_list"])
    def test_validate_names_a_null_key(self, key):
        # Only c_list may be None; the message names the
        # null key and no other.
        config = replace(small_sweep_config(), **{key: None})
        with pytest.raises(ConfigError) as exc:
            config.validate()
        named = set(re.findall(r"\w+", str(exc.value)))
        assert named & {f.name for f in fields(ExperimentConfig)} == {key}

    @pytest.mark.parametrize("method", METHOD_VALUES, ids=METHOD_IDS)
    def test_validate_accepts_exactly_the_tabled_point_keys(self, method):
        # n, one or a list, with or without c_list: every grid passes.
        for n in (5, [5], [5, 6]):
            for c_list in (None, [20], [20, 30]):
                point_config(method, n=n, c_list=c_list).validate()
        for c_list in (None, [20]):
            with pytest.raises(ConfigError) as exc:
                point_config(method, c_list=c_list).validate()
            assert str(exc.value) == ("n must be an integer or a non-empty "
                                      "list of integers, got None")

    @pytest.mark.parametrize("method", METHOD_VALUES, ids=METHOD_IDS)
    @pytest.mark.parametrize("empty", ["n", "c_list"])
    def test_empty_list_is_an_error(self, tmp_path, method, empty):
        path = tmp_path / "cfg.json"
        for keys in (("n",), ("n", "c_list")):
            config = replace(point_config(method, keys), **{empty: []})
            with pytest.raises(ConfigError):
                config.validate()
            raw = {k: v for k, v in vars(config).items() if v is not None}
            path.write_text(json.dumps(dict(raw,
                                            schema_version=SCHEMA_VERSION)))
            with pytest.raises(ConfigError):
                load_config(path)

    def test_configs_readme_tables_the_figures_and_keys(self):
        # The figure table names each config's methods, in order, and the
        # Keys section tables the config keys (three cells a row).
        text = (CONFIGS / "README.md").read_text()
        figures = re.findall(r"^\| fig\d \| (fig\d) \| ([^|]+) \|", text,
                             re.M)
        assert {name: re.findall(r"`(\w+)`", methods)
                for name, methods in figures} == {
            p.stem: harness._methods(load_config(p))
            for p in CONFIGS.glob("*.json")}
        keys = text.split("## Keys")[1].split("\n## ")[0]
        assert re.findall(r"^\| `(\w+)` \|[^|]+\|[^|]+\|$", keys, re.M) == [
            f.name for f in fields(ExperimentConfig)]

    def test_configs_readme_tables_the_csv_columns(self):
        # One table row per column, in order; the `m`, `n` row names two.
        schema = (CONFIGS / "README.md").read_text().split("## CSV schema")[1]
        cells = re.findall(r"^\| (`.+?`) \|", schema.split("\n## ")[0], re.M)
        assert [name for cell in cells
                for name in re.findall(r"`(\w+)`", cell)] == CSV_COLUMNS

    @pytest.mark.parametrize("jobs", [0, -1, 2.5, True, "2"])
    def test_validate_rejects_bad_jobs(self, jobs):
        with pytest.raises(ConfigError, match=r"\bjobs\b"):
            small_sweep_config(jobs=jobs).validate()

    @pytest.mark.parametrize(
        "name", [p.stem for p in sorted(CONFIGS.glob("*.json"))])
    def test_shipped_configs(self, name):
        config = load_config(CONFIGS / f"{name}.json")
        assert config.method == SHIPPED_METHODS[name]
        assert sweep_points(config) == SHIPPED_POINTS[name]

    def test_shipped_configs_are_distinct(self):
        # A figure that plots other columns of another figure's trials is
        # a view of that figure's CSV, not a second config.
        configs = {p.name: load_config(p) for p in CONFIGS.glob("*.json")}
        for a, b in combinations(sorted(configs), 2):
            assert configs[a] != configs[b], (a, b)


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_golden_values(self):
        # Schema 2's rp seeds: only rp rows carry one, with the same bits.
        assert derive_seed(0, 0, 0) == 7559663011601410144
        assert derive_matrix_seed(101, 0) == 15300423673866037780

    def test_no_collisions_across_axes(self):
        seeds = {
            derive_seed(ms, p, t)
            for ms in range(3) for p in range(4) for t in range(5)
        }
        assert len(seeds) == 3 * 4 * 5


class TestRunOneTrial:
    def test_rp_on_singular_matrix(self):
        cfg = ExperimentConfig(m=500, n=50, kappa=1e15,
                               c_list=[150], method="rp", trials=1,
                               master_seed=3)
        rows = run_experiment(cfg)
        assert not rows[0]["breakdown"]
        assert rows[0]["residual"] <= 1e-14
        assert rows[0]["kappa_A1"] is not None and rows[0]["eta"] is not None

    def test_basic_on_orthonormal_input(self):
        cfg = ExperimentConfig(m=300, n=30, kappa=1.0,
                               matrix_kind="haar_rotated", method="basic",
                               trials=1, master_seed=4)
        rows = run_experiment(cfg)
        assert rows[0]["deviation"] <= 1e-14
        assert rows[0]["c"] is None and rows[0]["kappa_A1"] is None
        assert rows[0]["eta"] is None

    def test_deterministic_modulo_wall_time(self):
        cfg = ExperimentConfig(m=200, n=20, kappa=1e10,
                               c_list=[60], method="rp", trials=1,
                               master_seed=5)
        (r1,) = run_experiment(cfg)
        (r2,) = run_experiment(cfg)
        assert r1["deviation"] == r2["deviation"]
        assert r1["residual"] == r2["residual"]
        assert r1["kappa_A1"] == r2["kappa_A1"]
        assert r1["seed"] == r2["seed"]

    def test_basic_breakdown_recorded_not_raised(self):
        cfg = ExperimentConfig(m=400, n=40, kappa=1e15,
                               method="basic", trials=1, master_seed=6)
        rows = run_experiment(cfg)
        assert rows[0]["breakdown"]
        assert rows[0]["deviation"] is None and rows[0]["residual"] is None

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_is_one_point_one_trial_sweep(self, method):
        # A one-trial run is trial 0 at the first point of any longer sweep:
        # seeds derive from (point, trial), not from the trial count or the
        # list's other methods.  A method that samples no rows takes no c.
        samples = METHODS[method].samples_c
        one = ExperimentConfig(m=200, n=20, kappa=1e10,
                               c_list=[60] if samples else None,
                               method=method, trials=1, master_seed=12)
        (row,) = run_experiment(one)
        points = dict(c_list=[60, 80]) if samples else dict(n=[20, 30])
        other = "basic" if method == "cqr2" else "cqr2"
        swept = run_experiment(replace(one, trials=3, method=[other, method],
                                       **points))
        assert _stripped([row]) == _stripped(swept[1:2])


class TestSweeps:
    def test_sweep_c_shapes(self):
        cfg = small_sweep_config()
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 3
        assert len(format_summary(cfg, rows).splitlines()) == 1 + 2

    def test_sweep_n_uses_3n_samples(self):
        cfg = ExperimentConfig(m=300, kappa=1e12,
                               n=[10, 20], trials=2, master_seed=7)
        rows = run_experiment(cfg)
        assert {r["c"] for r in rows} == {30, 60}
        est = [r["estimate_5_2"] for r in rows if not r["breakdown"]]
        kap = [r["kappa_A1"] for r in rows if not r["breakdown"]]
        u = 2.220446049250313e-16
        assert all(e == 4 * u * k for e, k in zip(est, kap))

    def test_list_n_with_c_list_runs_the_grid(self):
        cfg = small_sweep_config(n=[20, 30], c_list=[60, 90], trials=2)
        assert sweep_points(cfg) == [(20, 60), (20, 90), (30, 60), (30, 90)]
        rows = run_experiment(cfg)
        assert [(r["n"], r["c"], r["trial"]) for r in rows] == [
            (20, 60, 0), (20, 60, 1), (20, 90, 0), (20, 90, 1),
            (30, 60, 0), (30, 60, 1), (30, 90, 0), (30, 90, 1)]
        assert [line.split()[:2] for line in
                format_summary(cfg, rows).splitlines()[1:]] == [
            ["20", "60"], ["20", "90"], ["30", "60"], ["30", "90"]]

    def test_method_list_runs_in_its_order(self):
        cfg = ExperimentConfig(method=["rp", "cqr2"],
                               matrix_kind="haar_rotated", m=300, n=30,
                               kappa=1e5, c_list=[90], trials=2,
                               master_seed=8)
        rows = run_experiment(cfg)
        assert [r["method"] for r in rows] == ["rp", "cqr2"] * 2
        assert [line.split()[2] for line in
                format_summary(cfg, rows).splitlines()[1:]] == ["rp", "cqr2"]
        # The reversed list runs the same rows, each trial's cqr2 first.
        reversed_rows = run_experiment(replace(cfg, method=["cqr2", "rp"]))
        assert [r["method"] for r in reversed_rows] == ["cqr2", "rp"] * 2
        assert _stripped(reversed_rows) == _stripped(
            [rows[1], rows[0], rows[3], rows[2]])

    @pytest.mark.parametrize("entry, config", [
        ("sweep_c", dict(m=100, n=10, kappa=1e10,
                         c_list=[20, 30], trials=2, master_seed=19)),
        ("compare_cqr2", dict(method=["rp", "cqr2"],
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
        cfg = ExperimentConfig(method=["rp", "cqr2"],
                               matrix_kind="haar_rotated", m=100, n=10,
                               kappa=1e3, c_list=[30, 40], trials=2,
                               master_seed=13)
        rows = run_experiment(cfg)
        assert calls == [(100, 10)] * 2  # one run per point
        assert [r["breakdown"] for r in rows if r["method"] == "cqr2"] == \
            [True] * 4

    def test_one_matrix_and_one_norm_per_point(self, monkeypatch):
        counts = {"haar_rotated": 0, "spectral_norm": 0, "cholesky_qr2": 0}

        def counting(name):
            original = getattr(harness, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(harness, name, counting(name))
        cfg = ExperimentConfig(method=["rp", "cqr2"],
                               matrix_kind="haar_rotated", m=100, n=10,
                               kappa=1e5, c_list=[30, 40], trials=3,
                               master_seed=15)
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 3 * 2
        assert counts == {"haar_rotated": 2, "spectral_norm": 2,
                          "cholesky_qr2": 2}

    @pytest.mark.parametrize("config", [
        dict(method=["rp", "cqr2"], matrix_kind="haar_rotated", n=15,
             kappa=1e7, c_list=[30, 45]),
        *(dict(n=[10, 15], kappa=1e12, method=m)
          for m in ("basic", "cqr2", "precond")),
    ], ids=["compare_cqr2", "sweep_n-basic", "sweep_n-cqr2",
            "sweep_n-precond"])
    def test_rows_equal_one_run_per_row(self, config):
        # The oracle runs every (trial, method) on the generator's own
        # matrix; the harness runs a seed-free method once per point.
        cfg = ExperimentConfig(m=150, trials=3, master_seed=24, **config)
        methods = harness._methods(cfg)
        expected = []
        for i, (n, c) in enumerate(sweep_points(cfg)):
            A = MATRIX_KINDS[cfg.matrix_kind](
                cfg.m, n, cfg.kappa, derive_matrix_seed(cfg.master_seed, i))
            expected += [harness.run_trial(
                cfg, A, spectral_norm(A), n, c, t, meth,
                derive_seed(cfg.master_seed, i, t))
                for t in range(cfg.trials) for meth in methods]
        rows = run_experiment(cfg)
        assert _stripped(rows) == _stripped(expected)
        per_point = cfg.trials * len(methods)
        for k, row in enumerate(rows):
            if not METHODS[row["method"]].samples_c:
                first = rows[k // per_point * per_point
                             + methods.index(row["method"])]
                assert first["trial"] == 0
                assert row["wall_time_s"] == first["wall_time_s"]

    def test_methods_get_a_read_only_column_major_matrix(self, monkeypatch):
        flags = []

        def capturing(name):
            original = getattr(harness, name)

            def wrapper(A, *args):
                flags.append((name, A.flags.f_contiguous, A.flags.writeable))
                return original(A, *args)
            return wrapper

        for name in ("rp_cholesky_qr", "cholesky_qr2"):
            monkeypatch.setattr(harness, name, capturing(name))
        run_experiment(ExperimentConfig(
            method=["rp", "cqr2"], matrix_kind="haar_rotated", m=100,
            n=10, kappa=1e5, c_list=[30], trials=2, master_seed=25))
        assert flags == [("rp_cholesky_qr", True, False),
                         ("cholesky_qr2", True, False),
                         ("rp_cholesky_qr", True, False)]

    @pytest.mark.parametrize("config", [
        dict(method=["rp", "cqr2"], matrix_kind="haar_rotated", m=150,
             n=15, kappa=1e7, c_list=[30, 45], trials=2, master_seed=16),
        dict(matrix_kind="worst_coherence", m=150,
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
                f, R_s, R2 = rp_cholesky_qr(A, row["c"], row["seed"])
                cells = measure(A, spectral_norm(A), f, R2, R_s)
                for key in ("kappa_A1", "eta", "estimate_5_2"):
                    assert row[key] == cells[key]
                assert max(svd_ratios(row, A, a1(A, R_s), R_s)) <= BOUND
            else:
                f = cholesky_qr2(A)
                assert row["c"] is None and row["seed"] is None
                assert row["kappa_A1"] is None and row["eta"] is None
            assert row["deviation"] == ortho_deviation(f.Q)
            assert row["residual"] == rel_residual(A, f)

    def test_breakdowns_become_rows(self):
        cfg = ExperimentConfig(m=300, n=30,
                               kappa=1e15, trials=2, method="basic",
                               master_seed=9)
        rows = run_experiment(cfg)
        assert len(rows) == 2
        assert all(r["breakdown"] for r in rows)
        assert all(r["deviation"] is None for r in rows)
        assert format_summary(cfg, rows).splitlines()[1].split()[3] == "2"


def _set_cores(monkeypatch, cores):
    """Both of the OS's core counts read ``cores``."""
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(harness.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)


def _stripped(rows):
    return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]


class _PlantedError(Exception):
    pass


def _fault_rounds(rounds=4):
    """Minor page faults of each round of four 2000x200 arrays made and
    freed; under 4 MiB each, so numpy backs none with huge pages."""
    import resource

    faults = []
    for _ in range(rounds):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones((2000, 200)) for _ in range(4)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    return faults


class TestParallelPoints:
    """``jobs > 1`` runs the points in forked workers, with the same rows."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The size of each pool made, on a machine with 8 cores.

        A pool that hangs ends the test run, with a traceback, after 120 s.
        """
        sizes, fork = [], multiprocessing.get_context("fork")

        class Context:
            def Pool(self, processes, **kwargs):
                sizes.append(processes)
                return fork.Pool(processes, **kwargs)

        def get_context(method):
            assert method == "fork"
            return Context()

        _set_cores(monkeypatch, 8)
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        faulthandler.dump_traceback_later(120, exit=True)
        yield sizes
        faulthandler.cancel_dump_traceback_later()

    @pytest.mark.parametrize("config, points", [
        (dict(m=150, n=15, kappa=1e15,
              c_list=[30, 45, 60], trials=2), 3),
        (dict(m=150, n=[5, 10, 15], kappa=1e12,
              trials=2), 3),
        (dict(m=150, n=[10, 15], kappa=1e15,
              method="basic", trials=2), 2),
        (dict(method=["rp", "cqr2"], matrix_kind="haar_rotated", m=150,
              n=15, kappa=1e7, c_list=[30, 45], trials=2), 2),
        (dict(method=["rp", "cqr2"], matrix_kind="haar_rotated", m=150,
              n=[5, 10, 15], kappa=1e7, trials=2), 3),
        (dict(method=["rp", "cqr2"], matrix_kind="haar_rotated", m=150,
              n=[10, 15], c_list=[30, 45], kappa=1e7, trials=2), 4),
        (dict(m=150, n=15, kappa=1e15, trials=1), 1),
        # The smallest point's 3 trials split 1 + 2 between the workers.
        (dict(m=150, n=15, kappa=1e15,
              c_list=[30, 45, 60, 75, 90], trials=3), 5),
        # The smallest point's one trial is one task, not 0 + 1.
        (dict(method=["rp", "cqr2"], matrix_kind="haar_rotated", m=150,
              n=[5, 10, 15], kappa=1e7, trials=1), 3),
    ], ids=["sweep_c", "sweep_n", "sweep_n-basic", "compare_cqr2-c_list",
            "compare_cqr2-n-list", "compare_cqr2-grid", "sweep_c-one-trial",
            "sweep_c-5-points", "compare_cqr2-one-trial"])
    def test_rows_do_not_depend_on_jobs(self, pools, config, points):
        cfg = ExperimentConfig(master_seed=23, **config)
        serial = run_experiment(cfg)
        assert pools == []
        parallel = run_experiment(replace(cfg, jobs=2))
        assert _stripped(parallel) == _stripped(serial)
        assert pools == ([2] if points > 1 else [])
        assert multiprocessing.active_children() == []
        # A seed-free method ran once per point: its rows copy that run.
        walls = {}
        for k, row in enumerate(parallel):
            if not METHODS[row["method"]].samples_c:
                walls.setdefault((k * points // len(parallel), row["method"]),
                                 set()).add(row["wall_time_s"])
        assert all(len(wall) == 1 for wall in walls.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rp_cqr2_list_keeps_the_compare_cqr2_rows(self, pools, jobs):
        # fig7 and fig8's list gives the rows of the compare_cqr2 experiment
        # it replaced, at any jobs: each rp seed, pinned from that
        # experiment, comes from (point, trial), and each row's accuracy to
        # four digits.  A cqr2 row draws no sample, so it has no seed.
        cfg = ExperimentConfig(method=["rp", "cqr2"],
                               matrix_kind="haar_rotated", m=150, n=15,
                               kappa=1e7, c_list=[30, 45], trials=2,
                               master_seed=23, jobs=jobs)
        rows = run_experiment(cfg)
        assert pools == ([2] if jobs == 2 else [])
        assert [(r["c"], r["trial"], r["seed"], r["method"],
                 f"{r['deviation']:.3e}", f"{r['residual']:.3e}")
                for r in rows] == [
            (30, 0, 13530773724581049940, "rp", "1.878e-15", "1.471e-16"),
            (None, 0, None, "cqr2", "4.926e-16", "1.149e-16"),
            (30, 1, 11002032494793026582, "rp", "3.334e-15", "1.553e-16"),
            (None, 1, None, "cqr2", "4.926e-16", "1.149e-16"),
            (45, 0, 15326728224645665625, "rp", "1.026e-15", "1.596e-16"),
            (None, 0, None, "cqr2", "1.345e-15", "9.035e-17"),
            (45, 1, 8896585314658823669, "rp", "1.122e-15", "1.462e-16"),
            (None, 1, None, "cqr2", "1.345e-15", "9.035e-17")]
        assert {r["matrix_kind"] for r in rows} == {"haar_rotated"}
        assert "experiment" not in rows[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_only_a_drawn_sample_has_sample_cells(self, pools, jobs):
        # Every method in one run: a row's c and seed are empty exactly when
        # its method draws no sample.  An rp row's seed is its (point,
        # trial)'s; a seed-free row is its trial-0 row with another trial.
        cfg = ExperimentConfig(method=list(METHODS),
                               matrix_kind="haar_rotated", m=150, n=15,
                               kappa=1e7, c_list=[30, 45], trials=3,
                               master_seed=23, jobs=jobs)
        rows = run_experiment(cfg)
        assert pools == ([2] if jobs == 2 else [])
        per_point = cfg.trials * len(METHODS)
        for k, row in enumerate(rows):
            point, samples = k // per_point, METHODS[row["method"]].samples_c
            assert (row["c"] is None) == (row["seed"] is None) == (
                not samples)
            if samples:
                assert row["seed"] == derive_seed(cfg.master_seed, point,
                                                  row["trial"])
            else:
                first = rows[point * per_point
                             + list(METHODS).index(row["method"])]
                assert row == dict(first, trial=row["trial"])

    def test_serial_run_deals_tasks_and_places_rows_by_key(self,
                                                           monkeypatch):
        # Each trial its own task, in reverse order: the rows still land at
        # their (point, trial, method), as the run with whole points.
        cfg = ExperimentConfig(method=["rp", "cqr2"],
                               matrix_kind="haar_rotated", m=150, n=15,
                               kappa=1e7, c_list=[30, 45], trials=3,
                               master_seed=23)
        whole = run_experiment(cfg)
        dealt = []

        def per_trial(points, trials, jobs):
            dealt.append(jobs)
            return [(*p, t, t + 1) for p in reversed(points)
                    for t in reversed(range(trials))]

        monkeypatch.setattr(harness, "_tasks", per_trial)
        rows = run_experiment(cfg)
        assert dealt == [1]
        assert _stripped(rows) == _stripped(whole)
        for point in (rows[:6], rows[6:]):  # cqr2 ran at trial 0 only
            assert len({r["wall_time_s"] for r in point
                        if r["method"] == "cqr2"}) == 1
        # A task list without trial 0 leaves no row to copy: an error, not
        # a shifted table.
        monkeypatch.setattr(harness, "_tasks", lambda points, trials, jobs:
                            [(*p, 1, trials) for p in points])
        with pytest.raises(KeyError):
            run_experiment(cfg)

    def test_tasks_deal_whole_points_then_split_the_rest(self):
        points = [(i, 100, c) for i, c in enumerate([200, 300, 400, 600])]
        points.append((4, 50, 800))  # n * c = 40000, as at point 2
        whole = [(3, 100, 600, 0, 10), (2, 100, 400, 0, 10),
                 (4, 50, 800, 0, 10), (1, 100, 300, 0, 10)]
        assert harness._tasks(points, 10, 2) == whole + [
            (0, 100, 200, 0, 5), (0, 100, 200, 5, 10)]
        assert harness._tasks(points, 3, 2)[-2:] == [
            (0, 100, 200, 0, 1), (0, 100, 200, 1, 3)]
        assert harness._tasks(points, 10, 5) == harness._tasks(
            points, 10, 1) == whole + [(0, 100, 200, 0, 10)]
        # 5 points on 3 workers: the 2 smallest split; no task is empty.
        assert harness._tasks(points, 2, 3) == [
            (3, 100, 600, 0, 2), (2, 100, 400, 0, 2), (4, 50, 800, 0, 2),
            (1, 100, 300, 0, 1), (1, 100, 300, 1, 2),
            (0, 100, 200, 0, 1), (0, 100, 200, 1, 2)]

    @pytest.mark.parametrize("jobs, cores, size", [
        (2, 8, 2), (5, 8, 3), (5, 2, 2), (5, 1, None), (1, 8, None)])
    def test_pool_size(self, pools, monkeypatch, jobs, cores, size):
        # The affinity mask counts the cores; os.cpu_count() still reads 8.
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        run_experiment(small_sweep_config(c_list=[40, 60, 80], trials=1,
                                          jobs=jobs))
        assert pools == ([] if size is None else [size])

    def test_pool_size_without_affinity_mask(self, pools, monkeypatch):
        # Where the OS has no affinity mask (macOS, Windows), cpu_count().
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        run_experiment(small_sweep_config(c_list=[40, 60, 80], trials=1,
                                          jobs=5))
        assert pools == [2]

    def test_one_core_in_the_affinity_mask_runs_serially(self, monkeypatch):
        # Under `taskset -c 0` on an 8-core machine, "jobs": 2 forks nothing.
        def no_pool(method):
            raise AssertionError("a pool was made")

        cfg = small_sweep_config(jobs=2)
        serial = run_experiment(replace(cfg, jobs=1))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert _stripped(run_experiment(cfg)) == _stripped(serial)

    def test_jobs_above_one_runs_serially_without_fork(self, monkeypatch):
        # Where multiprocessing has no fork (Windows), a shipped config with
        # "jobs": 2 still runs: in this process, with the rows of jobs=1.
        def no_pool(method):
            raise AssertionError("a pool was made")

        cfg = small_sweep_config(jobs=2)
        serial = run_experiment(replace(cfg, jobs=1))
        _set_cores(monkeypatch, 8)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert _stripped(run_experiment(cfg)) == _stripped(serial)

    def test_no_pool_when_serial_or_invalid(self, monkeypatch):
        def no_pool(method):
            raise AssertionError("a pool was made")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert len(run_experiment(small_sweep_config(jobs=1))) == 2 * 3
        one_point = small_sweep_config(c_list=[40], jobs=2)
        assert len(run_experiment(one_point)) == 3
        one_row = ExperimentConfig(m=200, n=20,
                                   trials=1, jobs=2)
        assert len(run_experiment(one_row)) == 1
        with pytest.raises(ConfigError):
            run_experiment(small_sweep_config(jobs=0))

    def test_worker_error_reaches_the_caller(self, pools, monkeypatch):
        measure = harness.measure

        def failing(A, *args, **kwargs):
            if A.shape[1] == 15:
                raise _PlantedError("planted")
            return measure(A, *args, **kwargs)

        monkeypatch.setattr(harness, "measure", failing)
        cfg = ExperimentConfig(m=150, n=[5, 10, 15],
                               kappa=1e12, trials=2, jobs=2)
        with pytest.raises(_PlantedError, match="^planted$"):
            run_experiment(cfg)
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_workers_keep_their_freed_pages(self):
        # About 3100 faults a round without the workers' malloc policy.
        import ctypes

        if "fork" not in multiprocessing.get_all_start_methods() or \
                not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("needs fork and glibc's mallopt")
        with multiprocessing.get_context("fork").Pool(
                1, initializer=harness._keep_freed_pages) as pool:
            faults = pool.apply(_fault_rounds)
        assert faults[0] > 1000
        assert max(faults[1:]) < 100, faults


class TestRankDeficientSample:
    def test_is_a_breakdown_row_after_one_call_on_the_row_seed(
            self, monkeypatch):
        seeds = []

        def deficient(A, c, seed):
            seeds.append(seed)
            raise RankDeficientSampleError("planted")

        monkeypatch.setattr(harness, "rp_cholesky_qr", deficient)
        (row,) = run_experiment(ExperimentConfig(
            m=200, n=20, kappa=1e10, c_list=[60],
            method="rp", trials=1, master_seed=14))
        assert row["breakdown"] and row["deviation"] is None
        assert row["kappa_A1"] is None and row["eta"] is None
        assert seeds == [row["seed"]]


class TestEmitCsv:
    def test_schema_and_empty_cells(self, tmp_path):
        cfg = ExperimentConfig(m=100, n=10, kappa=1e15,
                               method="basic", trials=1, master_seed=10)
        rows = run_experiment(cfg)
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row["method"] == "basic"
        assert row["c"] == "" and row["kappa_A1"] == "" and row["eta"] == ""
        assert row["seed"] == ""
        assert row["breakdown"] in ("true", "false")

    def test_unwritable_path_is_named(self, tmp_path):
        rows = run_experiment(ExperimentConfig(
            m=100, n=10, method="basic", trials=1))
        path = tmp_path / "no_dir" / "out.csv"
        with pytest.raises(OSError, match=f"^{re.escape(str(path))}: "
                                          "cannot write CSV: "):
            emit_csv(rows, path)

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
    def test_one_trial_runs(self, capsys):
        rc = main(["run", "--m", "200", "--n", "20", "--trials", "1",
                   "--kappa", "1e10", "--matrix", "worst_coherence",
                   "--method", "rp",
                   "--seed", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["n", "c", "method", "broke", "dev(gmean)",
                                    "res(gmean)", "kA1(mean)", "est(gmean)"]
        assert [line.split()[:4] for line in lines[1:]] == [
            ["20", "60", "rp", "0"]]

    def test_trials_one_runs_one_trial_at_each_point(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        rc = main(["run", "--m", "200", "--n", "20", "--c", "40,60",
                   "--trials", "1", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:4] for line in lines[1:-1]] == [
            ["20", "40", "rp", "0"], ["20", "60", "rp", "0"]]
        assert lines[-1] == f"wrote 2 rows to {out}"
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["c"], r["trial"]) for r in rows] == [("40", "0"),
                                                        ("60", "0")]

    def test_sweep_c_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["run", "--m", "200", "--n", "20", "--c", "40,60",
                   "--kappa", "1e12", "--trials", "2", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        with open(out) as fh:
            assert fh.readline().strip() == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("key, raw", [
        *((k, {"n": 10, k: None})
          for k in ("trials", "jobs", "master_seed", "m")),
        ("n", {"n": None}), ("n", {}),
    ], ids=["trials", "jobs", "master_seed", "m", "n", "no-n"])
    def test_null_or_missing_key_is_named(self, tmp_path, capsys, key, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                    "m": 100, **raw}))
        assert main(["run", "--config", str(path)]) == 1
        kind = ("an integer or a non-empty list of integers" if key == "n"
                else "an integer")
        assert capsys.readouterr() == (
            "", f"error: {key} must be {kind}, got None\n")

    def test_config_error_exit_code(self, tmp_path, capsys):
        array, fractional = tmp_path / "array.json", tmp_path / "frac.json"
        syntax = tmp_path / "syntax.json"
        array.write_text("[]")
        syntax.write_text("{")
        fractional.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "n": 10, "m": 200.0}))
        for argv in (
            ["run", "--m", "100", "--n", "200", "--c", "300"],
            ["run", "--n", "100", "--c", "50"],
            ["run", "--method", "rp,cqr2", "--c", "10", "--n", "20"],
            ["run", "--n", "10", "--kappa", "nan"],
            ["run", "--n", "10", "--kappa", "inf"],
            ["run", "--n", "10", "--kappa", "0.5"],
            ["run", "--n", "0"],
            ["run", "--n", "0,10"],
            ["run", "--config", str(CONFIGS / "fig1.json"),
             "--n", "10,300"],
            ["run", "--n", "10,40", "--c", "30"],
            ["run", "--config", str(CONFIGS / "fig3.json"), "--c", "50"],
            ["run", "--method", "basic", "--m", "100", "--n", "10",
             "--c", "50"],
            ["run", "--method", "cqr2", "--m", "100", "--n", "10",
             "--c", "20,30"],
            ["run", "--n", "10", "--seed", "-1"],
            ["run", "--m", "100", "--n", "10", "--c", "20,30",
             "--jobs", "0"],
            ["run", "--method", "rp,basic,rp", "--matrix", "haar_rotated",
             "--m", "200", "--n", "10", "--c", "30", "--trials", "1",
             "--kappa", "1e3"],
            ["run", "--n", "10", "--method", "bogus"],
            ["run", "--n", "10", "--method", "rp,"],
            ["run", "--config", str(array)],
            ["run", "--config", str(fractional)],
            ["bounds", "--kappa-a1", "10", "--eta", "nan"],
            ["bounds", "--kappa-a1", "10", "--eta", "-3"],
            ["bounds", "--kappa-a1", "10", "--eta", "20"],
            ["bounds", "--eps", "-1", "--kappa-a1", "10"],
            ["run", "--config", str(tmp_path / "missing.json")],
            ["run", "--config", str(syntax)],
        ):
            rc = main(argv)
            assert rc == 1, argv
            assert capsys.readouterr().err.startswith("error: "), argv

    @pytest.mark.parametrize("name", ["fig7", "fig1"])
    def test_schema_1_file_is_named(self, tmp_path, name, capsys):
        # A shipped config as schema 1 wrote it: no alias reads it.
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        method = raw.pop("method")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(
            raw, schema_version=1,
            experiment="sweep_c" if method == "rp" else "compare_cqr2")))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: missing or unsupported schema_version\n")

    @pytest.mark.parametrize("name", ["fig7", "fig1"])
    def test_schema_2_file_is_named(self, tmp_path, name, capsys):
        # A shipped config as schema 2 wrote it, when every row had a seed:
        # no alias reads it.
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(raw, schema_version=2)))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: missing or unsupported schema_version\n")

    @pytest.mark.parametrize(
        "command", ["single", "sweep-c", "sweep-n", "compare-cqr2"])
    def test_old_subcommands_are_usage_errors(self, tmp_path, command,
                                              capsys):
        # Every sweep is `run`; no alias keeps an old name.
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert re.findall(r"[\w-]+", err.split("choose from")[1]) == [
            "run", "bounds"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                    "experiment": "sweep_c", "n": 10}))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: unknown config keys ['experiment']\n"

    def test_m_beyond_numpys_size_limit_is_named(self, capsys):
        # Before any array is made: numpy could not even shape it.
        assert main(["run", "--m", "1" + "0" * 30, "--n", "5",
                     "--trials", "1"]) == 1
        assert capsys.readouterr() == ("", (
            "error: an m x n float64 array is beyond numpy's size limit, "
            f"got m={10 ** 30}, n=5\n"))

    @pytest.mark.parametrize("c", [2 ** 32 + 1, 10 ** 20])
    def test_c_above_2_to_the_32_is_named(self, c, capsys, monkeypatch):
        # Before any trial: 1e20 draws would run for millennia.
        def no_trials(config):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("rpcqr.cli.run_experiment", no_trials)
        assert main(["run", "--n", "5", "--c", str(c), "--trials", "1"]) == 1
        assert capsys.readouterr() == (
            "", f"error: every c must be <= {2 ** 32}, got c={c}\n")

    @pytest.mark.parametrize("argv", [
        ["run", "--n", ","],
        ["run", "--n", "5", "--c", ","],
        ["run", "--n", "abc"],
    ])
    def test_int_list_without_ints_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected comma-separated ints" in err
        assert "Traceback" not in err

    def test_method_help_comes_from_method_table(self):
        # --method takes any list of names; validate, not argparse, rejects
        # an unknown one (exit 1), as for a config file's method.
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        method = next(a for a in sub.choices["run"]._actions
                      if a.dest == "method")
        assert method.choices is None
        assert re.findall(r"\w+", method.help.split(", or")[0])[2:] == \
            list(METHODS)
        for argv, value in ((["--method", "cqr2"], ["cqr2"]),
                            (["--method", "rp,cqr2"], ["rp", "cqr2"]),
                            ([], ["rp", "cqr2"])):
            args = build_parser().parse_args(
                ["run", "--config", str(CONFIGS / "fig8.json"), *argv])
            assert _build_config(args).method == value

    def test_io_error_exit_code(self, tmp_path, capsys):
        rc = main(["run", "--m", "100", "--n", "10", "--c", "30",
                   "--trials", "1",
                   "--out", str(tmp_path / "no_dir" / "x.csv")])
        assert rc == 2

    def test_unwritable_out_fails_before_any_trial(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_trials(config):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("rpcqr.cli.run_experiment", no_trials)
        path = tmp_path / "no_dir" / "x.csv"
        rc = main(["run", "--m", "400", "--n", "20", "--c", "40,60",
                   "--trials", "3", "--out", str(path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: cannot write CSV: ")

    def test_singular_preconditioned_matrix_is_a_row(self, capsys,
                                                     monkeypatch):
        # The 10 draws hold 7 distinct rows, fewer than n = 10, so the
        # sample is rejected before its QR and the row is a breakdown.
        raised = []

        def spy(*args, _fn=harness.rp_cholesky_qr):
            try:
                return _fn(*args)
            except RankDeficientSampleError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(harness, "rp_cholesky_qr", spy)
        rc = main(["run", "--m", "50", "--n", "10", "--c", "10",
                   "--trials", "1", "--matrix", "haar_rotated", "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].split() == [
            "10", "10", "rp", "1", "-", "-", "-", "-"]
        assert raised == [
            "c=10 draws hold 7 distinct rows, fewer than n=10"]

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
        (["--eps", "1e-16", "--kappa-a1", "1e3", "--eta", "2",
          "--first-order"],
         ["assumption_ok=True", "cond_factor=1.0000000003000002",
          "ortho_bound=4e-10", "residual_bound=2.005e-13", "eta=2.0",
          "kappa_preconditioned=1000.0"]),
    ], ids=["assumption_holds", "assumption_fails", "first_order"])
    def test_bounds_output_golden(self, argv, lines, capsys):
        assert main(["bounds", *argv]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_summary_table_golden(self, capsys):
        # 2 points x 2 trials; cqr2 breaks down on the first point's matrix
        # only, and its lines, like its CSV cells, carry no c.
        rc = main(["run", "--method", "rp,cqr2", "--matrix", "haar_rotated",
                   "--m", "100",
                   "--n", "10", "--c", "20,30", "--kappa", "1e9",
                   "--trials", "2", "--seed", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("     n      c   method broke   dev(gmean)   "
                            "res(gmean)    kA1(mean)   est(gmean)")
        assert [line.split()[:4] for line in lines[1:]] == [
            ["10", "20", "rp", "0"], ["10", "-", "cqr2", "2"],
            ["10", "30", "rp", "0"], ["10", "-", "cqr2", "0"]]
        assert [line for line in lines if "cqr2" in line] == [
            "    10      -     cqr2     2" + "            -" * 4,
            "    10      -     cqr2     0    5.703e-16    1.098e-16"
            + "            -" * 2,
        ]
        for line in (lines[1], lines[3]):  # rp: four finite statistics
            assert all(re.fullmatch(r"\d\.\d{3}e[-+]\d\d", cell)
                       for cell in line.split()[4:])
        # A geometric mean over exact zeros is 0, not a point with no data:
        # the one-column precond Q is exact.
        assert main(["run", "--m", "10", "--n", "1,2", "--kappa", "1",
                     "--trials", "1", "--method", "precond"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split()[:6] == ["1", "-", "precond", "0", "0.000e+00",
                                    "0.000e+00"]

    def test_compare_cqr2_runs_on_worst_coherence(self, capsys):
        # Either matrix kind: at kappa 1e15 CholeskyQR2 breaks down where
        # the randomized method does not.
        assert main(["run", "--method", "rp,cqr2", "--m", "400", "--n", "40",
                     "--kappa", "1e15", "--trials", "2", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2:4] for line in lines[1:]] == [
            ["rp", "0"], ["cqr2", "2"]]

    def test_compare_cqr2_with_one_n_runs_at_three_n(self, capsys):
        assert main(["run", "--method", "rp,cqr2", "--m", "100", "--n", "10",
                     "--kappa", "1e3", "--matrix", "haar_rotated",
                     "--trials", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines[1:]] == [
            ["10", "30", "rp"], ["10", "-", "cqr2"]]

    def test_breakdowns_do_not_affect_exit_code(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["run", "--m", "300", "--n", "30",
                   "--kappa", "1e15", "--method", "basic", "--trials", "2",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0

    def test_flags_override_the_file_before_validation(self, tmp_path,
                                                       capsys):
        # The file's c_list alone is invalid at its n; --c replaces it.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "n": 50, "c_list": [40]}))
        argv = ["run", "--config", str(path), "--m", "600",
                "--trials", "1"]
        assert main(argv + ["--c", "100,150"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            "error: every c must be >= n, got c=40, n=50\n"

    @pytest.mark.parametrize("argv, points", [
        (["run", "--config", "fig7", "--c", "600"], [(200, 600)]),
        (["run", "--config", "fig8", "--n", "50"], [(50, 150)]),
        (["run", "--config", "fig1", "--c", "300"], [(100, 300)]),
        (["run", "--config", "fig1", "--n", "50"],
         [(50, c) for c in (200, 300, 400, 600, 800)]),
        (["run", "--n", "10", "--c", "40"], [(10, 40)]),
        (["run", "--method", "rp,cqr2", "--n", "10", "--c", "40"],
         [(10, 40)]),
        (["run", "--n", "10"], [(10, 30)]),
        (["run", "--config", "fig8", "--n", "50", "--c", "300"],
         [(50, 300)]),
        (["run", "--n", "10,20"], [(10, 30), (20, 60)]),
        (["run", "--config", "fig1", "--c", "300,400"],
         [(100, 300), (100, 400)]),
        (["run", "--config", "fig7", "--c", "300,600"],
         [(200, 300), (200, 600)]),
        (["run", "--config", "fig8", "--n", "50,60"],
         [(50, 150), (60, 180)]),
        (["run", "--method", "rp,cqr2", "--n", "10", "--c", "40,50"],
         [(10, 40), (10, 50)]),
        (["run", "--config", "fig3", "--n", "50", "--c", "200"],
         [(50, 200)]),
        (["run", "--method", "precond,rp", "--n", "10,20"],
         [(10, 30), (20, 60)]),
        (["run", "--n", "10", "--c", "40,50"], [(10, 40), (10, 50)]),
        (["run", "--config", "fig1", "--n", "50,100"],
         [(n, c) for n in (50, 100) for c in (200, 300, 400, 600, 800)]),
        (["run", "--config", "fig3", "--c", "400,500"],
         [(n, c) for n in (50, 100, 150, 200) for c in (400, 500)]),
    ])
    def test_flag_replaces_the_files_whole_axis(self, argv, points):
        # --n sets n and --c sets c_list, with one value or several.
        argv = [str(CONFIGS / f"{a}.json") if a.startswith("fig") else a
                for a in argv]
        args = build_parser().parse_args(argv + ["--matrix", "haar_rotated"])
        assert sweep_points(_build_config(args)) == points

    @pytest.mark.parametrize("method", ["rp", "rp,cqr2", "cqr2,rp"])
    @pytest.mark.parametrize("flags, keys", [
        (["--n", "12"], dict(n=12)),
        (["--n", "12", "--c", "30"], dict(n=12, c_list=[30])),
    ], ids=["n", "c"])
    def test_one_value_flag_writes_the_scalar_keys_rows(
            self, tmp_path, method, flags, keys):
        # --n 12 sets n to the list [12], which runs as n = 12 does, and
        # --method rp the list ["rp"], which runs as "rp" does.
        methods = method.split(",")
        flags = ["run", *flags, "--method", method, "--m", "120",
                 "--kappa", "1e10", "--trials", "2", "--seed", "5"]
        config = _build_config(build_parser().parse_args(flags))
        assert config.n == [12] and config.method == methods
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(
            keys, schema_version=SCHEMA_VERSION, m=120, kappa=1e10, trials=2,
            master_seed=5, method=methods if len(methods) > 1 else method)))
        flagged, filed = tmp_path / "flag.csv", tmp_path / "file.csv"
        assert main([*flags, "--out", str(flagged)]) == 0
        assert main(["run", "--config", str(path), "--out",
                     str(filed)]) == 0
        lines = _strip_wall_time(flagged.read_text())
        assert lines == _strip_wall_time(filed.read_text())
        assert len(lines) == 1 + 2 * len(methods)

    def test_config_file_with_cli_override(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "m": 150, "n": 15,
            "c_list": [30], "kappa": 1e8, "trials": 1, "master_seed": 4,
        }))
        out = tmp_path / "o.csv"
        rc = main(["run", "--config", str(cfgp), "--trials", "2",
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
        args = ["run", "--m", "300", "--n", "30", "--c", "60,90",
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
                [sys.executable, "-m", "rpcqr.cli", "run", "--m", "120",
                 "--n", "12", "--trials", "1", "--kappa", "1e10", "--seed",
                 "9", "--out", str(out)],
                check=True, capture_output=True,
            )
            outs.append(_strip_wall_time(out.read_text()))
        assert outs[0] == outs[1]
