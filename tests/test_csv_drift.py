import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from rpcqr import CSV_COLUMNS, ExperimentConfig, emit_csv, run_experiment

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "csv_drift.py"
_spec = importlib.util.spec_from_file_location("csv_drift", _TOOL)
csv_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_drift)


@pytest.fixture(scope="module")
def rows():
    cfg = ExperimentConfig(experiment="compare_cqr2",
                           matrix_kind="haar_rotated", m=100, n=10,
                           kappa=1e5, c_list=[30], trials=2, master_seed=18)
    return run_experiment(cfg)


def write(tmp_path, name, rows):
    path = tmp_path / name
    emit_csv(rows, path)
    return str(path)


def report(capsys):
    lines = capsys.readouterr().out.splitlines()[1:]
    return {line.split()[0]: line.split()[1:] for line in lines}


def test_identical_tables(tmp_path, capsys, rows):
    base = write(tmp_path, "base.csv", rows)
    new = write(tmp_path, "new.csv",
                [dict(r, wall_time_s=r["wall_time_s"] + 1.0) for r in rows])
    assert csv_drift.main([base, new]) == 0
    out = report(capsys)
    assert list(out) == [c for c in CSV_COLUMNS if c != "wall_time_s"]
    assert all(cells == ["0/4", "0", "0"] for cells in out.values())


def test_float_drift_is_reported_not_failed(tmp_path, capsys, rows):
    base = write(tmp_path, "base.csv", rows)
    moved = [dict(r) for r in rows]
    moved[0]["eta"] *= 1 + 2 ** -50
    new = write(tmp_path, "new.csv", moved)
    assert csv_drift.main([base, new]) == 0
    differ, max_abs, max_rel = report(capsys)["eta"]
    assert differ == "1/4"
    assert float(max_abs) == pytest.approx(rows[0]["eta"] * 2 ** -50,
                                           rel=1e-2)
    assert float(max_rel) == pytest.approx(2 ** -50, rel=1e-2)


@pytest.mark.parametrize("before, after", [
    (float("inf"), 12.0), (float("nan"), 2.0), (2.0, float("nan")),
], ids=["inf_base", "nan_base", "nan_new"])
def test_non_finite_drift_is_infinite(tmp_path, capsys, rows, before, after):
    # A singular A1 writes kappa_A1 = inf; a change from it is not 0 drift.
    table = [dict(r) for r in rows]
    table[0]["kappa_A1"] = before
    base = write(tmp_path, "base.csv", table)
    table[0]["kappa_A1"] = after
    new = write(tmp_path, "new.csv", table)
    assert csv_drift.main([base, new]) == 0
    assert report(capsys)["kappa_A1"] == ["1/4", "inf", "inf"]


@pytest.mark.parametrize("change", [
    lambda rs: [dict(rs[0], seed=rs[0]["seed"] + 1)] + rs[1:],
    lambda rs: [dict(rs[0], method="basic")] + rs[1:],
    lambda rs: [dict(rs[0], eta=None)] + rs[1:],
    lambda rs: rs[:-1],
], ids=["int", "string", "empty", "row_count"])
def test_other_differences_fail(tmp_path, capsys, rows, change):
    base = write(tmp_path, "base.csv", rows)
    new = write(tmp_path, "new.csv", change([dict(r) for r in rows]))
    assert csv_drift.main([base, new]) == 1


def test_header_mismatch_fails(tmp_path, rows):
    base = write(tmp_path, "base.csv", rows)
    new = tmp_path / "new.csv"
    with open(base) as fh:
        table = list(csv.reader(fh))
    table[0][0] = "renamed"
    with open(new, "w", newline="") as fh:
        csv.writer(fh).writerows(table)
    assert csv_drift.main([base, str(new)]) == 1


def test_closed_pipe_exits_quietly(tmp_path, rows):
    # A reader that stops early, like head, must not cost a traceback.
    base = write(tmp_path, "base.csv", rows)
    proc = subprocess.Popen([sys.executable, str(_TOOL), base, base],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 1
