"""Smoke test of the benchmark on tiny shapes (m=200, n=20).

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a planted failure is counted, and that tracing leaves no patched
function behind.
"""

import json
from pathlib import Path

import pytest

import run
import tracing

rpcqr = run.import_program()
BENCH = json.loads((Path(__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text())
TINY = {
    "paper_factor": dict(m=200, n=20, c=60),
    "fig7_compare": dict(m=200, n=20, c_list=[40, 60], trials=2),
    "fig2_sweep": dict(m=200, n=20, c_list=[40, 60], trials=2),
}


def bench(capsys, workload, trace=0, seed=5):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)],
                    overrides=TINY[workload])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(TINY)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(capsys, workload, trace):
    code, record, result = bench(capsys, workload, trace)
    assert code == 0, record["detail"]["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert record["detail"]["untraced_ops_patched"] == 0
    for key in ("blas", "blas_threads", "cpu_count", "python", "numpy",
                "scipy", "openblas", "commit", "seed"):
        assert key in record["fingerprint"]


def test_trace_counts(capsys):
    _, _, result = bench(capsys, "fig7_compare", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # 2 points x 2 trials: rp rows call spectral_norm 5 times, cqr2 rows 2.
    assert m["kernels.spectral_norm.calls"] == 4 * 5 + 4 * 2
    assert m["genmat.calls"] == 4
    assert m["genmat.unique_ratio"] == 0.5
    assert m["algorithms.rp_attempts_per_trial"] == 1.0
    _, _, result = bench(capsys, "paper_factor", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["kernels.spectral_norm.calls"] == 0
    assert m["metrics.calls"] == 0
    assert m["kernels.cholesky.calls"] == 1
    assert m["kernels.cholesky.gflop_computed"] == pytest.approx(20 ** 3 / 3e9)


def test_self_times_partition_top_level_spans():
    tracer = tracing.Tracer(rpcqr).install()
    try:
        A = rpcqr.worst_coherence_stack(100, 10, 1e10, seed=0)
        rpcqr.rp_cholesky_qr(A, 30, seed=1)
    finally:
        tracer.remove()
    assert tracing.patched_names(rpcqr) == []
    roots = sum(e - s for _, s, e, parent, _ in tracer.spans if parent < 0)
    assert sum(tracer.self_times()) == pytest.approx(roots, rel=1e-9)
    assert all(t >= -1e-6 for t in tracer.self_times())


@pytest.mark.parametrize("workload", ["paper_factor", "fig2_sweep"])
def test_planted_failure_is_counted(capsys, monkeypatch, workload):
    from rpcqr.kernels import QRFactors

    original = rpcqr.algorithms.rp_cholesky_qr

    def skewed(A, c, seed, rank_tol=0.0):
        f, info, A1 = original(A, c, seed, rank_tol)
        return QRFactors(Q=f.Q * 1.001, R=f.R, method=f.method), info, A1

    monkeypatch.setattr(rpcqr.algorithms, "rp_cholesky_qr", skewed)
    monkeypatch.setattr(rpcqr.harness, "rp_cholesky_qr", skewed)
    code, record, result = bench(capsys, workload)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert record["detail"]["failed_ratio"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_changed_rows_break_reproducibility(capsys, monkeypatch):
    original, calls = rpcqr.harness.sweep_c, []

    def drifting(config):
        rows, summaries = original(config)
        calls.append(1)
        if len(calls) > 1:
            rows[0] = dict(rows[0], seed=rows[0]["seed"] + 1)
        return rows, summaries

    monkeypatch.setattr(rpcqr.harness, "sweep_c", drifting)
    code, record, result = bench(capsys, "fig2_sweep")
    assert code == 1 and result["failed"] == 1
    assert "differs from the first call" in record["detail"]["failures"][0]


def test_tail_rule():
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 1.0, 3)
    xs = [float(i) for i in range(1, 201)]
    assert run.tail(xs) == (180.0, 0.9, 200)
    assert run.tail(xs[:150]) == (135.0, 0.9, 150)
    assert run.tail(xs[:100]) == (90.0, 0.9, 100)
    assert run.tail(xs[:19]) == (19.0, 1.0, 19)
    assert run.tail(xs[:20]) == (10.0, 0.5, 20)


def test_untraced_run_refuses_patched_code(capsys):
    tracer = tracing.Tracer(rpcqr).install()
    try:
        code, record, result = bench(capsys, "paper_factor")
    finally:
        tracer.remove()
    assert code == 1 and not result["correct"]
    assert record["detail"]["untraced_ops_patched"] == 2
