"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Runs at desk scale (m <= 2000).  Full-scale configurations matching the
published figures live in configs/ and are exercised via the CLI.
"""

import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from rpcqr import (
    EPS,
    CholeskyBreakdown,
    ExperimentConfig,
    PerturbationSet,
    basic_bounds,
    coherence,
    dct_columns,
    first_order_bounds,
    growth_factors,
    haar_rotated,
    ortho_deviation,
    preconditioned_bounds,
    preconditioned_cholesky_qr,
    rademacher_diag,
    rp_cholesky_qr,
    run_experiment,
    sample_rows,
    sampling_lower_bound,
    worst_coherence_stack,
)
from rpcqr.cli import main as cli_main
from rpcqr.kernels import (
    cholesky,
    gram,
    householder_qr,
    singular_values,
    spectral_norm,
    tri_solve_right,
)

from dct_reference import dct_matrix, sampled_frame_singular_values

mp.mp.dps = 50


def report(capsys, number, name, ok, detail=""):
    line = f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def geomean(values):
    return math.exp(np.mean(np.log(values)))


@pytest.fixture(scope="module")
def sampling_sweep():
    """Shared data for criteria 2 and 3: c in {2n..8n} on the singular stack."""
    cfg = ExperimentConfig(
        experiment="sweep_c", matrix_kind="worst_coherence", m=2000, n=100,
        kappa=1e15, c_list=[200, 300, 400, 600, 800], trials=10,
        method="rp", master_seed=2024,
    )
    return run_experiment(cfg)


def test_criterion_1_singular_robustness(capsys):
    cfg = ExperimentConfig(
        experiment="sweep_c", matrix_kind="worst_coherence", m=2000, n=100,
        kappa=1e15, c_list=[300], trials=10, method="rp", master_seed=1,
    )
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    clean = [r for r in rows if not r["breakdown"]]
    ok = (
        len(rows) == 10
        and len(clean) >= 9
        and all(r["residual"] <= 5e-15 for r in clean)
        and all(r["deviation"] <= 1e-11 for r in clean)
        and elapsed <= 60.0
    )
    detail = (f"max dev {max(r['deviation'] for r in clean):.2e}, "
              f"max res {max(r['residual'] for r in clean):.2e}, "
              f"{len(rows) - len(clean)} breakdowns, {elapsed:.1f}s")
    report(capsys, 1, "robustness on numerically singular input", ok, detail)


def test_criterion_2_sampling_sweep_shape(capsys, sampling_sweep):
    rows = sampling_sweep
    by_c = {}
    for r in rows:
        if not r["breakdown"]:
            by_c.setdefault(r["c"], []).append(r)
    gm_2n = geomean([r["deviation"] for r in by_c[200]])
    gm_8n = geomean([r["deviation"] for r in by_c[800]])
    mean_kappa_8n = np.mean([r["kappa_A1"] for r in by_c[800]])
    ok = gm_8n <= gm_2n / 10.0 and mean_kappa_8n <= 100.0
    detail = (f"gmean dev {gm_2n:.2e} @2n -> {gm_8n:.2e} @8n, "
              f"mean kappa(A1) {mean_kappa_8n:.1f} @8n")
    report(capsys, 2, "deviation shrinks with sample size", ok, detail)


def test_criterion_3_estimate_tracking(capsys, sampling_sweep):
    rows = sampling_sweep
    clean = [r for r in rows if not r["breakdown"]]
    ratios = [r["deviation"] / (4.0 * EPS * r["kappa_A1"]) for r in clean]
    hits = sum(1e-2 <= x <= 1e2 for x in ratios)
    ok = hits >= 0.9 * len(ratios)
    detail = (f"{hits}/{len(ratios)} ratios in [1e-2, 1e2], "
              f"range [{min(ratios):.2e}, {max(ratios):.2e}]")
    report(capsys, 3, "deviation tracks 4*u*kappa(A1) estimate", ok, detail)


def test_criterion_4_baseline_parity(capsys):
    cfg = ExperimentConfig(
        experiment="compare_cqr2", matrix_kind="haar_rotated", m=2000, n=200,
        kappa=1e7, c_list=[600], trials=10, master_seed=4,
    )
    rows = run_experiment(cfg)
    by_method = {"rp": [], "cqr2": []}
    for r in rows:
        by_method[r["method"]].append(r)
    ok = True
    parts = []
    gms = {}
    for method, rs in by_method.items():
        ok &= len(rs) == 10 and not any(r["breakdown"] for r in rs)
        ok &= all(r["deviation"] <= 1e-13 for r in rs)
        ok &= all(r["residual"] <= 1e-14 for r in rs)
        gms[method] = geomean([r["deviation"] for r in rs])
        parts.append(f"{method} gmean dev {gms[method]:.2e}")
    ratio = gms["rp"] / gms["cqr2"]
    ok &= 0.1 <= ratio <= 10.0
    report(capsys, 4, "parity with CholeskyQR2 on well-conditioned input",
           ok, ", ".join(parts))


def test_criterion_5_breakdown_contrast(capsys):
    # rp samples c = 3n = 150 rows.
    base = dict(experiment="sweep_n", matrix_kind="worst_coherence",
                m=1000, n_list=[50], kappa=1e15, trials=10, master_seed=5)
    failed = {}
    for method in ("basic", "cqr2"):
        rows = run_experiment(ExperimentConfig(**base, method=method))
        failed[method] = sum(
            r["breakdown"] or (r["deviation"] is not None
                               and r["deviation"] >= 1e-2)
            for r in rows
        )
    rp_rows = run_experiment(ExperimentConfig(**base, method="rp"))
    rp_breakdowns = sum(r["breakdown"] for r in rp_rows)
    ok = (failed["basic"] == 10 and failed["cqr2"] == 10
          and rp_breakdowns <= 1)
    detail = (f"basic {failed['basic']}/10 failed, "
              f"cqr2 {failed['cqr2']}/10 failed, "
              f"rp {rp_breakdowns}/10 breakdowns")
    report(capsys, 5, "breakdown contrast vs unpreconditioned methods",
           ok, detail)


def test_criterion_6_reciprocal_spectrum(capsys):
    m, n, c = 500, 20, 100
    worst_pair = worst_cond = 0.0
    for seed in range(20):
        A = haar_rotated(m, n, 1e2, seed=seed)
        _, _, A1 = rp_cholesky_qr(A, c, seed=1000 + seed)
        s = sampled_frame_singular_values(A, c, 1000 + seed)
        s1 = singular_values(A1)
        worst_pair = max(worst_pair, np.max(np.abs(s * s1[::-1] - 1.0)))
        k1 = s1[0] / s1[-1]
        worst_cond = max(worst_cond, abs(s[0] / s[-1] - k1) / k1)
    ok = worst_pair <= 1e-8 and worst_cond <= 1e-8
    detail = f"max pairing err {worst_pair:.2e}, max cond err {worst_cond:.2e}"
    report(capsys, 6, "sampled frame spectrum reciprocal to A1", ok, detail)


def test_criterion_7_two_factor_orthogonality(capsys):
    rng = np.random.default_rng(7)
    worst_margin = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        m = n + int(rng.integers(5, 50))
        # kappa(G) <= 1e8 via singular values of B in [1e-4, 1].
        B = rng.standard_normal((m, n)) @ np.diag(
            np.logspace(0, -rng.uniform(0, 4), n)
        )
        G = gram(B)
        R1 = cholesky(G)
        W = householder_qr(rng.standard_normal((m, n))).Q
        R2 = W @ R1  # second full-rank factor of the same G
        Q = tri_solve_right(R2, R1)
        dev = spectral_norm(Q.T @ Q - np.eye(n))
        bound = 100 * n * EPS * np.linalg.cond(R1) ** 2
        ok &= dev <= bound
        worst_margin = max(worst_margin, dev / bound)
    report(capsys, 7, "two-factor orthogonality bound (100 SPD instances)",
           ok, f"worst dev/bound {worst_margin:.2e}")


def test_criterion_8_sampling_lower_bound(capsys):
    sb = sampling_lower_bound(6000, 100, 1 / 60, 0.5, 0.01)
    exact_ok = sb.c_min == 8597

    m, n = 1024, 10
    kappa_cap = math.sqrt(3.0) * 1.05
    good = 0
    for seed in range(50):
        A = haar_rotated(m, n, 1e3, seed=seed)
        Q = householder_qr(A).Q
        signs = rademacher_diag(m, seed=10_000 + seed)
        smoothed_frame = dct_columns(signs[:, None] * Q)
        mu = coherence(smoothed_frame)
        c = min(sampling_lower_bound(m, n, mu, 0.5, 0.01).c_min, 10 * m)
        FA = dct_columns(signs[:, None] * A)
        A_s = sample_rows(FA, c, seed=20_000 + seed)
        R_s = householder_qr(A_s).R
        try:
            _, A1 = preconditioned_cholesky_qr(A, R_s)
        except CholeskyBreakdown:
            continue
        s = singular_values(A1)
        if s[-1] > 0 and s[0] / s[-1] <= kappa_cap:
            good += 1
    ok = exact_ok and good >= 49
    detail = f"c_min=8597 {'ok' if exact_ok else 'WRONG'}, {good}/50 seeds ok"
    report(capsys, 8, "sample-size lower bound exact + empirical", ok, detail)


def _oracle_bounds(p, kappa, eta):
    ea, es = mp.mpf(p.eps_input), mp.mpf(p.eps_precond)
    e1, e2 = mp.mpf(p.eps_gram), mp.mpf(p.eps_cholesky)
    e3, e4 = mp.mpf(p.eps_solve), mp.mpf(p.eps_recover)
    ef = (ea + es) * mp.mpf(p.kappa_precond)
    g1 = (1 + ef) ** 2 * (e1 + (1 + e1) * e2 + 2 * e3 + e3 * e3)
    g2 = 2 * ef + ef * ef + (1 + ef) ** 2 * (e1 + (1 + e1) * e2)
    g3 = e4 * (1 + ef) * (1 + e3)
    k = mp.mpf(kappa)
    denom = 1 - k * k * g2
    if denom <= 0:
        return None
    cond = mp.sqrt((1 + g2) / denom)
    ortho = k * k * g1 / denom
    residual = ea + (es + (1 + ef) * e3) * eta + g3 * cond * eta * k
    return ef, g1, g2, g3, cond, ortho, residual


def test_criterion_9_bound_transcription(capsys):
    rng = np.random.default_rng(9)
    checked = 0
    worst = 0.0
    spec_ok = True
    while checked < 100:
        p = PerturbationSet(
            eps_input=rng.uniform(0, 1e-8),
            eps_precond=rng.uniform(0, 1e-8),
            eps_gram=rng.uniform(0, 1e-8),
            eps_cholesky=rng.uniform(0, 1e-8),
            eps_solve=rng.uniform(0, 1e-8),
            eps_recover=rng.uniform(0, 1e-8),
            kappa_precond=rng.uniform(1, 1e4),
        )
        kappa = 10 ** rng.uniform(0, 6)
        eta = rng.uniform(1, kappa)
        g = growth_factors(p)
        b = preconditioned_bounds(p, kappa, eta)
        if not b.assumption_ok:
            continue
        ef, g1, g2, g3, cond, ortho, residual = _oracle_bounds(p, kappa, eta)
        for got, want in [
            (g.eps_combined, ef), (g.growth_ortho, g1),
            (g.growth_definiteness, g2), (g.growth_recover, g3),
            (b.cond_factor, cond), (b.ortho_bound, ortho),
            (b.residual_bound, residual),
        ]:
            want = float(want)
            if want != 0.0:
                worst = max(worst, abs(got - want) / abs(want))
        checked += 1

    p = PerturbationSet.roundoff(kappa_precond=37.0)
    p0 = replace(p, eps_precond=0.0, eps_recover=0.0, kappa_precond=1.0)
    b = basic_bounds(p, 1e5)
    ref = preconditioned_bounds(p0, 1e5, eta=1.0)
    spec_ok = (b.ortho_bound == ref.ortho_bound
               and b.residual_bound == ref.residual_bound
               and b.cond_factor == ref.cond_factor)

    ok = worst <= 1e-10 and spec_ok
    detail = (f"worst rel err {worst:.2e} over 100 points, "
              f"specialization {'bit-exact' if spec_ok else 'MISMATCH'}")
    report(capsys, 9, "perturbation bounds match extended precision",
           ok, detail)


def test_criterion_10_kernel_stability(capsys):
    rng = np.random.default_rng(10)
    worst_qr = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 101))
        m = n + int(rng.integers(0, 1001 - n))
        kappa = 10 ** rng.uniform(0, 10)
        A = haar_rotated(m, n, kappa, seed=int(rng.integers(0, 2**31)))
        f = householder_qr(A)
        worst_qr = max(
            worst_qr,
            ortho_deviation(f.Q),
            spectral_norm(A - f.Q @ f.R) / spectral_norm(A),
        )
    qr_ok = worst_qr <= 1e-13

    worst_dct = 0.0
    for m in (7, 64, 1000, 4096):
        X = np.random.default_rng(m).standard_normal((m, 3))
        worst_dct = max(worst_dct,
                        np.max(np.abs(dct_columns(X) - dct_matrix(m) @ X)))
    dct_ok = worst_dct <= 1e-13

    ok = qr_ok and dct_ok
    detail = f"worst QR err {worst_qr:.2e}, worst DCT err {worst_dct:.2e}"
    report(capsys, 10, "kernel stability (Householder QR, DCT)", ok, detail)


def test_criterion_11_cli_determinism(capsys, tmp_path):
    args = ["sweep-c", "--m", "400", "--n", "40", "--c", "80,120",
            "--kappa", "1e15", "--trials", "5", "--seed", "77"]
    texts = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        idx = lines[0].split(",").index("wall_time_s")
        texts.append([
            ",".join(v for i, v in enumerate(line.split(",")) if i != idx)
            for line in lines
        ])
    ok = texts[0] == texts[1] and len(texts[0]) == 11
    report(capsys, 11, "repeated CLI invocation is byte-identical", ok,
           f"{len(texts[0]) - 1} data rows compared modulo wall_time_s")
