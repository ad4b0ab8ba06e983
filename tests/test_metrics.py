from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpcqr.kernels
from rpcqr import (
    EPS,
    NoConvergenceError,
    QRFactors,
    cholesky_qr,
    cholesky_qr2,
    haar_frame,
    haar_rotated,
    ortho_deviation,
    ortho_estimate,
    randsvd,
    rel_residual,
    rp_cholesky_qr,
    worst_coherence_stack,
)
from rpcqr.algorithms import preconditioned_cholesky_qr
from rpcqr.kernels import (cholesky, gram, householder_qr, householder_r,
                           spectral_norm)
from rpcqr.metrics import measure
from svd_bound import BOUND, a1, svd_eta, svd_kappa, svd_ratios


class TestOrthoDeviation:
    def test_exact_orthonormal(self):
        Q = np.vstack([np.eye(6), np.zeros((4, 6))])
        assert ortho_deviation(Q) <= 1e-16

    def test_scalar_column(self):
        assert ortho_deviation(np.array([[2.0]])) == pytest.approx(3.0)

    def test_first_order_perturbation(self):
        # Q + Q S eps has deviation 2*eps*||S|| to first order.
        Q = haar_frame(80, 8, seed=0)
        S = np.random.default_rng(1).standard_normal((8, 8))
        S = (S + S.T) / 2
        S /= np.linalg.norm(S, 2)
        dev = ortho_deviation(Q + 1e-8 * Q @ S)
        assert 2e-8 / 3 <= dev <= 3 * 2e-8

    def test_invariant_under_left_rotation(self):
        Q = householder_qr(np.random.default_rng(2).standard_normal((60, 5))).Q
        W = haar_frame(60, 60, seed=3)
        assert abs(ortho_deviation(W @ Q) - ortho_deviation(Q)) <= 1e-12

    @pytest.mark.parametrize("case", [
        "basic1e5", "basic1e7", "basic1e8", "cqr2", "rp", "householder",
        "wide", "scaled", "scalar", "identity_stack"])
    def test_matches_all_eigenvalues_oracle(self, case):
        # max|lambda(I - Q^T Q)| of the full symmetric eigensolver.
        A = haar_rotated(300, 20, 1e7, seed=16)
        g = np.random.default_rng(17)
        Q = {
            "basic1e5": lambda: cholesky_qr(
                haar_rotated(300, 20, 1e5, seed=16)).Q,
            "basic1e7": lambda: cholesky_qr(A).Q,
            "basic1e8": lambda: cholesky_qr(
                haar_rotated(300, 20, 1e8, seed=16)).Q,
            "cqr2": lambda: cholesky_qr2(A).Q,
            "rp": lambda: rp_cholesky_qr(A, 60, seed=18)[0].Q,
            "householder": lambda: householder_qr(A).Q,
            "wide": lambda: g.standard_normal((3, 5)),
            "scaled": lambda: 1e3 * g.standard_normal((50, 10)),
            "scalar": lambda: np.array([[2.0]]),
            "identity_stack": lambda: np.vstack([np.eye(6), np.zeros((4, 6))]),
        }[case]()
        n = Q.shape[1]
        expected = np.abs(np.linalg.eigvalsh(np.eye(n) - Q.T @ Q)).max()
        assert ortho_deviation(Q) == pytest.approx(expected, rel=n * EPS,
                                                   abs=0)

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(rpcqr.kernels, "dsyevr",
                            lambda G, **kw: (np.zeros(len(G)), None, 0, None, 2))
        with pytest.raises(NoConvergenceError, match="info=2"):
            ortho_deviation(haar_frame(20, 4, seed=19))

    def test_overflowing_gram_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoConvergenceError):
                ortho_deviation(np.full((4, 2), 1e200))


class TestRelResidual:
    def test_exact_factors(self):
        A = haar_rotated(100, 10, 1e2, seed=4)
        f = householder_qr(A)
        assert rel_residual(A, f) <= 1e-14

    def test_gross_mismatch(self):
        A = haar_rotated(100, 10, 1e2, seed=5)
        f = householder_qr(A)
        bad = QRFactors(Q=f.Q, R=2.0 * f.R, method=f.method)
        assert rel_residual(A, bad) == pytest.approx(1.0, rel=0.2)

    def test_invariant_under_row_rotation(self):
        A = haar_rotated(60, 6, 1e3, seed=6)
        f = householder_qr(A)
        W = haar_frame(60, 60, seed=7)
        r1 = rel_residual(A, f)
        f2 = QRFactors(Q=W @ f.Q, R=f.R, method=f.method)
        r2 = rel_residual(W @ A, f2)
        assert abs(r1 - r2) <= 1e-13

    @given(
        n=st.integers(1, 300),
        extra_rows=st.integers(0, 40),
        order=st.sampled_from("CF"),
        exponent=st.sampled_from([-500, 0, 500]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, extra_rows=0, order="C", exponent=-500, seed=0)
    @example(n=255, extra_rows=1, order="F", exponent=500, seed=1)
    @example(n=257, extra_rows=0, order="C", exponent=0, seed=2)
    @example(n=300, extra_rows=40, order="F", exponent=-500, seed=3)
    @settings(max_examples=30, deadline=None)
    def test_matches_explicit_difference(self, n, extra_rows, order,
                                         exponent, seed):
        # A - QR is formed in a dtrmm copy of Q; the explicit difference
        # of A and the product Q @ R is the reference.
        g = np.random.default_rng(seed)
        A = g.standard_normal((n + extra_rows, n)) * 2.0 ** exponent
        f = householder_qr(A)
        A = np.array(A, order=order)
        f = QRFactors(Q=np.array(f.Q, order=order), R=f.R, method=f.method)
        A_before = A.copy()
        want = spectral_norm(A - f.Q @ f.R) / spectral_norm(A)
        assert abs(rel_residual(A, f) - want) <= 4 * n * EPS
        assert np.array_equal(A, A_before)


class TestMeasure:
    def test_rp_row_matches_the_single_metrics(self):
        A = worst_coherence_stack(300, 20, 1e12, seed=13)
        f, R_s, R2 = rp_cholesky_qr(A, 60, seed=14)
        cells = measure(A, spectral_norm(A), f, R2, R_s)
        assert cells["deviation"] == ortho_deviation(f.Q)
        assert cells["residual"] == rel_residual(A, f)
        f, R_s, R2 = rp_cholesky_qr(A, 60, seed=14)
        assert measure(A, spectral_norm(A), f, R2, R_s) == cells
        assert cells["estimate_5_2"] == ortho_estimate(cells["kappa_A1"])
        assert max(svd_ratios(cells, A, a1(A, R_s), R_s)) <= BOUND

    def test_unsound_factor_keeps_the_svd(self):
        # ‖I - QᵀQ‖₂ >= 1/2: R3 R2 no longer holds A1's singular values.
        A = worst_coherence_stack(300, 20, 1e12, seed=13)
        f, R_s, R2 = rp_cholesky_qr(A, 60, seed=14)
        cells = measure(A, spectral_norm(A), replace(f, Q=2 * f.Q), R2, R_s)
        assert cells["deviation"] >= 0.5
        assert cells["kappa_A1"] == svd_kappa(a1(A, R_s))
        assert cells["eta"] == svd_eta(A, a1(A, R_s), R_s)

    def test_returned_r2_is_the_pass_factor(self):
        # R3 R2 holds A1's σ only if R2 is chol(A1ᵀA1) of the row's own A1.
        A = worst_coherence_stack(300, 20, 1e12, seed=13)
        _, R_s, R2 = rp_cholesky_qr(A, 60, seed=14)
        assert np.array_equal(R2, cholesky(gram(a1(A, R_s))))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_the_given_r2_intact(self, order):
        A = worst_coherence_stack(300, 20, 1e12, seed=13)
        f, R_s, R2 = rp_cholesky_qr(A, 60, seed=14)
        R2 = np.array(R2, order=order)
        before = R2.copy()
        measure(A, spectral_norm(A), f, R2, R_s)
        assert np.array_equal(R2, before)

    # Small samples c give the largest κ(A₁), where R3 R2's O(u κ(A₁))
    # error in the σ is largest.
    @pytest.mark.parametrize("make, kappa, c", [
        (haar_rotated, 1e2, 60), (haar_rotated, 1e14, 60),
        (haar_rotated, 1e14, 22), (worst_coherence_stack, 1e2, 60),
        (worst_coherence_stack, 1e14, 60), (worst_coherence_stack, 1e14, 22),
    ])
    def test_rp_row_lies_within_the_svd_bound(self, make, kappa, c):
        A = make(400, 20, kappa, 16)
        f, R_s, R2 = rp_cholesky_qr(A, c, seed=17)
        cells = measure(A, spectral_norm(A), f, R2, R_s)
        assert cells["deviation"] < 0.5
        assert max(svd_ratios(cells, A, a1(A, R_s), R_s)) <= BOUND

    def test_no_preconditioned_matrix(self):
        A = haar_rotated(200, 20, 1e5, seed=15)
        f = cholesky_qr2(A)
        cells = measure(A, spectral_norm(A), f)
        assert cells == dict(deviation=ortho_deviation(f.Q),
                             residual=rel_residual(A, f), kappa_A1=None,
                             eta=None, estimate_5_2=None)


def _kappa_cell(A):
    """measure's κ(A₁) of the preconditioned pass on A with R_s = I."""
    R_s = np.eye(A.shape[1])
    f, _, R2 = preconditioned_cholesky_qr(A, R_s, "preconditioned")
    return measure(A, spectral_norm(A), f, R2, R_s)["kappa_A1"]


class TestMeasureKappa:
    # κ(A₁) = σ₁/σₙ of A1; with R_s = I, A1 is A itself.
    def test_orthonormal(self):
        assert _kappa_cell(haar_frame(200, 10, seed=8)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_diagonal_stack(self):
        A = np.vstack([np.diag([4.0, 2.0]), np.zeros((3, 2))])
        assert _kappa_cell(A) == pytest.approx(2.0)

    def test_generator_round_trip(self):
        A = randsvd(20, 1e6, seed=9)
        assert _kappa_cell(A) == pytest.approx(1e6, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1e-8, 1.0, 1e8])
    def test_scale_invariance(self, alpha):
        # Each κ carries O(u κ(A₁)) of R3 R2's error.
        A = haar_rotated(80, 8, 1e4, seed=10)
        assert _kappa_cell(alpha * A) == pytest.approx(
            _kappa_cell(A), rel=2 * BOUND * EPS * 1e4)

    def test_exact_rank_deficiency(self):
        # A singular A1 breaks the pass down, so only a factor whose
        # deviation reaches 1/2 (an SVD of A1) can meet it: κ is inf.
        A = np.zeros((5, 2))
        A[0, 0] = 1.0
        f = householder_qr(A)
        cells = measure(A, spectral_norm(A), replace(f, Q=2 * f.Q), f.R,
                        np.eye(2))
        assert cells["kappa_A1"] == np.inf
        assert cells["estimate_5_2"] == np.inf


class TestMeasureEta:
    # η = ‖A1‖₂‖R_s‖₂/‖A‖₂ lies in [1, κ(A₁)], as A = A1 R_s.
    def test_perfect_preconditioner(self):
        A = haar_rotated(100, 10, 10.0, seed=11)
        R_s = householder_r(A)
        f, _, R2 = preconditioned_cholesky_qr(A, R_s, "preconditioned")
        cells = measure(A, spectral_norm(A), f, R2, R_s)
        assert cells["eta"] == pytest.approx(1.0, abs=1e-6)
        assert cells["kappa_A1"] == pytest.approx(1.0, abs=1e-6)

    def test_identity_preconditioner(self):
        A = haar_rotated(100, 10, 1e3, seed=12)
        f, _, R2 = preconditioned_cholesky_qr(A, np.eye(10),
                                               "preconditioned")
        cells = measure(A, spectral_norm(A), f, R2, np.eye(10))
        assert cells["eta"] == pytest.approx(1.0, abs=1e-9)
        assert cells["kappa_A1"] == pytest.approx(1e3, rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_within_theoretical_range(self, seed):
        A = worst_coherence_stack(300, 20, 1e8, seed=seed)
        f, R_s, R2 = rp_cholesky_qr(A, 60, seed=seed + 100)
        cells = measure(A, spectral_norm(A), f, R2, R_s)
        assert 1.0 <= cells["eta"] <= cells["kappa_A1"] * (1.0 + 1e-6)
