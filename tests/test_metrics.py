import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpcqr import (
    EPS,
    QRFactors,
    cholesky_qr2,
    cond2,
    eta,
    haar_frame,
    haar_rotated,
    ortho_deviation,
    ortho_estimate,
    randsvd,
    rel_residual,
    rp_cholesky_qr,
    worst_coherence_stack,
)
from rpcqr.kernels import householder_qr, spectral_norm
from rpcqr.metrics import measure


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
        # A - QR is one dgemm update of a copy of A; the explicit
        # difference of A and the product Q @ R is the reference.
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
        f, R_s, A1 = rp_cholesky_qr(A, 60, seed=14)
        cells = measure(A, spectral_norm(A), f, A1, R_s)
        assert cells["deviation"] == ortho_deviation(f.Q)
        assert cells["residual"] == rel_residual(A, f)
        assert cells["kappa_A1"] == cond2(A1)
        assert cells["eta"] == eta(A, A1, R_s)
        assert cells["estimate_5_2"] == ortho_estimate(cond2(A1))

    def test_no_preconditioned_matrix(self):
        A = haar_rotated(200, 20, 1e5, seed=15)
        f = cholesky_qr2(A)
        cells = measure(A, spectral_norm(A), f)
        assert cells == dict(deviation=ortho_deviation(f.Q),
                             residual=rel_residual(A, f), kappa_A1=None,
                             eta=None, estimate_5_2=None)


class TestCond2:
    def test_orthonormal(self):
        assert cond2(haar_frame(200, 10, seed=8)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_stack(self):
        A = np.vstack([np.diag([4.0, 2.0]), np.zeros((3, 2))])
        assert cond2(A) == pytest.approx(2.0)

    def test_generator_round_trip(self):
        A = randsvd(20, 1e6, seed=9)
        assert cond2(A) == pytest.approx(1e6, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1e-8, 1.0, 1e8])
    def test_scale_invariance(self, alpha):
        A = haar_rotated(80, 8, 1e4, seed=10)
        assert cond2(alpha * A) == pytest.approx(cond2(A), rel=1e-12)

    def test_exact_rank_deficiency(self):
        A = np.zeros((5, 2))
        A[0, 0] = 1.0
        assert cond2(A) == np.inf


class TestEta:
    def test_perfect_preconditioner(self):
        A = haar_rotated(100, 10, 10.0, seed=11)
        R_s = householder_qr(A).R
        from rpcqr.kernels import tri_solve_right

        A1 = tri_solve_right(A, R_s)
        assert eta(A, A1, R_s) == pytest.approx(1.0, abs=1e-6)

    def test_identity_preconditioner(self):
        A = haar_rotated(100, 10, 1e3, seed=12)
        assert eta(A, A, np.eye(10)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_within_theoretical_range(self, seed):
        A = worst_coherence_stack(300, 20, 1e8, seed=seed)
        f, R_s, A1 = rp_cholesky_qr(A, 60, seed=seed + 100)
        e = eta(A, A1, R_s)
        assert 1.0 - 1e-6 <= e <= cond2(A1) * (1.0 + 1e-6)
