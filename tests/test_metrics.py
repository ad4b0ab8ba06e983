import numpy as np
import pytest

from rpcqr import (
    QRFactors,
    cond2,
    eta,
    haar_frame,
    haar_rotated,
    householder_qr,
    ortho_deviation,
    randsvd,
    rel_residual,
    rp_cholesky_qr,
    worst_coherence_stack,
)


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
        from rpcqr import tri_solve_right

        A1 = tri_solve_right(A, R_s)
        assert eta(A, A1, R_s) == pytest.approx(1.0, abs=1e-6)

    def test_identity_preconditioner(self):
        A = haar_rotated(100, 10, 1e3, seed=12)
        assert eta(A, A, np.eye(10)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_within_theoretical_range(self, seed):
        A = worst_coherence_stack(300, 20, 1e8, seed=seed)
        f, info, A1 = rp_cholesky_qr(A, 60, seed=seed + 100)
        e = eta(A, A1, info.R_s)
        assert 1.0 - 1e-6 <= e <= cond2(A1) * (1.0 + 1e-6)
