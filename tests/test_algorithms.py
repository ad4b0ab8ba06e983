import numpy as np
import pytest

from rpcqr import (
    CholeskyBreakdown,
    RankDeficientSampleError,
    cholesky_qr,
    cholesky_qr2,
    haar_frame,
    haar_rotated,
    householder_qr,
    ortho_deviation,
    preconditioned_cholesky_qr,
    rel_residual,
    rp_cholesky_qr,
    singular_values,
    spectral_norm,
    worst_coherence_stack,
)
from rpcqr.algorithms import build_preconditioner
from rpcqr.metrics import cond2, eta
from rpcqr.transforms import (
    child_seeds,
    dct_columns,
    rademacher_diag,
    sample_rows,
)

from dct_reference import sampled_frame_singular_values


class TestCholeskyQR:
    def test_identity_stack(self):
        A = np.vstack([np.eye(3), np.zeros((2, 3))])
        f = cholesky_qr(A)
        assert np.allclose(f.Q, A, atol=1e-15)
        assert np.allclose(f.R, np.eye(3), atol=1e-15)
        assert f.method == "basic"

    def test_345_column(self):
        f = cholesky_qr(np.array([[3.0], [4.0]]))
        assert np.allclose(f.Q, [[0.6], [0.8]], atol=1e-15)
        assert np.allclose(f.R, [[5.0]], atol=1e-15)

    def test_numerically_singular_breaks_or_degrades(self):
        A = worst_coherence_stack(500, 20, 1e15, seed=4)
        try:
            f = cholesky_qr(A)
        except CholeskyBreakdown:
            return
        assert ortho_deviation(f.Q) >= 1e-2

    @pytest.mark.parametrize("kappa", [1e0, 1e4, 1e8])
    def test_residual_small_when_no_breakdown(self, kappa):
        A = haar_rotated(300, 30, kappa, seed=5)
        f = cholesky_qr(A)
        assert rel_residual(A, f) <= 1e-13


class TestCholeskyQR2:
    def test_orthonormal_fixed_point(self):
        A = haar_frame(100, 10, seed=6)
        f = cholesky_qr2(A)
        assert np.allclose(f.Q, A, atol=1e-14)
        assert np.allclose(f.R, np.eye(10), atol=1e-14)
        assert f.method == "cqr2"

    def test_near_capability_limit(self):
        A = haar_rotated(2000, 200, 1e7, seed=7)
        f = cholesky_qr2(A)
        assert ortho_deviation(f.Q) <= 1e-13
        assert rel_residual(A, f) <= 1e-14

    def test_breaks_down_at_stage_1_for_singular_input(self):
        A = worst_coherence_stack(2000, 100, 1e15, seed=8)
        with pytest.raises(CholeskyBreakdown) as exc:
            cholesky_qr2(A)
        assert exc.value.stage == 1


class TestPreconditionedCholeskyQR:
    def test_perfect_preconditioner(self):
        A = haar_rotated(200, 20, 10.0, seed=9)
        R_s = householder_qr(A).R
        f, A1 = preconditioned_cholesky_qr(A, R_s)
        assert ortho_deviation(A1) <= 1e-14
        assert ortho_deviation(f.Q) <= 1e-14
        assert eta(A, A1, R_s) == pytest.approx(1.0, abs=1e-6)
        assert rel_residual(A, f) <= 1e-13

    # 64, 65 and 130 cross the triangular solve's 64-column blocks.
    @pytest.mark.parametrize("n", [12, 64, 65, 130])
    def test_identity_preconditioner_is_bitwise_basic(self, n):
        A = haar_rotated(10 * n, n, 1e3, seed=10)
        f0 = cholesky_qr(A)
        f1, A1 = preconditioned_cholesky_qr(A, np.eye(n))
        assert np.array_equal(f1.Q, f0.Q)
        assert np.array_equal(f1.R, f0.R)
        assert np.array_equal(A1, A)

    def test_sampled_preconditioner_tames_conditioning(self):
        A = haar_rotated(300, 30, 1e6, seed=11)
        _, _, A1 = rp_cholesky_qr(A, 120, seed=12)
        assert cond2(A1) <= 10

    def test_preconditioner_scale_invariance(self):
        A = haar_rotated(150, 15, 1e3, seed=13)
        R_s = householder_qr(A).R
        f1, A1 = preconditioned_cholesky_qr(A, R_s)
        f2, A2 = preconditioned_cholesky_qr(A, 7.5 * R_s)
        assert cond2(A1) == pytest.approx(cond2(A2), rel=1e-12)
        assert np.max(np.abs(f1.Q - f2.Q)) <= 1e-12


class TestRpCholeskyQR:
    def test_numerically_singular_full_accuracy(self):
        A = worst_coherence_stack(2000, 100, 1e15, seed=14)
        f, _, A1 = rp_cholesky_qr(A, 600, seed=15)
        assert ortho_deviation(f.Q) <= 1e-13
        assert cond2(A1) < 10
        assert rel_residual(A, f) <= 1e-14

    def test_numerically_singular_small_sample(self):
        A = worst_coherence_stack(2000, 100, 1e15, seed=16)
        f, _, _ = rp_cholesky_qr(A, 200, seed=17)
        assert ortho_deviation(f.Q) <= 1e-12
        assert f.method == "rpcholesky"

    def test_orthonormal_input(self):
        A = haar_frame(400, 20, seed=18)
        f, _, _ = rp_cholesky_qr(A, 60, seed=19)
        assert ortho_deviation(f.Q) <= 1e-13

    def test_deterministic(self):
        A = haar_rotated(200, 10, 1e4, seed=20)
        f1, R_s1, A1 = rp_cholesky_qr(A, 40, seed=21)
        f2, R_s2, A2 = rp_cholesky_qr(A, 40, seed=21)
        assert np.array_equal(f1.Q, f2.Q)
        assert np.array_equal(f1.R, f2.R)
        assert np.array_equal(R_s1, R_s2)
        assert np.array_equal(A1, A2)

    def test_rejects_small_c(self):
        A = haar_rotated(50, 10, 1e2, seed=22)
        with pytest.raises(ValueError):
            rp_cholesky_qr(A, 5, seed=23)

    @pytest.mark.parametrize("c", [30.7, 30.0])
    def test_rejects_non_integral_c(self, c):
        A = haar_rotated(200, 20, 1e2, seed=24)
        with pytest.raises(TypeError, match="c must be an integer"):
            rp_cholesky_qr(A, c, seed=2)

    def test_accepts_numpy_integer_c(self):
        A = haar_rotated(200, 20, 1e2, seed=24)
        f, R_s, _ = rp_cholesky_qr(A, np.int32(30), seed=2)
        ref, ref_R_s, _ = rp_cholesky_qr(A, 30, seed=2)
        assert np.array_equal(R_s, ref_R_s)
        assert np.array_equal(f.Q, ref.Q) and np.array_equal(f.R, ref.R)

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_invariant(self, seed):
        # Residual stays at roundoff level for any conditioning.
        for kappa, method in [(1e8, cholesky_qr)]:
            A = haar_rotated(300, 20, 1e2, seed=seed)
            assert rel_residual(A, method(A)) <= 1e-13
        A = worst_coherence_stack(400, 20, 1e15, seed=seed)
        f, _, _ = rp_cholesky_qr(A, 60, seed=seed + 50)
        assert rel_residual(A, f) <= 1e-13

    @pytest.mark.parametrize("scale", [2.0 ** -532, 2.0 ** 532, 1e-160, 1e160])
    def test_metrics_at_extreme_scale(self, scale):
        # 2**+-532 ~ 1.4e+-160 scale A exactly, so every computed quantity
        # scales exactly too; 1e+-160 round each entry, which moves the
        # roundoff-level residual but not its order nor eta.
        A = haar_rotated(400, 20, 1e6, seed=1)
        f, R_s, A1 = rp_cholesky_qr(A, 60, seed=3)
        res, et = rel_residual(A, f), eta(A, A1, R_s)
        As = scale * A
        fs, R_ss, A1s = rp_cholesky_qr(As, 60, seed=3)
        res_s, et_s = rel_residual(As, fs), eta(As, A1s, R_ss)
        assert np.isfinite(res_s) and np.isfinite(et_s)
        assert et_s == pytest.approx(et, rel=1e-10, abs=0)
        if np.log2(scale).is_integer():
            assert res_s == pytest.approx(res, rel=1e-10, abs=0)
        else:
            assert res / 10 <= res_s <= res * 10


class TestBuildPreconditioner:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_preconditioner_keeps_full_qr_factor(self, seed):
        # R_s equals the triangular factor of a full Householder QR of the
        # same seed's sample, as the preconditioner was first defined.
        A = haar_rotated(400, 20, 1e10, seed=3)
        sign_seed, sample_seed = child_seeds([seed], 2)
        FA = dct_columns(rademacher_diag(400, sign_seed)[:, None] * A)
        A_s = sample_rows(FA, 60, sample_seed)
        R_s = build_preconditioner(A, 60, seed)
        assert np.array_equal(R_s, householder_qr(A_s).R)

    @pytest.mark.parametrize("column", [0, 4, 9])
    def test_zero_column_is_rank_deficient(self, column):
        A = haar_rotated(200, 10, 1e3, seed=4)
        A[:, column] = 0.0
        with pytest.raises(RankDeficientSampleError):
            build_preconditioner(A, 30, seed=5)

    def test_rank_tol_one_rejects_any_sample(self):
        # min |r_ii| <= ||R_s||_2 = ||A_s||_2, so a cutoff of 1 always trips.
        A = haar_rotated(200, 10, 1e4, seed=6)
        with pytest.raises(RankDeficientSampleError):
            build_preconditioner(A, 30, seed=7, rank_tol=1.0)

    def test_tiny_rank_tol_keeps_the_preconditioner(self):
        A = worst_coherence_stack(200, 10, 1e15, seed=8)
        strict = build_preconditioner(A, 30, seed=9, rank_tol=1e-300)
        assert np.array_equal(strict, build_preconditioner(A, 30, 9))


class TestSampledFrameSingularValues:
    def test_reciprocal_pairing(self):
        A = haar_rotated(500, 20, 1e2, seed=24)
        _, _, A1 = rp_cholesky_qr(A, 100, seed=25)
        s = sampled_frame_singular_values(A, 100, 25)
        s1 = singular_values(A1)
        assert np.max(np.abs(s * s1[::-1] - 1.0)) <= 1e-8

    def test_shared_condition_number(self):
        A = worst_coherence_stack(500, 20, 1e3, seed=26)
        _, _, A1 = rp_cholesky_qr(A, 100, seed=27)
        s = sampled_frame_singular_values(A, 100, 27)
        assert s[0] / s[-1] == pytest.approx(cond2(A1), rel=1e-8)

    def test_scalar_case(self):
        A = haar_rotated(64, 1, 1.0, seed=28)
        _, _, A1 = rp_cholesky_qr(A, 8, seed=29)
        s = sampled_frame_singular_values(A, 8, 29)
        assert s[0] * singular_values(A1)[0] == pytest.approx(1.0, rel=1e-10)
