import numpy as np
import pytest

from rpcqr import (
    NotOrthonormalError,
    coherence,
    dct_columns,
    haar_frame,
    rademacher_diag,
    sample_rows,
)
from rpcqr.kernels import householder_qr, spectral_norm
from rpcqr.transforms import child_seeds, philox
from dct_reference import dct_columns_reference, dct_matrix


class TestSeedRule:
    def test_golden_child_seeds(self):
        # The sign and sample seeds of build_preconditioner(A, c, seed=7).
        assert child_seeds([7], 2) == [16920295385781661272,
                                       610735763742393210]

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 7])
    def test_one_word_key_equals_the_int_key(self, seed):
        ss = np.random.SeedSequence(seed)
        assert child_seeds([seed], 2) == [
            int(s) for s in ss.generate_state(2, np.uint64)]


class TestRademacherDiag:
    def test_values_in_range(self):
        d = rademacher_diag(4, seed=123)
        assert set(np.unique(d)) <= {-1, 1}
        assert d.shape == (4,) and d.dtype == np.int64

    def test_deterministic(self):
        a = rademacher_diag(1000, seed=9)
        b = rademacher_diag(1000, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_near_zero(self, seed):
        d = rademacher_diag(10**5, seed=seed)
        assert abs(np.mean(d)) <= 0.02

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            rademacher_diag(0, seed=1)


class TestDct:
    def test_constant_maps_to_first_basis_vector(self):
        y = dct_columns(np.ones((4, 1)))[:, 0]
        assert np.allclose(y, [2.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_m2_closed_form(self):
        y = dct_columns(np.array([[1.0], [0.0]]))[:, 0]
        assert np.allclose(y, [0.7071067811865476, 0.7071067811865476],
                           atol=1e-15)

    def test_isometry(self):
        x = np.random.default_rng(0).standard_normal((257, 3))
        y = dct_columns(x)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x),
                                                  rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17, 64])
    def test_reference_matrix_orthonormal(self, m):
        F = dct_matrix(m)
        assert spectral_norm(F.T @ F - np.eye(m)) <= 1e-13

    @pytest.mark.parametrize("m", [5, 7, 32, 100, 731])
    def test_fast_equals_naive(self, m):
        A = np.random.default_rng(m).standard_normal((m, 4))
        assert np.max(np.abs(dct_columns(A) - dct_columns_reference(A))) <= 1e-13


class TestSampleRows:
    def test_full_sample_is_row_permutation(self):
        # c = m: the scale is exactly 1, so the rows are copied unchanged.
        FA = np.random.default_rng(1).standard_normal((6, 3))
        A_s = sample_rows(FA, 6, seed=4)
        assert np.array_equal(A_s, FA[philox(4).integers(0, 6, size=6)])

    def test_rows_are_scaled_sources_bit_exact(self):
        FA = np.random.default_rng(2).standard_normal((30, 4))
        A_s = sample_rows(FA, 10, seed=5)
        for i, idx in enumerate(philox(5).integers(0, 30, size=10)):
            assert np.array_equal(A_s[i], np.sqrt(3.0) * FA[idx])

    @pytest.mark.parametrize("c", [30.7, 30.0])
    def test_rejects_non_integral_c(self, c):
        FA = np.ones((64, 2))
        with pytest.raises(TypeError, match="c must be an integer"):
            sample_rows(FA, c, seed=3)

    def test_accepts_numpy_integer_c(self):
        FA = np.random.default_rng(6).standard_normal((64, 2))
        A_s = sample_rows(FA, np.int64(8), seed=3)
        assert A_s.shape == (8, 2)
        assert np.array_equal(A_s, sample_rows(FA, 8, seed=3))

    def test_deterministic_indices(self):
        FA = np.arange(128.0).reshape(64, 2)  # distinct rows name indices
        assert np.array_equal(sample_rows(FA, 8, seed=77),
                              sample_rows(FA, 8, seed=77))

    def test_monte_carlo_unbiasedness(self):
        # E[A_s^T A_s] = (FA)^T (FA) with the sqrt(m/c) scaling.
        FA = np.random.default_rng(3).standard_normal((64, 3))
        target = FA.T @ FA
        acc = np.zeros_like(target)
        n_seeds = 500
        for seed in range(n_seeds):
            A_s = sample_rows(FA, 8, seed=seed)
            acc += A_s.T @ A_s
        acc /= n_seeds
        rel = np.linalg.norm(acc - target) / np.linalg.norm(target)
        assert rel <= 0.05

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            sample_rows(np.ones((4, 2)), 0, seed=1)


class TestCoherence:
    def test_axis_aligned_is_worst_case(self):
        Q = np.vstack([np.eye(3), np.zeros((5, 3))])
        assert coherence(Q) == pytest.approx(1.0)

    def test_flat_vector_is_best_case(self):
        m = 16
        q = np.full((m, 1), 1.0 / np.sqrt(m))
        assert coherence(q) == pytest.approx(1.0 / m)

    def test_haar_frame_range(self):
        m, n = 512, 8
        mus = [coherence(haar_frame(m, n, seed=s)) for s in range(20)]
        assert all(n / m <= mu <= 1.0 for mu in mus)
        typical = 4 * (n + np.log(m)) / m
        assert sum(mu <= typical for mu in mus) >= 15

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormalError):
            coherence(np.ones((5, 2)))

    def test_smoothing_flattens_worst_case(self):
        # Sign flip + DCT takes the axis-aligned frame to low coherence.
        m, n = 1024, 16
        Q = np.vstack([np.eye(n), np.zeros((m - n, n))])
        good = 0
        for seed in range(20):
            d = rademacher_diag(m, seed=seed)
            FQ = dct_columns(d[:, None] * Q)
            mu = coherence(householder_qr(FQ).Q)
            good += mu <= 0.2
        assert good >= 18
