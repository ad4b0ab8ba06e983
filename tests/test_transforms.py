import tracemalloc

import numpy as np
import pytest

from rpcqr import (haar_frame, haar_rotated, rp_cholesky_qr,
                   worst_coherence_stack)
from rpcqr.kernels import householder_qr, spectral_norm
from rpcqr.transforms import (
    child_seeds,
    dct_columns,
    philox,
    rademacher_diag,
    sample_rows,
)
from dct_reference import coherence, dct_columns_reference, dct_matrix


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

    def test_numpy_integers_give_the_same_bits(self):
        A = haar_rotated(40, 4, 1e3, seed=np.int64(3))
        assert np.array_equal(A, haar_rotated(40, 4, 1e3, seed=3))
        f, R_s, _ = rp_cholesky_qr(A, np.int32(12), np.uint64(2**63 + 7))
        g, S_s, _ = rp_cholesky_qr(A, 12, 2**63 + 7)
        assert np.array_equal(f.Q, g.Q) and np.array_equal(R_s, S_s)

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(1.0), "1"],
                             ids=["1.5", "1.0", "float64", "str"])
    def test_non_integral_seed_is_rejected(self, seed):
        # Once truncated by int(): a seed of 1.5 gave seed 1's signs.
        with pytest.raises(TypeError,
                           match=r"^seed must be an integer, got "):
            philox(seed)
        with pytest.raises(TypeError,
                           match=r"^seed must be an integer, got "):
            child_seeds([0, seed])

    @pytest.mark.parametrize("call, seed", [
        (lambda: rp_cholesky_qr(haar_rotated(40, 4, 1e3, seed=3), 30, -1), -1),
        (lambda: haar_frame(20, 5, -3), -3),
        (lambda: worst_coherence_stack(20, 5, 10.0, -1), -1),
    ], ids=["rp_cholesky_qr", "haar_frame", "worst_coherence_stack"])
    def test_negative_seed_is_rejected(self, call, seed):
        # Once numpy's "expected non-negative integer", deep in SeedSequence.
        with pytest.raises(ValueError,
                           match=rf"^seed must be >= 0, got {seed}$"):
            call()


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
        y = dct_columns(x.copy())
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x),
                                                  rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17, 64])
    def test_reference_matrix_orthonormal(self, m):
        F = dct_matrix(m)
        assert spectral_norm(F.T @ F - np.eye(m)) <= 1e-13

    @pytest.mark.parametrize("m", [5, 7, 32, 100, 731])
    def test_fast_equals_naive(self, m):
        A = np.random.default_rng(m).standard_normal((m, 4))
        assert np.max(np.abs(dct_columns(A.copy()) - dct_columns_reference(A))) <= 1e-13


def distinct_draws(m, c, seed):
    """The rows that c draws of ``seed`` pick, ascending, with counts."""
    return np.unique(philox(seed).integers(0, m, size=c), return_counts=True)


class TestSampleRows:
    def test_full_sample_scales_each_row_by_its_count(self):
        # c = m: a row drawn k times is scaled by exactly sqrt(k).
        FA = np.random.default_rng(1).standard_normal((6, 3))
        A_s = sample_rows(FA, 6, seed=4)
        rows, k = distinct_draws(6, 6, seed=4)
        assert list(rows) == [2, 4, 5] and list(k) == [1, 1, 4]
        assert np.array_equal(A_s, np.sqrt(k)[:, None] * FA[rows])

    def test_rows_are_scaled_sources_bit_exact(self):
        FA = np.random.default_rng(2).standard_normal((30, 4))
        A_s = sample_rows(FA, 10, seed=5)
        rows, k = distinct_draws(30, 10, seed=5)
        assert np.all(np.diff(rows) > 0) and k.sum() == 10 and k.max() == 2
        assert len(A_s) == len(rows) == 9
        for i, (idx, ki) in enumerate(zip(rows, k)):
            assert np.array_equal(A_s[i], np.sqrt(ki * 3.0) * FA[idx])

    def test_accepts_numpy_integer_c(self):
        FA = np.random.default_rng(6).standard_normal((64, 2))
        A_s = sample_rows(FA, np.int64(8), seed=3)
        assert A_s.shape == (8, 2)
        assert np.array_equal(A_s, sample_rows(FA, 8, seed=3))

    def test_deterministic_indices(self):
        FA = np.arange(128.0).reshape(64, 2)  # distinct rows name indices
        assert np.array_equal(sample_rows(FA, 8, seed=77),
                              sample_rows(FA, 8, seed=77))

    # c below, at and above the 2**16 draws that are counted at a time.
    @pytest.mark.parametrize("m", [1, 2, 7, 300, 2000, 6000])
    def test_chunked_count_is_the_one_shot_draw(self, m):
        FA = np.arange(1.0, m + 1.0)[:, None]  # distinct rows name indices
        for c in (1, 5, 300, 3000, 65535, 65536, 65537, 131073, 200001):
            for seed in (0, 1, 12345678901234567):
                rows, k = distinct_draws(m, c, seed)
                assert np.array_equal(sample_rows(FA, c, seed),
                                      np.sqrt(k * m / c)[:, None] * FA[rows])

    def test_memory_does_not_grow_with_c(self):
        # Drawn at once, 10**7 indices take 80 MB, and their sort as much.
        FA = np.ones((6000, 1))
        tracemalloc.start()
        try:
            sample_rows(FA, 10**7, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

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
