import numpy as np
import pytest
from scipy import stats

from rpcqr import haar_frame, haar_rotated, randsvd, worst_coherence_stack
from rpcqr.kernels import householder_qr, singular_values, spectral_norm
from dct_reference import coherence


class TestHaarFrame:
    def test_orthonormal(self):
        Q = haar_frame(1000, 50, seed=0)
        assert spectral_norm(Q.T @ Q - np.eye(50)) <= 1e-13

    def test_deterministic(self):
        assert np.array_equal(haar_frame(64, 4, seed=1), haar_frame(64, 4, seed=1))

    def test_golden_entry(self):
        # Pins the Gaussian's seed (child word 0 of [seed, 0]) and Philox.
        assert haar_frame(6, 2, seed=3)[0, 0] == 0.1496855818656071

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(haar_frame(64, 4, seed=1),
                                  haar_frame(64, 4, seed=2))

    def test_rotation_angle_uniform(self):
        # First column of a 2x2 frame should be uniform on the circle.
        angles = []
        for seed in range(2000):
            Q = haar_frame(2, 2, seed=seed)
            angles.append(np.arctan2(Q[1, 0], Q[0, 0]))
        hist, _ = np.histogram(angles, bins=8, range=(-np.pi, np.pi))
        chi2 = np.sum((hist - 250.0) ** 2 / 250.0)
        assert chi2 < stats.chi2.isf(0.001, df=7)


class TestRandsvd:
    def test_geometric_spectrum(self):
        s = singular_values(randsvd(3, 100.0, seed=0))
        assert np.allclose(s, [1.0, 0.1, 0.01])

    @pytest.mark.parametrize("n", [1, 2, 20])
    def test_round_trip_spectrum(self, n):
        expected = np.geomspace(1.0, 1e-6, n)
        s = singular_values(randsvd(n, 1e6, seed=3))
        assert np.max(np.abs(s - expected) / expected) <= 1e-8

    def test_kappa_one_is_orthogonal(self):
        A = randsvd(10, 1.0, seed=4)
        assert spectral_norm(A.T @ A - np.eye(10)) <= 1e-13

    def test_rejects_kappa_below_one(self):
        with pytest.raises(ValueError):
            randsvd(3, 0.5, seed=1)

    @pytest.mark.parametrize("make", [
        lambda kappa: randsvd(3, kappa, seed=1),
        lambda kappa: worst_coherence_stack(6, 3, kappa, seed=1),
        lambda kappa: haar_rotated(6, 3, kappa, seed=1),
    ], ids=["randsvd", "worst_coherence_stack", "haar_rotated"])
    def test_rejects_an_integer_kappa_beyond_the_floats(self, make):
        # 10**400 < inf holds for a Python int, but no float holds it.
        with pytest.raises(ValueError, match="^kappa must be a finite "):
            make(10 ** 400)
        assert np.isfinite(make(10 ** 300)).all()


class TestWorstCoherenceStack:
    def test_coherence_is_one(self):
        A = worst_coherence_stack(200, 10, 1e4, seed=5)
        Q = householder_qr(A).Q
        assert coherence(Q) == pytest.approx(1.0, abs=1e-12)

    def test_condition_number(self):
        A = worst_coherence_stack(300, 15, 1e6, seed=6)
        s = singular_values(A)
        assert s[0] / s[-1] == pytest.approx(1e6, rel=1e-6)

    def test_bottom_rows_exactly_zero(self):
        A = worst_coherence_stack(50, 7, 1e3, seed=7)
        assert np.all(A[7:, :] == 0.0)


class TestHaarRotated:
    def test_condition_number(self):
        A = haar_rotated(500, 20, 1e7, seed=8)
        s = singular_values(A)
        assert s[0] / s[-1] == pytest.approx(1e7, rel=1e-5)

    def test_low_coherence(self):
        good = 0
        for seed in range(20):
            A = haar_rotated(1000, 20, 1e3, seed=seed)
            good += coherence(householder_qr(A).Q) <= 0.3
        assert good >= 18

    def test_deterministic(self):
        assert np.array_equal(haar_rotated(100, 5, 1e2, seed=9),
                              haar_rotated(100, 5, 1e2, seed=9))

    def test_shares_spectrum_with_stack(self):
        s1 = singular_values(worst_coherence_stack(200, 12, 1e5, seed=10))
        s2 = singular_values(haar_rotated(200, 12, 1e5, seed=10))
        assert np.max(np.abs(s1 - s2) / s1) <= 1e-10
