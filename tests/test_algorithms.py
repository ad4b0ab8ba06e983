import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtrmm

from rpcqr import (
    CholeskyBreakdown,
    QRFactors,
    RankDeficientSampleError,
    cholesky_qr,
    cholesky_qr2,
    haar_frame,
    haar_rotated,
    ortho_deviation,
    randsvd,
    rel_residual,
    rp_cholesky_qr,
    worst_coherence_stack,
)
import rpcqr.algorithms as algorithms
import rpcqr.harness as harness
from rpcqr.algorithms import build_preconditioner, preconditioned_cholesky_qr
from rpcqr.kernels import (
    EPS,
    cholesky,
    gram,
    householder_qr,
    householder_r,
    singular_values,
    spectral_norm,
)
from rpcqr.metrics import measure
from rpcqr.transforms import (
    child_seeds,
    dct_columns,
    philox,
    rademacher_diag,
    sample_rows,
)

from dct_reference import (coherence, dct_aligned,
                           sampled_frame_singular_values)
from svd_bound import a1, svd_eta, svd_kappa


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", [cholesky_qr, cholesky_qr2])
    def test_overflowed_gram_is_a_breakdown(self, method):
        # A column norm past sqrt(max float) overflows the Gram matrix;
        # dpotrf factors it with info = 0 and a NaN pivot, which must not
        # come back as a NaN Q.
        A = haar_rotated(50, 5, 10.0, seed=3)
        A[:, 2] *= 1e160
        with pytest.raises(CholeskyBreakdown) as exc:
            method(A)
        assert exc.value.pivot_index == 2
        assert not np.isfinite(exc.value.pivot_value)

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
        assert str(exc.value).endswith("(stage 1)")

    def test_breakdown_in_the_second_cholesky_is_stage_2(self, monkeypatch):
        calls = []

        def second_breaks(G, _fn=algorithms.cholesky):
            calls.append(G.shape)
            if len(calls) == 2:
                raise CholeskyBreakdown(3, -1.0)
            return _fn(G)

        monkeypatch.setattr(algorithms, "cholesky", second_breaks)
        with pytest.raises(CholeskyBreakdown) as exc:
            cholesky_qr2(haar_rotated(60, 6, 10.0, seed=1))
        assert calls == [(6, 6)] * 2
        assert (exc.value.stage, exc.value.pivot_index) == (2, 3)

    def test_breakdown_pickles_with_its_facts(self):
        # A stage stamped after the raise, as cholesky_qr2 does, survives a
        # pickle round trip (a worker process's error) and prints as a float.
        exc = CholeskyBreakdown(3, np.float64(-1.25))
        exc.stage = 2
        back = pickle.loads(pickle.dumps(exc))
        assert (back.pivot_index, back.pivot_value, back.stage) == (3, -1.25, 2)
        assert str(back) == "unusable pivot -1.25 at index 3 (stage 2)"
        assert str(exc) == str(back)

    # The n cross the triangular solve's recursion: dtrsm alone up to 32
    # columns, one halving at 33 to 64, two at 65 to 128, three beyond.
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 65, 127, 129])
    def test_bitwise_two_basic_passes(self, n):
        A = haar_rotated(10 * n, n, 1e5, seed=11)
        f1 = cholesky_qr(A)
        f2 = cholesky_qr(f1.Q)
        f = cholesky_qr2(A)
        assert np.array_equal(f.Q, f2.Q)
        # R = R2 R1 as the pass forms it: R^T = R1^T R2^T by one dtrmm.
        assert np.array_equal(f.R, dtrmm(1.0, f1.R.T, f2.R.T, lower=1).T)

    def test_cqr2_and_precond_call_the_pass_by_its_name(self, monkeypatch):
        # Like the rp stages: a tracer sees the pass only under its name.
        calls = []
        for module in (algorithms, harness):
            def counted(A, R_s, method, _fn=preconditioned_cholesky_qr,
                        _module=module.__name__):
                calls.append(_module)
                return _fn(A, R_s, method)
            monkeypatch.setattr(module, "preconditioned_cholesky_qr", counted)
        A = haar_rotated(60, 6, 10.0, seed=2)
        assert cholesky_qr2(A).method == "cqr2"
        assert harness.METHODS["precond"].run(A, None, 0)[0].method == \
            "preconditioned"
        assert calls == ["rpcqr.algorithms", "rpcqr.harness"]


class TestPreconditionedCholeskyQR:
    def test_perfect_preconditioner(self):
        A = haar_rotated(200, 20, 10.0, seed=9)
        R_s = householder_qr(A).R
        f, _, _ = preconditioned_cholesky_qr(A, R_s, "preconditioned")
        A1 = a1(A, R_s)
        assert ortho_deviation(A1) <= 1e-14
        assert ortho_deviation(f.Q) <= 1e-14
        assert svd_eta(A, A1, R_s) == pytest.approx(1.0, abs=1e-6)
        assert rel_residual(A, f) <= 1e-13

    # The n cross the triangular solve's recursion, as in
    # test_bitwise_two_basic_passes.
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 65, 127, 129])
    def test_identity_preconditioner_is_bitwise_basic(self, n):
        A = haar_rotated(10 * n, n, 1e3, seed=10)
        f0 = cholesky_qr(A)
        f1, _, R2 = preconditioned_cholesky_qr(A, np.eye(n), "basic")
        assert np.array_equal(f1.Q, f0.Q)
        assert np.array_equal(f1.R, f0.R)
        assert np.array_equal(R2, f0.R)
        assert np.array_equal(a1(A, np.eye(n)), A)

    def test_sampled_preconditioner_tames_conditioning(self):
        A = haar_rotated(300, 30, 1e6, seed=11)
        _, R_s, _ = rp_cholesky_qr(A, 120, seed=12)
        assert svd_kappa(a1(A, R_s)) <= 10

    def test_preconditioner_scale_invariance(self):
        A = haar_rotated(150, 15, 1e3, seed=13)
        R_s = householder_qr(A).R
        f1, _, _ = preconditioned_cholesky_qr(A, R_s, "preconditioned")
        f2, _, _ = preconditioned_cholesky_qr(A, 7.5 * R_s, "preconditioned")
        assert svd_kappa(a1(A, R_s)) == pytest.approx(
            svd_kappa(a1(A, 7.5 * R_s)), rel=1e-12)
        assert np.max(np.abs(f1.Q - f2.Q)) <= 1e-12

    # The pass checks no operand; a zero or non-finite entry still yields
    # no factors, because it reaches the Gram matrix and the Cholesky
    # kernel stops at the unusable pivot.  A is full rank, so the breakdown
    # comes from the bad entry alone.
    def test_singular_diag_raises(self):
        A = haar_rotated(40, 3, 10.0, seed=15)
        R = np.triu(np.ones((3, 3)))
        R[1, 1] = 0.0
        with np.errstate(all="ignore"), pytest.raises(CholeskyBreakdown):
            preconditioned_cholesky_qr(A, R, "preconditioned")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["A", "R_diag", "R_offdiag"])
    def test_non_finite_operand_raises(self, bad, operand):
        A = haar_rotated(40, 3, 10.0, seed=15)
        R = np.triu(np.ones((3, 3)))
        if operand == "A":
            A[2, 1] = bad
        elif operand == "R_diag":
            R[1, 1] = bad
        else:
            R[0, 2] = bad
        with np.errstate(all="ignore"), pytest.raises(CholeskyBreakdown):
            preconditioned_cholesky_qr(A, R, "preconditioned")

    # cqr2, rp and precond are this pass; only the source of R_s differs.
    @pytest.mark.parametrize("n", [12, 64, 65, 130])
    @pytest.mark.parametrize("method", ["cqr2", "rpcholesky",
                                        "preconditioned"])
    def test_each_method_is_the_pass_on_its_R_s(self, method, n):
        A = haar_rotated(10 * n, n, 1e5, seed=16)
        if method == "cqr2":
            R_s = cholesky(gram(A))
            f, R2 = cholesky_qr2(A), None
        elif method == "rpcholesky":
            R_s = build_preconditioner(A, 2 * n, 17)
            f, _, R2 = rp_cholesky_qr(A, 2 * n, 17)
        else:
            R_s = householder_r(A)
            f, _, R2 = harness.METHODS["precond"].run(A, None, 0)
        g, S, S2 = preconditioned_cholesky_qr(A, R_s, method)
        assert S is R_s
        assert f.method == g.method == method
        assert np.array_equal(f.Q, g.Q)
        assert np.array_equal(f.R, g.R)
        # The R2 returned is the Cholesky factor of A1's Gram, bit for bit.
        assert np.array_equal(S2, cholesky(gram(a1(A, R_s))))
        assert R2 is None or np.array_equal(R2, S2)


class TestRpCholeskyQR:
    def test_numerically_singular_full_accuracy(self):
        A = worst_coherence_stack(2000, 100, 1e15, seed=14)
        f, R_s, _ = rp_cholesky_qr(A, 600, seed=15)
        assert ortho_deviation(f.Q) <= 1e-13
        assert svd_kappa(a1(A, R_s)) < 10
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
        f1, R_s1, R21 = rp_cholesky_qr(A, 40, seed=21)
        f2, R_s2, R22 = rp_cholesky_qr(A, 40, seed=21)
        assert np.array_equal(f1.Q, f2.Q)
        assert np.array_equal(f1.R, f2.R)
        assert np.array_equal(R_s1, R_s2)
        assert np.array_equal(R21, R22)

    def test_rejects_small_c(self):
        A = haar_rotated(50, 10, 1e2, seed=22)
        with pytest.raises(ValueError):
            rp_cholesky_qr(A, 5, seed=23)

    def test_bounds_c_before_any_draw(self, monkeypatch):
        # sample_rows draws ~7 ns an index: 2**32 draws take about 30 s,
        # 1e20 millennia.  2**32 reaches the draw; one more is rejected.
        class Drawn(Exception):
            pass

        def no_draw(*args):
            raise Drawn

        monkeypatch.setattr(algorithms, "sample_rows", no_draw)
        A = haar_rotated(20, 2, 10.0, seed=0)
        assert algorithms.MAX_C == 2 ** 32
        with pytest.raises(Drawn):
            rp_cholesky_qr(A, 2 ** 32, seed=0)
        for c in (2 ** 32 + 1, 10 ** 20):
            with pytest.raises(ValueError,
                               match=rf"^need c <= {2 ** 32}, got c={c}$"):
                rp_cholesky_qr(A, c, seed=0)

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
        f, R_s, R2 = rp_cholesky_qr(A, 60, seed=3)
        res, et = rel_residual(A, f), measure(A, spectral_norm(A), f, R2,
                                              R_s)["eta"]
        As = scale * A
        fs, R_ss, R2s = rp_cholesky_qr(As, 60, seed=3)
        res_s, et_s = rel_residual(As, fs), measure(As, spectral_norm(As), fs,
                                                    R2s, R_ss)["eta"]
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

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("c", [20, 60, 400])
    def test_distinct_rows_keep_the_sketch_gram(self, c, seed):
        # R_s of the distinct weighted rows against the R of all c draws
        # scaled by sqrt(m/c): both factor the same sketch A_s^T A_s.
        A = haar_rotated(400, 20, 1e10, seed=3)
        sign_seed, sample_seed = child_seeds([seed], 2)
        FA = dct_columns(rademacher_diag(400, sign_seed)[:, None] * A)
        A_s = np.sqrt(400 / c) * FA[philox(sample_seed).integers(0, 400,
                                                                 size=c)]
        R1 = build_preconditioner(A, c, seed)
        R2 = householder_r(A_s)
        err = spectral_norm(R1.T @ R1 - R2.T @ R2)
        assert err <= 10 * c * EPS * spectral_norm(A_s) ** 2

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

    def test_rejects_a_wide_sample(self):
        with pytest.raises(ValueError,
                           match=r"^need c >= cols, got c=2, cols=3$"):
            build_preconditioner(np.ones((4, 3)), 2, seed=0)

    def test_rp_calls_each_stage_by_its_name(self, monkeypatch):
        # A tracer sees a stage only if rp_cholesky_qr looks it up by its
        # own name at call time, not through a private twin.
        stages = ["build_preconditioner", "rademacher_diag", "dct_columns",
                  "sample_rows", "preconditioned_cholesky_qr"]
        calls = []
        for name in stages:
            def counted(*args, _fn=getattr(algorithms, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(algorithms, name, counted)
        rp_cholesky_qr(haar_rotated(60, 5, 10.0, seed=0), 20, seed=1)
        assert sorted(calls) == sorted(stages)

    @pytest.mark.parametrize("stage, identity, make, error", [
        ("rademacher_diag", lambda m, seed: np.ones(m), dct_aligned,
         CholeskyBreakdown),
        ("dct_columns", lambda X: X, worst_coherence_stack,
         RankDeficientSampleError),
    ], ids=["sign_flip", "dct"])
    def test_each_stage_is_needed(self, monkeypatch, stage, identity, make,
                                  error):
        # The input that the stage mixes: the full pipeline factors it in
        # criterion 1's regime on every seed, and without the stage every
        # seed fails.  Worst coherence needs the DCT; an input whose DCT is
        # worst coherence needs the sign flip.
        A = make(300, 30, 1e15, seed=0)
        for seed in range(5):
            f = rp_cholesky_qr(A, 90, seed)[0]
            assert ortho_deviation(f.Q) <= 1e-11
            assert rel_residual(A, f) <= 5e-15
        monkeypatch.setattr(algorithms, stage, identity)
        for seed in range(5):
            with pytest.raises(error):
                rp_cholesky_qr(A, 90, seed)

    def test_tiny_rank_tol_keeps_the_preconditioner(self):
        A = worst_coherence_stack(200, 10, 1e15, seed=8)
        strict = build_preconditioner(A, 30, seed=9, rank_tol=1e-300)
        assert np.array_equal(strict, build_preconditioner(A, 30, 9))


def _q_or_error(A, c, seed):
    """rp_cholesky_qr's Q, or the type of the error it raised."""
    try:
        return rp_cholesky_qr(A, c, seed)[0].Q
    except (CholeskyBreakdown, RankDeficientSampleError) as exc:
        return type(exc)


def _same(x, y):
    if isinstance(x, type) or isinstance(y, type):
        return x is y
    return np.array_equal(x, y)


@st.composite
def rp_cases(draw):
    """(A, c, seed): m >= n >= 1, n <= c <= m + 8, either matrix kind."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(n, 60))
    c = draw(st.integers(n, m + 8))
    make = draw(st.sampled_from([worst_coherence_stack, haar_rotated]))
    kappa = 10.0 ** draw(st.floats(0.0, 15.0))
    A = make(m, n, kappa, draw(st.integers(0, 2**32 - 1)))
    return A, c, draw(st.integers(0, 2**63 - 1))


class TestRpCholeskyQRProperties:
    """Q depends on the values of A and on (c, seed), and on nothing else."""

    @given(rp_cases())
    @settings(max_examples=40, deadline=None)
    def test_memory_order_and_repeat(self, case):
        A, c, seed = case
        Q = _q_or_error(A, c, seed)
        assert _same(Q, _q_or_error(A, c, seed))
        assert _same(Q, _q_or_error(np.asfortranarray(A), c, seed))

    @given(rp_cases(), st.sampled_from([np.float32, np.int64]))
    @settings(max_examples=40, deadline=None)
    def test_input_dtype_is_cast_to_float64(self, case, dtype):
        A, c, seed = case
        A = (A * 2.0**10).astype(dtype)  # integers: rounded toward zero
        assert _same(_q_or_error(A, c, seed),
                     _q_or_error(A.astype(np.float64), c, seed))

    @given(rp_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_column_scaling(self, case, data):
        A, c, seed = case
        k = data.draw(st.lists(st.integers(-30, 30), min_size=A.shape[1],
                               max_size=A.shape[1]))
        assert _same(_q_or_error(A, c, seed),
                     _q_or_error(A * 2.0 ** np.array(k), c, seed))

    @given(rp_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_zero_column_is_rank_deficient_for_every_seed(self, case, data):
        A, c, seed = case
        A = A.copy()
        A[:, data.draw(st.integers(0, A.shape[1] - 1))] = 0.0
        with pytest.raises(RankDeficientSampleError):
            rp_cholesky_qr(A, c, seed)

    @given(rp_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_duplicated_column_gives_factors_or_a_typed_error(self, case,
                                                             data):
        A, c, seed = case
        n = A.shape[1]
        assume(n >= 2)
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True))
        A = A.copy()
        A[:, j] = A[:, i]
        _q_or_error(A, c, seed)  # any other exception fails the test


#: The factors of each method that runs the preconditioned pass, called as
#: a library user or the harness calls it, at c = 3n for rp.
_FACTOR = {
    "rp": lambda A: rp_cholesky_qr(A, 3 * A.shape[1], 1)[0],
    "cqr2": cholesky_qr2,
    "precond": lambda A: harness.METHODS["precond"].run(A, None, 0)[0],
}


class TestMemory:
    """A is only read, and a call holds one m x n working array at a time."""

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("method", sorted(_FACTOR))
    def test_a_is_only_read(self, method, order, writeable):
        A = np.array(haar_rotated(300, 20, 1e5, seed=3), order=order)
        before = A.copy()
        A.setflags(write=writeable)
        f = _FACTOR[method](A)
        assert np.array_equal(A, before)
        assert not np.shares_memory(f.Q, A)

    # The pass solves Q in A1's memory, and rp's DCT buffer is gone before
    # it starts.  At 2000 x 200, each n x n array is 0.1 A.nbytes: both
    # peak at 1.40 A.nbytes in the pass, one m x n array and four n x n
    # ones, against 2.23 when A1 and Q were both kept.
    @pytest.mark.parametrize("method", ["rp", "cqr2"])
    def test_peak_is_one_m_by_n_array(self, method):
        A = np.asfortranarray(haar_rotated(2000, 200, 1e5, seed=4))
        tracemalloc.start()
        try:
            _FACTOR[method](A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * A.nbytes


class TestSampledFrameSingularValues:
    def test_reciprocal_pairing(self):
        A = haar_rotated(500, 20, 1e2, seed=24)
        _, R_s, _ = rp_cholesky_qr(A, 100, seed=25)
        s = sampled_frame_singular_values(A, 100, 25)
        s1 = singular_values(a1(A, R_s))
        assert np.max(np.abs(s * s1[::-1] - 1.0)) <= 1e-8

    def test_shared_condition_number(self):
        A = worst_coherence_stack(500, 20, 1e3, seed=26)
        _, R_s, _ = rp_cholesky_qr(A, 100, seed=27)
        s = sampled_frame_singular_values(A, 100, 27)
        assert s[0] / s[-1] == pytest.approx(svd_kappa(a1(A, R_s)), rel=1e-8)

    def test_scalar_case(self):
        A = haar_rotated(64, 1, 1.0, seed=28)
        _, R_s, _ = rp_cholesky_qr(A, 8, seed=29)
        s = sampled_frame_singular_values(A, 8, 29)
        assert s[0] * singular_values(a1(A, R_s))[0] == pytest.approx(
            1.0, rel=1e-10)


# Every rejection of a public entry point, with its exact type and message.
# One bad value per case: the other arguments stay valid.
_A = haar_rotated(8, 3, 10.0, seed=0)
_F = householder_qr(_A)

#: (entry point, argument, call with that argument replaced, its valid
#: value, whether the argument must be tall).
_MATRIX_ARGS = [
    ("cholesky_qr", "A", lambda X: cholesky_qr(X), _A, True),
    ("cholesky_qr2", "A", lambda X: cholesky_qr2(X), _A, True),
    ("rp_cholesky_qr", "A", lambda X: rp_cholesky_qr(X, 6, 1), _A, True),
    ("ortho_deviation", "Q", ortho_deviation, _F.Q, False),
    # Not public: the test oracle for μ rejects a bad Q as they do.
    ("coherence", "Q", coherence, _F.Q, False),
    ("rel_residual", "A", lambda X: rel_residual(X, _F), _A, False),
]


def _bad_values(X, tall):
    """(name, bad value, error type, message) for a matrix argument X."""
    m, n = X.shape
    for v in (np.nan, np.inf, -np.inf):
        Y = X.copy()
        Y[0, -1] = v
        yield str(v), Y, ValueError, "matrix entries must be finite"
    yield ("0-row", np.zeros((0, n)), ValueError,
           f"matrix dimensions must be >= 1, got (0, {n})")
    yield ("0-col", np.zeros((m, 0)), ValueError,
           f"matrix dimensions must be >= 1, got ({m}, 0)")
    yield "1-d", np.ones(m), ValueError, "expected a 2-d array, got ndim=1"
    if tall:
        wide = np.random.default_rng(0).standard_normal((n - 1, n))
        yield ("wide", wide, ValueError,
               f"need rows >= cols, got {n - 1}x{n}")


def _must_not_run(*args):
    raise AssertionError("a preconditioner stage ran before c was checked")


def _rp_without_dct(c):
    """rp_cholesky_qr(_A, c, 1), with a DCT stage that must not run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "dct_columns", _must_not_run)
        rp_cholesky_qr(_A, c, 1)


def _rejections():
    for entry, arg, call, X, tall in _MATRIX_ARGS:
        for name, bad, exc, msg in _bad_values(X, tall):
            yield pytest.param(lambda c=call, b=bad: c(b), exc, msg,
                               id=f"{entry}-{arg}-{name}")
    for name, v in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]:
        for field in ("Q", "R"):
            factor = getattr(_F, field).copy()
            factor[0, -1] = v
            f = QRFactors(**{**vars(_F), field: factor})
            yield pytest.param(lambda f=f: rel_residual(_A, f), ValueError,
                               "matrix entries must be finite",
                               id=f"rel_residual-f.{field}-{name}")
    for name, A, Q, R in [
        ("wide-A", np.ones((3, 8)), _F.Q, _F.R),
        ("short-Q", _A, _F.Q[:5], _F.R),
        ("wide-Q", _A, np.ones((8, 4)), _F.R),
        ("wrong-R", _A, _F.Q, np.eye(4)),
        ("not-thin", _A, np.ones((8, 4)), np.triu(np.ones((4, 3)))),
    ]:
        f = QRFactors(Q=Q, R=R, method="householder")
        yield pytest.param(lambda A=A, f=f: rel_residual(A, f), ValueError,
                           f"A - QR needs conforming shapes, got A {A.shape}, "
                           f"Q {Q.shape}, R {R.shape}",
                           id=f"rel_residual-{name}")
    lower = QRFactors(Q=_F.Q, R=_F.R + np.tril(np.ones((3, 3)), -1),
                      method="householder")
    yield pytest.param(lambda: rel_residual(_A, lower), ValueError,
                       "R must be upper triangular",
                       id="rel_residual-lower-R")
    for name, A in [("zero-A", np.zeros((8, 3))), ("negative-zero-A",
                                                    -np.zeros((8, 3)))]:
        yield pytest.param(lambda A=A: rel_residual(A, _F), ValueError,
                           "A must be nonzero", id=f"rel_residual-{name}")
    # The generators check the caller's scalars: (m, n), kappa and the seed.
    generators = [
        ("haar_frame", lambda m, n, kappa, seed: haar_frame(m, n, seed)),
        ("haar_rotated", haar_rotated),
        ("worst_coherence_stack", worst_coherence_stack),
    ]
    for entry, call in generators:
        for m, n in [(0, 3), (3, 0), (2, 5)]:
            yield pytest.param(lambda c=call, m=m, n=n: c(m, n, 10.0, 1),
                               ValueError,
                               f"need 1 <= n <= m, got m={m}, n={n}",
                               id=f"{entry}-{m}x{n}")
    generators.append(("randsvd", lambda m, n, kappa, seed:
                       randsvd(n, kappa, seed)))
    yield pytest.param(lambda: randsvd(0, 10.0, 1), ValueError,
                       "need 1 <= n <= m, got m=0, n=0", id="randsvd-0x0")
    # A non-integer dimension is named, not left to fail inside numpy.
    for entry, call, arg, v in [
        ("haar_frame", lambda: haar_frame(4.0, 2, 1), "m", 4.0),
        ("haar_rotated", lambda: haar_rotated(6, 2.5, 10.0, 1), "n", 2.5),
        ("randsvd", lambda: randsvd(3.0, 10.0, 1), "n", 3.0),
        ("worst_coherence_stack",
         lambda: worst_coherence_stack(6.0, 2, 10.0, 1), "m", 6.0),
        # A bool is no integer here, though operator.index(True) is 1.
        ("haar_frame", lambda: haar_frame(True, True, 1), "n", True),
        ("haar_rotated", lambda: haar_rotated(6, True, 10.0, 1), "n", True),
        ("randsvd", lambda: randsvd(True, 10.0, 1), "n", True),
        ("worst_coherence_stack",
         lambda: worst_coherence_stack(True, 1, 10.0, 1), "m", True),
    ]:
        yield pytest.param(call, TypeError,
                           f"{arg} must be an integer, got {v!r}",
                           id=f"{entry}-{arg}-{v!r}")
    for entry, call in generators[1:]:
        for kappa in [np.nan, np.inf, 0.5, -np.inf, True, "10"]:
            yield pytest.param(lambda c=call, k=kappa: c(6, 3, k, 1),
                               ValueError,
                               f"kappa must be a finite number >= 1, "
                               f"got {kappa!r}",
                               id=f"{entry}-kappa-{kappa}")
    for entry, call in [*generators, ("rp_cholesky_qr", lambda m, n, kappa,
                                      seed: rp_cholesky_qr(_A, 6, seed))]:
        for seed in [1.5, 2.0, np.float64(1.0), "1", None, True, False]:
            yield pytest.param(lambda c=call, s=seed: c(6, 3, 10.0, s),
                               TypeError,
                               f"seed must be an integer, got {seed!r}",
                               id=f"{entry}-seed-{seed!r}")
    for c in [6.0, 6.5, np.float64(6.0), "12", None, 12.5, True]:
        yield pytest.param(lambda c=c: _rp_without_dct(c), TypeError,
                           f"c must be an integer, got {c!r}",
                           id=f"rp_cholesky_qr-c-{c!r}")


@pytest.mark.parametrize("call, exc, message", _rejections())
def test_public_entry_point_rejects_bad_input(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is exc
