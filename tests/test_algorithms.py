import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpcqr import (
    CholeskyBreakdown,
    QRFactors,
    RankDeficientSampleError,
    SingularTriangularError,
    cholesky_qr,
    cholesky_qr2,
    haar_frame,
    haar_rotated,
    ortho_deviation,
    preconditioned_cholesky_qr,
    randsvd,
    rel_residual,
    rp_cholesky_qr,
    worst_coherence_stack,
)
from rpcqr.algorithms import build_preconditioner
from rpcqr.kernels import householder_qr, singular_values, spectral_norm
from rpcqr.metrics import coherence, cond2, eta
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

    def test_singular_diag_raises(self):
        R = np.triu(np.ones((3, 3)))
        R[1, 1] = 0.0
        with pytest.raises(SingularTriangularError):
            preconditioned_cholesky_qr(np.ones((4, 3)), R)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["A", "R_diag", "R_offdiag"])
    def test_non_finite_operand_raises(self, bad, operand):
        A = np.ones((4, 3))
        R = np.triu(np.ones((3, 3)))
        if operand == "A":
            A[2, 1] = bad
        elif operand == "R_diag":
            R[1, 1] = bad
        else:
            R[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            preconditioned_cholesky_qr(A, R)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_column_count_mismatch_raises(self, extra):
        R = np.triu(np.ones((3, 3)))
        with pytest.raises(ValueError, match="columns"):
            preconditioned_cholesky_qr(np.ones((5, 3 + extra)), R)


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

    def test_rejects_a_wide_sample(self):
        with pytest.raises(ValueError,
                           match=r"^need c >= cols, got c=2, cols=3$"):
            build_preconditioner(np.ones((4, 3)), 2, seed=0)

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


# Every rejection of a public entry point, with its exact type and message.
# One bad value per case: the other arguments stay valid.
_A = haar_rotated(8, 3, 10.0, seed=0)
_R_S = np.triu(np.ones((3, 3))) + np.eye(3)
_F = householder_qr(_A)

#: (entry point, argument, call with that argument replaced, its valid
#: value, whether the argument must be tall).
_MATRIX_ARGS = [
    ("cholesky_qr", "A", lambda X: cholesky_qr(X), _A, True),
    ("cholesky_qr2", "A", lambda X: cholesky_qr2(X), _A, True),
    ("preconditioned_cholesky_qr", "A",
     lambda X: preconditioned_cholesky_qr(X, _R_S), _A, True),
    ("preconditioned_cholesky_qr", "R_s",
     lambda X: preconditioned_cholesky_qr(_A, X), _R_S, False),
    ("build_preconditioner", "A", lambda X: build_preconditioner(X, 6, 1),
     _A, False),
    ("rp_cholesky_qr", "A", lambda X: rp_cholesky_qr(X, 6, 1), _A, True),
    ("dct_columns", "A", dct_columns, _A, False),
    ("sample_rows", "FA", lambda X: sample_rows(X, 6, 1), _A, False),
    ("ortho_deviation", "Q", ortho_deviation, _F.Q, False),
    ("coherence", "Q", coherence, _F.Q, False),
    ("rel_residual", "A", lambda X: rel_residual(X, _F), _A, False),
    ("cond2", "A", cond2, _A, True),
    ("eta", "A", lambda X: eta(X, _A, _R_S), _A, False),
    ("eta", "A1", lambda X: eta(_A, X, _R_S), _A, True),
    ("eta", "R_s", lambda X: eta(_A, _A, X), _R_S, False),
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


def _below_diagonal():
    R = _R_S.copy()
    R[2, 0] = 1e-300
    return R


def _zero_diagonal():
    R = _R_S.copy()
    R[1, 1] = 0.0
    return R


def _rejections():
    for entry, arg, call, X, tall in _MATRIX_ARGS:
        for name, bad, exc, msg in _bad_values(X, tall):
            yield pytest.param(lambda c=call, b=bad: c(b), exc, msg,
                               id=f"{entry}-{arg}-{name}")
    pcqr = preconditioned_cholesky_qr
    for name, R, exc, msg in [
        ("non-square", np.triu(np.ones((3, 4))), ValueError,
         "triangular factor must be square"),
        ("column-mismatch", np.eye(4), ValueError,
         "A has 3 columns but R is 4x4"),
        ("below-diagonal", _below_diagonal(), ValueError,
         "strictly lower part must be exactly zero"),
        ("zero-diagonal", _zero_diagonal(), SingularTriangularError,
         "diagonal entry np.float64(0.0) at index 1 is singular"),
    ]:
        yield pytest.param(lambda R=R: pcqr(_A, R), exc, msg,
                           id=f"preconditioned_cholesky_qr-R_s-{name}")
    for name, v in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]:
        for field in ("Q", "R"):
            factor = getattr(_F, field).copy()
            factor[0, -1] = v
            f = QRFactors(**{**vars(_F), field: factor})
            yield pytest.param(lambda f=f: rel_residual(_A, f), ValueError,
                               "matrix entries must be finite",
                               id=f"rel_residual-f.{field}-{name}")
    dims = "matrix dimensions must be >= 1, got"
    for entry, call, cases in [
        ("haar_frame", lambda m, n: haar_frame(m, n, 1),
         [((0, 3), f"{dims} (0, 3)"), ((3, 0), f"{dims} (3, 0)"),
          ((2, 5), "need rows >= cols, got 2x5")]),
        ("haar_rotated", lambda m, n: haar_rotated(m, n, 10.0, 1),
         [((0, 3), f"{dims} (0, 3)"), ((3, 0), f"{dims} (0, 0)"),
          ((2, 5), "need rows >= cols, got 2x5")]),
        ("worst_coherence_stack",
         lambda m, n: worst_coherence_stack(m, n, 10.0, 1),
         [((0, 3), "need m >= n"), ((3, 0), f"{dims} (0, 0)"),
          ((2, 5), "need m >= n")]),
        ("randsvd", lambda m, n: randsvd(n, 10.0, 1),
         [((0, 0), f"{dims} (0, 0)")]),
    ]:
        for (m, n), msg in cases:
            yield pytest.param(lambda c=call, m=m, n=n: c(m, n), ValueError,
                               msg, id=f"{entry}-{m}x{n}")


@pytest.mark.parametrize("call, exc, message", _rejections())
def test_public_entry_point_rejects_bad_input(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is exc
