"""The Cholesky-QR family of thin QR factorizations.

Three public routes to A = QR for a tall full-column-rank A:

* :func:`cholesky_qr` -- the basic one-stage algorithm; fast but the Gram
  matrix squares the condition number, so it can break down.
* :func:`cholesky_qr2` -- accurate up to roughly kappa(A) ~ 1e7.
* :func:`rp_cholesky_qr` -- the randomized variant, accurate even for
  numerically singular A.

The last two, and the harness's ``precond`` baseline, are one internal pass,
:func:`preconditioned_cholesky_qr`, the basic algorithm on A R_s^{-1}.  They
differ only in where the triangular R_s comes from: A's own Cholesky-QR
factor, the R of a few rows sampled from the sign-flipped DCT of A, or A's
Householder R.
"""

import numpy as np
from scipy.linalg.blas import dtrmm

from .errors import CholeskyBreakdown, RankDeficientSampleError
from .kernels import (
    QRFactors,
    _solve_in_place,
    as_tall_matrix,
    cholesky,
    gram,
    householder_r,
    spectral_norm,
    tri_solve_right,
)
from .transforms import (_as_integer, child_seeds, dct_columns,
                         rademacher_diag, sample_rows)

#: The largest c a sample may draw: at about 7 ns a draw, some 30 s.
MAX_C = 2 ** 32


def cholesky_qr(A):
    """Basic Cholesky-QR: Gram matrix, Cholesky, triangular solve."""
    A = as_tall_matrix(A)
    R = cholesky(gram(A))
    return QRFactors(Q=tri_solve_right(A, R), R=R, method="basic")


def preconditioned_cholesky_qr(A, R_s, method):
    """Cholesky-QR of the preconditioned matrix A1 = A R_s^{-1}.

    Internal, like :func:`build_preconditioner`: A was checked by the
    public caller, and R_s is upper triangular with a nonzero diagonal.
    Returns (factors, R_s, R2): the factors of A tagged ``method``
    (R = R2 R_s), the R_s it was given, and R2 = chol(A1^T A1), which
    callers keep for condition-number diagnostics.  That is the triple of
    :func:`rp_cholesky_qr` and of every harness method.  Q is solved in
    A1's memory; ``tri_solve_right(A, R_s)`` rebuilds A1 bit for bit.  With
    R_s = I this reproduces :func:`cholesky_qr` bit for bit.
    """
    Q = tri_solve_right(A, R_s)  # A1, Fortran-ordered and ours
    R2 = cholesky(gram(Q))
    _solve_in_place(Q, R2)
    # R^T = R_s^T R2^T by one dtrmm on a copy of R2: R stays C-ordered.
    R = dtrmm(1.0, R_s.T, R2.T, lower=1).T
    return QRFactors(Q=Q, R=R, method=method), R_s, R2


def cholesky_qr2(A):
    """Two-stage Cholesky-QR: the preconditioned pass with R_s = R1.

    Stage 1 is R1 = cholesky(gram(A)), whose A R1^{-1} is the basic Q1;
    stage 2 re-orthonormalizes it.  A breakdown is re-raised with
    ``stage`` set to 1 or 2.
    """
    A = as_tall_matrix(A)
    stage = 1
    try:
        R1 = cholesky(gram(A))
        stage = 2
        return preconditioned_cholesky_qr(A, R1, "cqr2")[0]
    except CholeskyBreakdown as exc:
        exc.stage = stage
        raise


def build_preconditioner(A, c, seed, rank_tol=0.0):
    """Sample-based triangular preconditioner (sign flip, DCT, row sample, QR).

    Internal: A and the integer c are the ones :func:`rp_cholesky_qr`
    checked.  Returns R_s, the R of the distinct rows of c draws, each
    weighted by its count (:func:`sample_rows`).  Sign flip and sample draw
    on the two words of ``child_seeds([seed], 2)``, so ``seed`` names all
    the randomness.  Raises :class:`RankDeficientSampleError` before any QR
    when the draws hold fewer than n distinct rows, and after it when a
    diagonal entry of R_s is non-finite, zero, or at most ``rank_tol``
    times the sample's norm.

    ``rank_tol`` defaults to 0 on purpose: for numerically singular inputs
    the smallest diagonal entry legitimately sits at roundoff level, and the
    preconditioner still works there.  Any stricter relative cutoff would
    reject exactly the inputs this algorithm is built for; a genuinely bad
    sample still surfaces as a Cholesky breakdown downstream.
    """
    m, n = A.shape
    if c < n:
        raise ValueError(f"need c >= cols, got c={c}, cols={n}")
    if c > MAX_C:
        raise ValueError(f"need c <= {MAX_C}, got c={c}")
    sign_seed, sample_seed = child_seeds([seed], 2)
    # FA, the m x n sign-flipped DCT, lives only until the rows are drawn.
    A_s = sample_rows(dct_columns(rademacher_diag(m, sign_seed)[:, None] * A),
                      c, sample_seed)
    if len(A_s) < n:
        raise RankDeficientSampleError(
            f"c={c} draws hold {len(A_s)} distinct rows, fewer than n={n}")
    R_s = householder_r(A_s)
    d = np.diag(R_s)
    threshold = rank_tol * spectral_norm(A_s) if rank_tol > 0.0 else 0.0
    if not np.isfinite(d).all() or np.min(d) <= threshold:
        raise RankDeficientSampleError(
            f"sampled matrix numerically rank deficient (c={c})"
        )
    return R_s


def rp_cholesky_qr(A, c, seed, rank_tol=0.0):
    """Randomized preconditioned Cholesky-QR.

    Returns (factors, R_s, R2): the factors of A, the preconditioner and
    the Cholesky factor R2 of A1^T A1, A1 = A R_s^{-1}, so R = R2 R_s.
    The number of row draws c runs from n to :data:`MAX_C`.  Deterministic
    for fixed (A, c, seed); A is only read.  Only the triangular factor of
    the sampled matrix is computed; its orthonormal factor is never formed.
    """
    A = as_tall_matrix(A)
    c = _as_integer(c, "c")
    return preconditioned_cholesky_qr(
        A, build_preconditioner(A, c, seed, rank_tol), "rpcholesky")
