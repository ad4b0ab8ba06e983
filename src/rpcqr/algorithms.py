"""The Cholesky-QR family of thin QR factorizations.

Four routes to A = QR for a tall full-column-rank A:

* :func:`cholesky_qr` -- the basic one-stage algorithm; fast but the Gram
  matrix squares the condition number, so it can break down.
* :func:`cholesky_qr2` -- two stages of the basic algorithm; accurate up to
  roughly kappa(A) ~ 1e7.
* :func:`preconditioned_cholesky_qr` -- basic Cholesky-QR of A R_s^{-1} for a
  user-supplied triangular preconditioner R_s.
* :func:`rp_cholesky_qr` -- the randomized variant: R_s is the triangular
  factor of a few rows sampled from the sign-flipped DCT of A.  Remains
  accurate even for numerically singular A.
"""

import numpy as np

from .errors import (
    CholeskyBreakdown,
    RankDeficientSampleError,
    SingularTriangularError,
)
from .kernels import (
    QRFactors,
    as_matrix,
    as_tall_matrix,
    cholesky,
    gram,
    householder_r,
    spectral_norm,
    tri_solve_right,
)
from .transforms import child_seeds, dct_columns, rademacher_diag, sample_rows


def cholesky_qr(A):
    """Basic Cholesky-QR: Gram matrix, Cholesky, triangular solve."""
    A = as_tall_matrix(A)
    G = gram(A)
    R = cholesky(G)
    Q = tri_solve_right(A, R)
    return QRFactors(Q=Q, R=R, method="basic")


def cholesky_qr2(A):
    """Two-stage Cholesky-QR; the second stage re-orthonormalizes Q.

    A breakdown is re-raised with ``stage`` set to 1 or 2.
    """
    try:
        f1 = cholesky_qr(A)
    except CholeskyBreakdown as exc:
        exc.stage = 1
        raise
    try:
        f2 = cholesky_qr(f1.Q)
    except CholeskyBreakdown as exc:
        exc.stage = 2
        raise
    R = np.triu(f2.R @ f1.R)
    return QRFactors(Q=f2.Q, R=R, method="cqr2")


def _as_preconditioner(R_s, n):
    """R_s, checked to be n x n upper triangular with a nonzero diagonal."""
    R_s = as_matrix(R_s)
    k = R_s.shape[0]
    if R_s.shape[1] != k:
        raise ValueError("triangular factor must be square")
    if np.any(np.tril(R_s, -1) != 0.0):
        raise ValueError("strictly lower part must be exactly zero")
    if k != n:
        raise ValueError(f"A has {n} columns but R is {k}x{k}")
    zero = np.diag(R_s) == 0.0
    if zero.any():
        i = int(np.argmax(zero))
        raise SingularTriangularError(
            f"diagonal entry {R_s[i, i]!r} at index {i} is singular")
    return R_s


def preconditioned_cholesky_qr(A, R_s):
    """Cholesky-QR of the preconditioned matrix A1 = A R_s^{-1}.

    Returns the factors of A (R = R2 R_s) together with A1, which callers
    keep for condition-number diagnostics.  With R_s = I this reproduces
    :func:`cholesky_qr` bit for bit.
    """
    A = as_tall_matrix(A)
    R_s = _as_preconditioner(R_s, A.shape[1])
    A1 = tri_solve_right(A, R_s)
    f = cholesky_qr(A1)
    R = np.triu(f.R @ R_s)
    return QRFactors(Q=f.Q, R=R, method="preconditioned"), A1


def build_preconditioner(A, c, seed, rank_tol=0.0):
    """Sample-based triangular preconditioner (sign flip, DCT, row sample, QR).

    Returns R_s, the triangular factor of the sample.  The sign flip and the
    sample draw on the two words of ``child_seeds([seed], 2)``, so ``seed``
    names all the randomness.  Raises :class:`RankDeficientSampleError` when
    R_s is unusable (a diagonal entry that is non-finite, zero, or at most
    ``rank_tol`` times the sampled matrix's norm).

    ``rank_tol`` defaults to 0 on purpose: for numerically singular inputs
    the smallest diagonal entry legitimately sits at roundoff level, and the
    preconditioner still works there.  Any stricter relative cutoff would
    reject exactly the inputs this algorithm is built for; a genuinely bad
    sample still surfaces as a Cholesky breakdown downstream.
    """
    A = as_matrix(A)
    m, n = A.shape
    if c < n:
        raise ValueError(f"need c >= cols, got c={c}, cols={n}")
    sign_seed, sample_seed = child_seeds([seed], 2)
    FA = dct_columns(rademacher_diag(m, sign_seed)[:, None] * A)
    A_s = sample_rows(FA, c, sample_seed)
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

    Returns (factors, R_s, A1): the factors of A, the preconditioner and
    A1 = A R_s^{-1}.  Deterministic for fixed (A, c, seed).  Only the
    triangular factor of the sampled matrix is computed; its orthonormal
    factor is never formed.
    """
    R_s = build_preconditioner(A, c, seed, rank_tol=rank_tol)
    f, A1 = preconditioned_cholesky_qr(A, R_s)
    return QRFactors(Q=f.Q, R=f.R, method="rpcholesky"), R_s, A1

