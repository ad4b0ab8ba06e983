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

from dataclasses import dataclass

import numpy as np

from .errors import CholeskyBreakdown, RankDeficientSampleError
from .kernels import (
    QRFactors,
    as_matrix,
    cholesky,
    gram,
    householder_r,
    spectral_norm,
    tri_solve_right,
)
from .transforms import (
    RowSample,
    SignDiagonal,
    dct_columns,
    rademacher_diag,
    sample_rows,
)


@dataclass
class PreconditionerInfo:
    """The realized randomized preconditioner of one rp_cholesky_qr run."""

    R_s: np.ndarray
    sample: RowSample
    signs: SignDiagonal


def cholesky_qr(A):
    """Basic Cholesky-QR: Gram matrix, Cholesky, triangular solve."""
    A = as_matrix(A)
    if A.shape[0] < A.shape[1]:
        raise ValueError("need rows >= cols")
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


def preconditioned_cholesky_qr(A, R_s):
    """Cholesky-QR of the preconditioned matrix A1 = A R_s^{-1}.

    Returns the factors of A (R = R2 R_s) together with A1, which callers
    keep for condition-number diagnostics.  With R_s = I this reproduces
    :func:`cholesky_qr` bit for bit.
    """
    A1 = tri_solve_right(A, R_s)
    f = cholesky_qr(A1)
    R = np.triu(f.R @ np.asarray(R_s, dtype=np.float64))
    return QRFactors(Q=f.Q, R=R, method="preconditioned"), A1


def _child_seeds(seed, n):
    ss = np.random.SeedSequence(int(seed))
    return [int(s) for s in ss.generate_state(n, np.uint64)]


def build_preconditioner(A, c, seed, rank_tol=0.0):
    """Sample-based triangular preconditioner (sign flip, DCT, row sample, QR).

    Raises :class:`RankDeficientSampleError` when the triangular factor of
    the sampled matrix is unusable (a diagonal entry that is non-finite,
    zero, or at most ``rank_tol`` times the sampled matrix's norm);
    retrying with a new seed is the caller's decision.

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
    sign_seed, sample_seed = _child_seeds(seed, 2)
    signs = rademacher_diag(m, sign_seed)
    FA = dct_columns(signs.signs[:, None] * A)
    A_s, sample = sample_rows(FA, c, sample_seed)
    R_s = householder_r(A_s)
    d = np.diag(R_s)
    threshold = rank_tol * spectral_norm(A_s) if rank_tol > 0.0 else 0.0
    if not np.isfinite(d).all() or np.min(d) <= threshold:
        raise RankDeficientSampleError(
            f"sampled matrix numerically rank deficient (c={c})"
        )
    return PreconditionerInfo(R_s=R_s, sample=sample, signs=signs)


def rp_cholesky_qr(A, c, seed, rank_tol=0.0):
    """Randomized preconditioned Cholesky-QR.

    Deterministic for fixed (A, c, seed).  Only the triangular factor of the
    sampled matrix is computed; its orthonormal factor is never formed.
    """
    info = build_preconditioner(A, c, seed, rank_tol=rank_tol)
    f, A1 = preconditioned_cholesky_qr(A, info.R_s)
    f = QRFactors(Q=f.Q, R=f.R, method="rpcholesky")
    return f, info, A1

