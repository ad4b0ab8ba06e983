"""Measured accuracy quantities recorded for every experiment trial.

:func:`measure` fills a CSV row's metric cells in one pass: the
arithmetic of :func:`ortho_deviation` and :func:`rel_residual`, with ‖A‖
taken once per test matrix by the caller, and the library's one definition
of a row's κ(A₁) and η.
"""

import math

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf

from .bounds import ortho_estimate
from .kernels import as_matrix, singular_values, spectral_norm, tri_solve_right


def ortho_deviation(Q):
    """Two-norm deviation ‖I - QᵀQ‖₂ of Q's columns from orthonormality.

    The spectral norm of the symmetric I - QᵀQ is its largest absolute
    eigenvalue, which :func:`~rpcqr.kernels.spectral_norm` resolves to a
    relative error of order n times unit roundoff, also near roundoff.
    A QᵀQ that overflows raises :class:`NoConvergenceError`.
    """
    Q = as_matrix(Q)
    return _deviation(Q.T @ Q)


def _deviation(G):  # ‖I - G‖₂ of a checked Q's Gram G = QᵀQ, left intact
    S = np.negative(G)
    S.flat[::len(S) + 1] += 1.0  # I - QᵀQ, rounded as np.eye(n) - QᵀQ
    return spectral_norm(S, out=S)


def _residual(A, f, norm_A):
    # QR by one dtrmm on a copy of Q (R is triangular), then A - QR in
    # that copy, which the norm then scales: one m x n temporary.
    D = dtrmm(1.0, f.R, f.Q, side=1)
    return spectral_norm(np.subtract(A, D, out=D), out=D) / norm_A


def _a1_singular_values(A, R_s, R2, G, deviation):
    # G = QᵀQ of the pass's Q = A1 R2⁻¹; R3 = chol(G) completes CholeskyQR2,
    # whose R3 R2 holds A1's singular values to O(u κ(A₁)) while
    # ‖I - G‖₂ < 1/2 (Yamamoto et al., ETNA 2015), R2 alone to O(u κ(A₁)²).
    # R2 is the pass's own (no m x n work), and past 1/2 so is A1's solve.
    # LAPACK is called directly, so no metric counts as factorization work.
    if deviation >= 0.5:
        return singular_values(tri_solve_right(A, R_s))
    R3 = dpotrf(G, lower=False, clean=True)[0]
    return singular_values(dtrmm(1.0, R3, R2))  # R2, the caller's, is kept


def rel_residual(A, f):
    """Relative two-norm residual ‖A - QR‖₂ / ‖A‖₂ of a thin factorization.

    Q has A's shape and R is square and upper triangular, as every
    factorization of the library returns.
    """
    A, Q, R = as_matrix(A), as_matrix(f.Q), as_matrix(f.R)
    if Q.shape != A.shape or R.shape != (A.shape[1],) * 2:
        raise ValueError(f"A - QR needs conforming shapes, got A {A.shape}, "
                         f"Q {Q.shape}, R {R.shape}")
    if np.tril(R, -1).any():
        raise ValueError("R must be upper triangular")
    if not A.any():  # ‖A‖₂ is the divisor
        raise ValueError("A must be nonzero")
    return _residual(A, f, spectral_norm(A))


def measure(A, norm_A, f, R2=None, R_s=None):
    """The metric cells of one trial row, given ``norm_A`` = ‖A‖₂.

    ``deviation`` and ``residual`` are bit for bit :func:`ortho_deviation`
    and :func:`rel_residual`.  With the R2 and R_s of a preconditioned pass
    (else they are ``None``), from the singular values σ₁ >= ... >= σₙ of
    its A1 = A R_s⁻¹:

    * ``kappa_A1`` is κ(A₁) = σ₁/σₙ (inf if σₙ = 0);
    * ``eta`` is η = ‖A1‖₂‖R_s‖₂/‖A‖₂ = σ₁‖R_s‖₂/‖A‖₂, in [1, κ(A₁)];
    * ``estimate_5_2`` is :func:`~rpcqr.bounds.ortho_estimate` of κ(A₁).

    The σ are those of the CholeskyQR2 factor R3 R2 that ``f.Q`` = A1 R2⁻¹
    completes, which hold A1's to O(u κ(A₁)) relative, or an SVD of A1
    when ‖I - QᵀQ‖₂ >= 1/2.  It only reads R2, and checks no argument.
    """
    G = f.Q.T @ f.Q
    cells = dict(deviation=_deviation(G), residual=_residual(A, f, norm_A),
                 kappa_A1=None, eta=None, estimate_5_2=None)
    if R2 is not None:
        s = _a1_singular_values(A, R_s, R2, G, cells["deviation"])
        kappa = math.inf if s[-1] == 0.0 else float(s[0] / s[-1])
        cells.update(kappa_A1=kappa, estimate_5_2=ortho_estimate(kappa),
                     eta=float(s[0]) * spectral_norm(R_s) / norm_A)
    return cells
