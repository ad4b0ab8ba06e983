"""Measured accuracy quantities recorded for every experiment trial.

:func:`measure` fills a CSV row in one pass, with the arithmetic of the
single-quantity functions but ‖A‖ taken once per test matrix by the caller.
"""

import math

import numpy as np
from scipy.linalg.blas import dgemm

from .kernels import (
    as_matrix,
    singular_values,
    spectral_norm,
    sym_eigenvalues,
)


def ortho_deviation(Q):
    """Two-norm deviation of Q's columns from orthonormality.

    Evaluated through the exact symmetric eigensolver (largest absolute
    eigenvalue of I - Q^T Q) so values near unit roundoff are resolved.
    """
    Q = as_matrix(Q)
    n = Q.shape[1]
    S = np.eye(n) - Q.T @ Q
    w = sym_eigenvalues((S + S.T) / 2.0)
    return float(max(abs(w[0]), abs(w[-1])))


def _residual(A, f, norm_A):
    # A - QR in one dgemm update of a Fortran copy of A: no QR temporary
    # and no separate subtraction pass.
    D = dgemm(-1.0, f.Q, f.R, beta=1.0, c=np.array(A, order="F"),
              overwrite_c=1)
    return spectral_norm(D) / norm_A


def _cond(s):
    return math.inf if s[-1] == 0.0 else float(s[0] / s[-1])


def _eta(norm_A1, R_s, norm_A):
    return norm_A1 * spectral_norm(R_s) / norm_A


def rel_residual(A, f):
    """Relative two-norm residual ‖A - QR‖₂ / ‖A‖₂ of a factorization."""
    A = as_matrix(A)
    return _residual(A, f, spectral_norm(A))


def cond2(A):
    """Two-norm condition number sigma_1/sigma_n (inf if sigma_n = 0)."""
    return _cond(singular_values(A))


def eta(A, A1, R_s):
    """Conditioning of the product A1 * R_s; lies in [1, kappa(A1)]."""
    return _eta(spectral_norm(A1), R_s, spectral_norm(A))


def measure(A, norm_A, f, A1=None, R_s=None):
    """The metric cells of one trial row, given ``norm_A`` = ‖A‖₂.

    Returns ``deviation``, ``residual``, ``kappa_A1`` and ``eta`` as
    :func:`ortho_deviation`, :func:`rel_residual`, :func:`cond2` and
    :func:`eta` define them; the last two are ``None`` without an A1.  η
    takes σ₁(A₁) from the SVD behind κ(A₁), so it can differ from
    :func:`eta` in the last bits.
    """
    A = as_matrix(A)
    cells = dict(deviation=ortho_deviation(f.Q),
                 residual=_residual(A, f, norm_A), kappa_A1=None, eta=None)
    if A1 is not None:
        s = singular_values(A1)
        cells["kappa_A1"] = _cond(s)
        cells["eta"] = _eta(float(s[0]), R_s, norm_A)
    return cells
