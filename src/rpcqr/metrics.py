"""Measured accuracy quantities recorded for every experiment trial.

:func:`measure` fills a CSV row's metric cells in one pass, with the
arithmetic of the single-quantity functions but ‖A‖ taken once per test
matrix by the caller.
"""

import math

import numpy as np
from scipy.linalg.blas import dgemm

from .bounds import ortho_estimate
from .errors import NotOrthonormalError
from .kernels import (
    as_matrix,
    as_tall_matrix,
    singular_values,
    spectral_norm,
    sym_eigenvalues,
)

#: Largest deviation from orthonormality :func:`coherence` accepts.
ORTHO_TOL = 1e-8


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


def coherence(Q):
    """Largest squared row norm of a matrix with orthonormal columns.

    Lies in [n/m, 1]; equals 1 when the column space is aligned with
    coordinate axes (worst case for uniform sampling).  Raises
    :class:`NotOrthonormalError` if :func:`ortho_deviation` > ``ORTHO_TOL``.
    """
    Q = as_matrix(Q)
    if ortho_deviation(Q) > ORTHO_TOL:
        raise NotOrthonormalError("columns deviate from orthonormality by "
                                  f"more than {ORTHO_TOL:g}")
    return float(np.max(np.einsum("ij,ij->i", Q, Q)))


def _residual(A, f, norm_A):
    # A - QR in one dgemm update of a Fortran copy of A: no QR temporary
    # and no separate subtraction pass.
    D = dgemm(-1.0, f.Q, f.R, beta=1.0, c=np.array(A, order="F"),
              overwrite_c=1)
    return spectral_norm(D) / norm_A


def _cond(s):
    return math.inf if s[-1] == 0.0 else float(s[0] / s[-1])


def _eta(s, R_s, norm_A):
    # s are A1's singular values, so s[0] = ‖A1‖₂.
    return float(s[0]) * spectral_norm(R_s) / norm_A


def rel_residual(A, f):
    """Relative two-norm residual ‖A - QR‖₂ / ‖A‖₂ of a factorization."""
    A = as_matrix(A)
    as_matrix(f.Q), as_matrix(f.R)  # finite factors too
    return _residual(A, f, spectral_norm(A))


def cond2(A):
    """Two-norm condition number sigma_1/sigma_n (inf if sigma_n = 0)."""
    return _cond(singular_values(as_tall_matrix(A)))


def eta(A, A1, R_s):
    """Conditioning of the product A1 * R_s; lies in [1, kappa(A1)]."""
    s = singular_values(as_tall_matrix(A1))
    return _eta(s, as_matrix(R_s), spectral_norm(as_matrix(A)))


def measure(A, norm_A, f, A1=None, R_s=None):
    """The metric cells of one trial row, given ``norm_A`` = ‖A‖₂.

    Returns ``deviation``, ``residual``, ``kappa_A1``, ``eta`` and
    ``estimate_5_2`` as :func:`ortho_deviation`, :func:`rel_residual`,
    :func:`cond2`, :func:`eta` and :func:`~rpcqr.bounds.ortho_estimate`
    define them; the last three are ``None`` without an A1.  One SVD of A1
    serves κ(A₁) and η.  Unlike those, it checks none of its arguments.
    """
    cells = dict(deviation=ortho_deviation(f.Q),
                 residual=_residual(A, f, norm_A), kappa_A1=None, eta=None,
                 estimate_5_2=None)
    if A1 is not None:
        s = singular_values(A1)
        cells["kappa_A1"] = _cond(s)
        cells["eta"] = _eta(s, R_s, norm_A)
        cells["estimate_5_2"] = ortho_estimate(cells["kappa_A1"])
    return cells
