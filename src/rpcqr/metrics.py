"""Measured accuracy quantities recorded for every experiment trial."""

import math

import numpy as np

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


def rel_residual(A, f):
    """Relative two-norm residual of a computed factorization."""
    A = as_matrix(A)
    return spectral_norm(A - f.Q @ f.R) / spectral_norm(A)


def cond2(A):
    """Two-norm condition number sigma_1/sigma_n (inf if sigma_n = 0)."""
    s = singular_values(A)
    if s[-1] == 0.0:
        return math.inf
    return float(s[0] / s[-1])


def eta(A, A1, R_s):
    """Conditioning of the product A1 * R_s; lies in [1, kappa(A1)]."""
    return spectral_norm(A1) * spectral_norm(R_s) / spectral_norm(A)
