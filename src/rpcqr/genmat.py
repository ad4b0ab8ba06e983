"""Seeded generators for the experiment matrices.

Two families of tall test matrices with a prescribed condition number:

* :func:`worst_coherence_stack` -- a conditioned triangular block on top of
  zeros, whose orthonormal factor has coherence 1 (the worst case for
  uniform row sampling);
* :func:`haar_rotated` -- the same spectrum rotated by a Haar frame, which
  has benign coherence.

All generators are deterministic functions of (dimensions, kappa, seed).
"""

import numpy as np

from .kernels import as_tall_matrix, householder_qr
from .transforms import child_seeds, philox


def haar_frame(m, n, seed):
    """Rotation-invariant random m x n orthonormal frame.

    Thin QR of a standard Gaussian with the R-diagonal sign correction is
    distributionally equal to the leading n columns of a full Haar matrix,
    at O(m n^2) cost instead of O(m^3).  Needs 1 <= n <= m.
    """
    G = philox(child_seeds([seed, 0])[0]).standard_normal((m, n))
    return householder_qr(as_tall_matrix(G)).Q


def randsvd(n, kappa, seed):
    """n x n matrix with Haar singular vectors and a geometric spectrum.

    The singular values are kappa**(-i/(n-1)), i = 0..n-1, from 1 down to
    1/kappa (just 1 when n = 1).
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    sigma = kappa ** (-np.arange(n) / max(n - 1, 1))
    U = haar_frame(n, n, child_seeds([seed, 1])[0])
    V = haar_frame(n, n, child_seeds([seed, 2])[0])
    return (U * sigma) @ V.T


def worst_coherence_stack(m, n, kappa, seed):
    """Conditioned n x n block stacked on zeros; coherence exactly 1."""
    if m < n:
        raise ValueError("need m >= n")
    R_A = randsvd(n, kappa, seed)
    A = np.zeros((m, n))
    A[:n, :] = R_A
    return A


def haar_rotated(m, n, kappa, seed):
    """Haar frame times a conditioned block; same spectrum, low coherence.

    Shares the conditioned block (and hence the singular values) with
    :func:`worst_coherence_stack` at the same seed.
    """
    R_A = randsvd(n, kappa, seed)
    Q_A = haar_frame(m, n, child_seeds([seed, 3])[0])
    return Q_A @ R_A

