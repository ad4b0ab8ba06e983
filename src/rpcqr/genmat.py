"""Seeded generators for the experiment matrices.

Two families of tall test matrices with a prescribed condition number:

* :func:`worst_coherence_stack` -- a conditioned triangular block on top of
  zeros, whose orthonormal factor has coherence 1 (the worst case for
  uniform row sampling);
* :func:`haar_rotated` -- the same spectrum rotated by a Haar frame, which
  has benign coherence.

All generators are deterministic functions of (dimensions, kappa, seed).
"""

import numbers
import sys

import numpy as np

from .kernels import householder_qr
from .transforms import _as_integer, child_seeds, philox


def _check(m, n, kappa=1.0, error=ValueError):
    """Raise ``error`` unless 1 <= n <= m and 1 <= kappa <= the largest float.

    A non-integer n or m is a TypeError that names it, whatever ``error``.
    """
    _as_integer(n, "n")
    _as_integer(m, "m")
    if not 1 <= n <= m:
        raise error(f"need 1 <= n <= m, got m={m}, n={n}")
    if type(kappa) is bool or not (isinstance(kappa, numbers.Real)
                                   and 1.0 <= kappa <= sys.float_info.max):
        raise error(f"kappa must be a finite number >= 1, got {kappa!r}")


def haar_frame(m, n, seed):
    """Rotation-invariant random m x n orthonormal frame.

    Thin QR of a standard Gaussian with the R-diagonal sign correction is
    distributionally equal to the leading n columns of a full Haar matrix,
    at O(m n^2) cost instead of O(m^3).  Needs 1 <= n <= m.
    """
    _check(m, n)
    G = philox(child_seeds([seed, 0])[0]).standard_normal((m, n))
    return householder_qr(G).Q


def randsvd(n, kappa, seed):
    """n x n matrix with Haar singular vectors and a geometric spectrum.

    The singular values are kappa**(-i/(n-1)), i = 0..n-1, from 1 down to
    1/kappa (just 1 when n = 1).
    """
    _check(n, n, kappa)
    sigma = kappa ** (-np.arange(n) / max(n - 1, 1))
    U = haar_frame(n, n, child_seeds([seed, 1])[0])
    V = haar_frame(n, n, child_seeds([seed, 2])[0])
    return (U * sigma) @ V.T


def worst_coherence_stack(m, n, kappa, seed):
    """Conditioned n x n block stacked on zeros; coherence exactly 1."""
    _check(m, n, kappa)
    R_A = randsvd(n, kappa, seed)
    A = np.zeros((m, n))
    A[:n, :] = R_A
    return A


def haar_rotated(m, n, kappa, seed):
    """Haar frame times a conditioned block; same spectrum, low coherence.

    Shares the conditioned block (and hence the singular values) with
    :func:`worst_coherence_stack` at the same seed.
    """
    _check(m, n, kappa)
    R_A = randsvd(n, kappa, seed)
    Q_A = haar_frame(m, n, child_seeds([seed, 3])[0])
    return Q_A @ R_A

