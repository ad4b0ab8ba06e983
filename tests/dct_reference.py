"""DCT oracles for the tests: the naive O(m^2) DCT-II that the fast DCT is
compared against, and the singular values of the DCT-sketched orthonormal
frame that the preconditioned spectrum is compared against."""

import math

import numpy as np

from rpcqr.kernels import as_matrix, householder_qr, singular_values
from rpcqr.transforms import dct_columns


def dct_matrix(m):
    """Explicit m x m orthonormal DCT-II matrix (naive reference).

    The integer phase (2j+1)k is reduced modulo the period 4m before the
    multiplication by pi, so entries stay accurate to roundoff for large m.
    """
    j = np.arange(m, dtype=np.int64)
    k = np.arange(m, dtype=np.int64)[:, None]
    phase = ((2 * j + 1) * k) % (4 * m)
    F = np.cos(np.pi * phase / (2.0 * m))
    F[0, :] *= math.sqrt(1.0 / m)
    F[1:, :] *= math.sqrt(2.0 / m)
    return F


def dct_columns_reference(A):
    """O(m^2) reference DCT-II; agrees with the fast path to ~1e-13."""
    A = as_matrix(A)
    return dct_matrix(A.shape[0]) @ A


def sampled_frame_singular_values(A, info):
    """Singular values of the sampled transformed orthonormal frame.

    In exact arithmetic these are the reciprocals of the reversed singular
    values of the preconditioned matrix A1, so the two share one condition
    number.  Used as a diagnostic cross-check.
    """
    A = as_matrix(A)
    Q = householder_qr(A).Q
    FQ = dct_columns(info.signs.signs[:, None] * Q)
    SFQ = info.sample.scale * FQ[info.sample.indices, :]
    return singular_values(SFQ)
