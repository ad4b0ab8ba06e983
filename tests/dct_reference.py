"""DCT oracles for the tests: the naive O(m^2) DCT-II that the fast DCT is
compared against, the singular values of the DCT-sketched orthonormal frame
that the preconditioned spectrum is compared against, the coherence μ
that the sign flip and the DCT flatten, and an input whose DCT has μ = 1."""

import math

import numpy as np
import scipy.fft

from rpcqr import worst_coherence_stack
from rpcqr.kernels import as_matrix, householder_qr, singular_values
from rpcqr.transforms import (
    child_seeds,
    dct_columns,
    rademacher_diag,
    sample_rows,
)


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


def coherence(Q):
    """Largest squared row norm of Q, in [n/m, 1] when Q is orthonormal.

    For an orthonormal basis of A's column space it is the coherence μ that
    :func:`~rpcqr.bounds.sampling_lower_bound` takes: 1 when that space
    holds a coordinate axis (the worst case for uniform row sampling), n/m
    when every row carries equal weight.  Q is not checked for
    orthonormality.
    """
    Q = as_matrix(Q)
    return float(np.max(np.einsum("ij,ij->i", Q, Q)))


def dct_aligned(m, n, kappa, seed):
    """The orthonormal inverse DCT-II of :func:`worst_coherence_stack`.

    Its DCT is that stack, of coherence 1, so without the sign flip the
    preconditioner samples a worst-coherence matrix.
    """
    return scipy.fft.idct(worst_coherence_stack(m, n, kappa, seed), type=2,
                          norm="ortho", axis=0)


def sampled_frame_singular_values(A, c, seed):
    """Singular values of the sampled transformed orthonormal frame.

    The sketch is rebuilt from ``seed`` as ``rp_cholesky_qr(A, c, seed)``
    draws it: signs and sample from the two words of
    ``child_seeds([seed], 2)``.  In exact arithmetic these are the
    reciprocals of the reversed singular values of that run's A1, so the two
    share one condition number.  Used as a diagnostic cross-check.
    """
    A = as_matrix(A)
    Q = householder_qr(A).Q
    sign_seed, sample_seed = child_seeds([seed], 2)
    FQ = dct_columns(rademacher_diag(A.shape[0], sign_seed)[:, None] * Q)
    return singular_values(sample_rows(FQ, c, sample_seed))
