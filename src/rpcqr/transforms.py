"""Randomized smoothing-and-sampling machinery.

A random sign flip per row followed by an orthonormal DCT-II flattens the
coherence of a matrix's column space, after which uniform row sampling with
replacement becomes reliable.

All randomness comes from numpy's counter-based Philox generator, keyed by an
explicit integer seed; the same seed always reproduces the same draw.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import NotOrthonormalError
from .kernels import as_matrix, sym_eigenvalues


@dataclass(frozen=True)
class SignDiagonal:
    """Diagonal of independent random signs, reproducible from ``seed``."""

    m: int
    signs: np.ndarray  # entries in {-1, +1}
    seed: int


@dataclass(frozen=True)
class RowSample:
    """Realized row sample: indices drawn i.i.d. uniform with replacement.

    ``scale`` is sqrt(m/c); each sampled row is multiplied by it so the
    sample is an unbiased sketch of the source Gram matrix.
    """

    c: int
    indices: np.ndarray
    scale: float
    seed: int


def _rng(seed):
    return np.random.Generator(np.random.Philox(int(seed)))


def rademacher_diag(m, seed):
    """Draw m independent +-1 signs (a zero draw maps to +1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    u = _rng(seed).random(m)
    signs = np.where(u - 0.5 >= 0.0, 1, -1).astype(np.int64)
    return SignDiagonal(m=int(m), signs=signs, seed=int(seed))


def dct_columns(A):
    """Apply the orthonormal DCT-II to each column (fast FFT-based path)."""
    A = as_matrix(A)
    return scipy.fft.dct(A, type=2, axis=0, norm="ortho")


def sample_rows(FA, c, seed):
    """Sample c rows of FA uniformly with replacement, scaled by sqrt(m/c).

    c must be an integer (a Python or numpy int); a float, even 30.0, is a
    TypeError rather than being truncated.
    """
    FA = as_matrix(FA)
    try:
        c = operator.index(c)
    except TypeError:
        raise TypeError(f"c must be an integer, got {c!r}") from None
    if c < 1:
        raise ValueError("c must be >= 1")
    m = FA.shape[0]
    indices = _rng(seed).integers(0, m, size=c)
    scale = math.sqrt(m / c)
    sample = RowSample(c=c, indices=indices, scale=scale, seed=int(seed))
    return scale * FA[indices, :], sample


def coherence(Q, ortho_tol=1e-8):
    """Largest squared row norm of a matrix with orthonormal columns.

    Lies in [n/m, 1]; equals 1 when the column space is aligned with
    coordinate axes (worst case for uniform sampling).  Raises
    :class:`NotOrthonormalError` if ``Q`` fails the orthonormality check.
    """
    Q = as_matrix(Q)
    n = Q.shape[1]
    G = Q.T @ Q
    dev = sym_eigenvalues((G + G.T) / 2.0 - np.eye(n))
    if max(abs(dev[0]), abs(dev[-1])) > ortho_tol:
        raise NotOrthonormalError(
            "columns deviate from orthonormality by more than "
            f"{ortho_tol:g}"
        )
    return float(np.max(np.einsum("ij,ij->i", Q, Q)))
