"""Randomized smoothing-and-sampling machinery.

A random sign flip per row followed by an orthonormal DCT-II flattens the
coherence of a matrix's column space, after which uniform row sampling with
replacement becomes reliable.  Internal, like :mod:`rpcqr.kernels`: these
stages check no array, and trust their caller, ``build_preconditioner``.

All randomness comes from numpy's counter-based Philox generator, keyed by an
explicit integer seed; the same seed always reproduces the same draw.  Every
seed derived from other integers is a word of :func:`child_seeds` (numpy
documents ``SeedSequence`` hashing as stable), and every generator comes from
:func:`philox`.
"""

import operator

import numpy as np
import scipy.fft


def _as_integer(value, name):
    """An int or numpy integer as int; a bool or a float (even 30.0) is not."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def child_seeds(key, n=1):
    """The first n uint64 words of ``SeedSequence(key)``, as Python ints;
    each word of ``key`` must be an integer >= 0."""
    key = [_as_integer(k, "seed") for k in key]
    if min(key) < 0:
        raise ValueError(f"seed must be >= 0, got {min(key)}")
    ss = np.random.SeedSequence(key)
    return [int(s) for s in ss.generate_state(n, np.uint64)]


def philox(seed):
    """The Philox generator keyed by the integer ``seed``."""
    return np.random.Generator(np.random.Philox(_as_integer(seed, "seed")))


def rademacher_diag(m, seed):
    """m independent +-1 signs, as int64 (a zero draw maps to +1)."""
    u = philox(seed).random(m)
    return np.where(u - 0.5 >= 0.0, 1, -1).astype(np.int64)


def dct_columns(A):
    """Overwrite each column of A, which the caller owns, with its
    orthonormal DCT-II (FFT-based); returns a view of A's memory."""
    return scipy.fft.dct(A, type=2, axis=0, norm="ortho", overwrite_x=True)


def sample_rows(FA, c, seed):
    """Draw c rows of FA uniformly with replacement; keep each row once.

    A row drawn k of c times appears once, in ascending row order, scaled
    by sqrt(k m / c): the Gram matrix is that of all c draws scaled by
    sqrt(m/c), the same unbiased sketch of FA^T FA, from fewer rows.  The
    indices one call would draw are drawn and counted 2**16 at a time.
    """
    m = FA.shape[0]
    rng, k = philox(seed), np.zeros(m, dtype=np.int64)
    for start in range(0, c, 1 << 16):  # O(m) memory whatever c is
        k += np.bincount(rng.integers(0, m, min(1 << 16, c - start)),
                         minlength=m)
    rows = np.flatnonzero(k)
    A_s = FA[rows, :]
    A_s *= np.sqrt(k[rows] * m / c)[:, None]  # in place: a fresh gather
    return A_s
