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

import math
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
    """The first n uint64 words of ``SeedSequence(key)``, as Python ints."""
    ss = np.random.SeedSequence([_as_integer(k, "seed") for k in key])
    return [int(s) for s in ss.generate_state(n, np.uint64)]


def philox(seed):
    """The Philox generator keyed by the integer ``seed``."""
    return np.random.Generator(np.random.Philox(_as_integer(seed, "seed")))


def rademacher_diag(m, seed):
    """m independent +-1 signs, as int64 (a zero draw maps to +1)."""
    u = philox(seed).random(m)
    return np.where(u - 0.5 >= 0.0, 1, -1).astype(np.int64)


def dct_columns(A):
    """Apply the orthonormal DCT-II to each column (fast FFT-based path)."""
    return scipy.fft.dct(A, type=2, axis=0, norm="ortho")


def sample_rows(FA, c, seed):
    """Sample c rows of FA uniformly with replacement, scaled by sqrt(m/c).

    Each row is drawn with probability 1/m, so the scale sqrt(m/c) makes
    the sample an unbiased sketch of the source Gram matrix.
    """
    m = FA.shape[0]
    indices = philox(seed).integers(0, m, size=c)
    return math.sqrt(m / c) * FA[indices, :]
