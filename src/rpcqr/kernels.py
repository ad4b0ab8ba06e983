"""Dense linear-algebra primitives used by every factorization routine.

Each kernel checks its input, then leaves the arithmetic to BLAS/LAPACK
(Cholesky is ``dpotrf``, singular values ``gesdd``); only the spectral norm
is a power iteration of our own.  All matrices are plain ``numpy.ndarray``
of float64.  Upper triangular matrices carry exact zeros below the
diagonal; symmetric matrices are stored explicitly symmetrized.  Inputs
with NaN/Inf entries are rejected.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import (
    CholeskyBreakdown,
    NoConvergenceError,
    SingularTriangularError,
)

#: Unit roundoff of 64-bit IEEE arithmetic.
EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class QRFactors:
    """Thin QR factorization A = Q R with a tag naming the producing method."""

    Q: np.ndarray
    R: np.ndarray
    method: str


def as_matrix(a):
    """Validate and convert to a float64 2-d array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def symmetrize(S):
    """Return (S + S^T)/2 so the symmetry invariant holds bit-exactly."""
    S = as_matrix(S)
    return (S + S.T) / 2.0


def _check_symmetric(S):
    S = as_matrix(S)
    if S.shape[0] != S.shape[1] or not np.array_equal(S, S.T):
        raise ValueError("matrix is not stored symmetrized; use symmetrize()")
    return S


def _check_upper_triangular(R):
    R = as_matrix(R)
    if R.shape[0] != R.shape[1]:
        raise ValueError("triangular factor must be square")
    if np.any(np.tril(R, -1) != 0.0):
        raise ValueError("strictly lower part must be exactly zero")
    return R


def gram(A):
    """Form the symmetrized cross-product A^T A."""
    A = as_matrix(A)
    G = A.T @ A
    return (G + G.T) / 2.0


def cholesky(G):
    """Cholesky factor of a symmetric matrix, by LAPACK ``dpotrf``.

    Returns the upper triangular R with G = R^T R, a strictly positive
    diagonal and exact zeros below it.  Raises :class:`CholeskyBreakdown`
    at the first non-positive pivot, which signals numerical indefiniteness;
    its value is recovered from the partial factor LAPACK leaves behind.
    """
    G = _check_symmetric(G)
    R, info = dpotrf(G, lower=False, clean=True)
    if info > 0:
        k = info - 1
        raise CholeskyBreakdown(k, G[k, k] - R[:k, k] @ R[:k, k])
    # C order: passing LAPACK's Fortran-ordered R on raised glibc's peak RSS
    # by ~15% in paper-scale runs, with the same live arrays.
    return np.ascontiguousarray(R)


def tri_solve_right(A, R):
    """Solve X R = A for X, as back-substitution rows against R^T."""
    A = as_matrix(A)
    R = _check_upper_triangular(R)
    d = np.diag(R)
    bad = ~np.isfinite(d) | (d == 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularTriangularError(
            f"diagonal entry {d[i]!r} at index {i} is singular"
        )
    return solve_triangular(R, A.T, trans="T", lower=False).T


def householder_qr(A):
    """Thin Householder QR with the R diagonal normalized to be nonnegative.

    The sign normalization makes the factorization unique, so factors are
    comparable across algorithms.  Backed by LAPACK; rank deficiency shows up
    as tiny diagonal entries of R, not as an error.
    """
    A = as_matrix(A)
    m, n = A.shape
    if m < n:
        raise ValueError(f"need rows >= cols, got {m}x{n}")
    Q, R = np.linalg.qr(A, mode="reduced")
    s = np.sign(np.diag(R))
    s[s == 0.0] = 1.0
    Q = Q * s
    R = np.triu(s[:, None] * R)
    return QRFactors(Q=Q, R=R, method="householder")


def sym_eigenvalues(S):
    """Eigenvalues of a symmetric matrix, sorted descending.

    Backed by the LAPACK symmetric eigensolver; a convergence failure is
    surfaced as :class:`NoConvergenceError` (pathological input).
    """
    S = _check_symmetric(S)
    try:
        w = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return w[::-1].copy()


def singular_values(A):
    """Singular values of a tall matrix, sorted descending.

    One LAPACK SVD of A itself (``gesdd``, which takes a QR first when A is
    much taller than wide), never via eigenvalues of the Gram matrix (which
    would square the condition number and lose accuracy).
    """
    A = as_matrix(A)
    if A.shape[0] < A.shape[1]:
        raise ValueError("need rows >= cols")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def spectral_norm(A):
    """Largest singular value via power iteration on A^T A.

    Uses a fixed-seed random start, stops at a relative change of 1e-6 (plenty
    for metrics plotted on a log scale) or after 5000 steps, and ends with a
    Rayleigh-quotient refinement.  Returns 0 for the zero matrix.
    """
    A = as_matrix(A)
    if not A.any():
        return 0.0
    rng = np.random.Generator(np.random.Philox(0))
    x = rng.standard_normal(A.shape[1])
    x /= np.linalg.norm(x)
    lam_prev = 0.0
    for _ in range(5000):
        y = A.T @ (A @ x)
        lam = np.linalg.norm(y)
        if lam == 0.0:
            return 0.0
        x = y / lam
        if abs(lam - lam_prev) <= 1e-6 * lam:
            break
        lam_prev = lam
    # Rayleigh quotient at the converged unit vector.
    return float(np.linalg.norm(A @ x))
