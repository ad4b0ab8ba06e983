"""Dense linear-algebra primitives used by every factorization routine.

Each kernel checks its input, then leaves the arithmetic to BLAS/LAPACK
(Cholesky is ``dpotrf``, the triangular solve column blocks of ``dgemm``
and right-side ``dtrsm``, singular values ``gesdd``, the spectral norm the
largest eigenvalue of a scaled Gram matrix).  All matrices are plain
``numpy.ndarray`` of float64.  Upper triangular matrices carry exact zeros
below the diagonal; symmetric matrices are stored explicitly symmetrized.
Inputs with NaN/Inf entries are rejected.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dpotrf

from .errors import (
    CholeskyBreakdown,
    NoConvergenceError,
    SingularTriangularError,
)

#: Unit roundoff of 64-bit IEEE arithmetic.
EPS = float(np.finfo(np.float64).eps)

# Column block of tri_solve_right; of 32 to 256, 64 was fastest at 2000x200.
_SOLVE_BLOCK = 64


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


def _check_symmetric(S):
    S = as_matrix(S)
    if S.shape[0] != S.shape[1] or not np.array_equal(S, S.T):
        raise ValueError("matrix is not stored symmetrized")
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
    """Solve X R = A for X, blocked over BLAS-3; X is Fortran-ordered.

    A is copied once into a column-major X and never written.  For each
    block of 64 columns, ``dgemm`` subtracts the solved columns' share in
    place and a right-side ``dtrsm`` solves the diagonal block in place.
    """
    A = as_matrix(A)
    R = _check_upper_triangular(R)
    n = R.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"A has {A.shape[1]} columns but R is {n}x{n}")
    d = np.diag(R)
    bad = ~np.isfinite(d) | (d == 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularTriangularError(
            f"diagonal entry {d[i]!r} at index {i} is singular"
        )
    X = np.array(A, order="F")
    for j in range(0, n, _SOLVE_BLOCK):
        e = min(j + _SOLVE_BLOCK, n)
        # Column slices of a Fortran array are contiguous, so f2py passes
        # them through without a copy and both updates land in X.
        if j:
            dgemm(-1.0, X[:, :j], R[:j, j:e], beta=1.0, c=X[:, j:e],
                  overwrite_c=1)
        dtrsm(1.0, R[j:e, j:e], X[:, j:e], side=1, overwrite_b=1)
    return X


def _nonnegative_diagonal(R):
    """Signs s (+1 at a zero pivot) and triu(diag(s) R), diagonal >= 0."""
    s = np.sign(np.diag(R))
    s[s == 0.0] = 1.0
    return s, np.triu(s[:, None] * R)


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
    s, R = _nonnegative_diagonal(R)
    return QRFactors(Q=Q * s, R=R, method="householder")


def householder_r(A):
    """The R factor of :func:`householder_qr`, without forming Q.

    Same LAPACK ``geqrf`` and the same sign normalization, so the result is
    bit-identical to ``householder_qr(A).R`` at half the flops.
    """
    A = as_matrix(A)
    m, n = A.shape
    if m < n:
        raise ValueError(f"need rows >= cols, got {m}x{n}")
    return _nonnegative_diagonal(np.linalg.qr(A, mode="r"))[1]


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
    """Largest singular value, as s * sqrt(lambda_max) of a scaled Gram.

    s is the largest absolute entry of A.  The Gram matrix of B = A / s
    (B^T B, or B B^T when A is wide) cannot overflow, and its lambda_max
    >= 1 sits far above anything that underflows, so at any scale the
    relative error is of order max(m, n) times unit roundoff.
    Returns 0 for the zero matrix.  The Gram is formed here, not by
    :func:`gram`, so metric work never counts as factorization work.
    """
    A = as_matrix(A)
    s = float(max(A.max(), -A.min()))
    if s == 0.0:
        return 0.0
    B = A / s
    G = B.T @ B if B.shape[0] >= B.shape[1] else B @ B.T
    try:
        lam = np.linalg.eigvalsh(G)[-1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return s * float(np.sqrt(lam))
