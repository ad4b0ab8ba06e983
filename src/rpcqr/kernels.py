"""Dense linear-algebra primitives used by every factorization routine.

Internal: the kernels trust their callers and check nothing, and the
package exports only :data:`EPS` and :class:`QRFactors` from here.  Each
public function checks its own arguments once, at entry, with
:func:`as_matrix` or :func:`as_tall_matrix`.  The arithmetic is BLAS/LAPACK
(Cholesky ``dpotrf``, the triangular solve column blocks of ``dgemm`` and
right-side ``dtrsm``, singular values ``gesdd``, the spectral norm the
largest eigenvalue of a scaled Gram matrix).  Matrices are float64 arrays;
upper triangular ones carry exact zeros below the diagonal, symmetric ones
are stored explicitly symmetrized.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dpotrf

from .errors import CholeskyBreakdown, NoConvergenceError

#: Machine epsilon of float64, 2**-52: the library's unit roundoff u (1/u ~
#: 4.5e15), twice the usual round-to-nearest u = 2**-53.  Kept, as a change
#: would move every ``estimate_5_2`` cell.
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


def as_tall_matrix(a):
    """:func:`as_matrix`, for a matrix with at least as many rows as columns."""
    arr = as_matrix(a)
    m, n = arr.shape
    if m < n:
        raise ValueError(f"need rows >= cols, got {m}x{n}")
    return arr


def gram(A):
    """Form the symmetrized cross-product A^T A."""
    G = A.T @ A
    return (G + G.T) / 2.0


def cholesky(G):
    """Cholesky factor of a symmetric matrix, by LAPACK ``dpotrf``.

    Returns the upper triangular R with G = R^T R, a strictly positive
    diagonal and exact zeros below it.  Raises :class:`CholeskyBreakdown`
    at the first non-positive pivot (numerical indefiniteness) or
    non-finite one (an overflowed Gram, which ``dpotrf`` lets pass); its
    value is recovered from the partial factor LAPACK leaves behind.
    """
    R, info = dpotrf(G, lower=False, clean=True)
    bad = np.flatnonzero(~np.isfinite(np.diag(R)))
    if info > 0 or bad.size:
        k = info - 1 if info > 0 else int(bad[0])
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
    n = R.shape[0]
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
    Q, R = np.linalg.qr(A, mode="reduced")
    s, R = _nonnegative_diagonal(R)
    return QRFactors(Q=Q * s, R=R, method="householder")


def householder_r(A):
    """The R factor of :func:`householder_qr`, without forming Q.

    Same LAPACK ``geqrf`` and the same sign normalization, so the result is
    bit-identical to ``householder_qr(A).R`` at half the flops.
    """
    return _nonnegative_diagonal(np.linalg.qr(A, mode="r"))[1]


def sym_eigenvalues(S):
    """Eigenvalues of a symmetric matrix, sorted descending.

    Backed by the LAPACK symmetric eigensolver; a convergence failure is
    surfaced as :class:`NoConvergenceError` (pathological input).
    """
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
    s = float(max(A.max(), -A.min()))
    if s == 0.0:
        return 0.0
    B = A / s
    G = B.T @ B if B.shape[0] >= B.shape[1] else B @ B.T
    return s * float(np.sqrt(sym_eigenvalues(G)[0]))
