"""Dense linear-algebra primitives used by every factorization routine.

Internal: the kernels trust their callers and check nothing, and the
package exports only :data:`EPS` and :class:`QRFactors` from here.  Each
public function checks its own arguments once, at entry, with
:func:`as_matrix` or :func:`as_tall_matrix`.  The arithmetic is BLAS/LAPACK
(Gram ``syrk`` through numpy, Cholesky ``dpotrf``, a recursive right-side
triangular solve over ``dgemm`` and ``dtrsm``, Householder QR ``dgeqrt``
with its thin Q by ``dgemqrt``, singular values ``gesdd``, the spectral
norm ``dsyevr``'s lambda_max of a scaled Gram matrix).  Matrices are float64
arrays; upper triangular ones carry exact zeros below the diagonal, and a
Gram matrix is exactly symmetric as ``syrk`` mirrors its triangle.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dgemqrt, dgeqrt, dpotrf, dsyevr

from .errors import CholeskyBreakdown, NoConvergenceError

#: Machine epsilon of float64, 2**-52: the library's unit roundoff u (1/u ~
#: 4.5e15), twice the usual round-to-nearest u = 2**-53.  Kept, as a change
#: would move every ``estimate_5_2`` cell.
EPS = float(np.finfo(np.float64).eps)

_COPY_ROWS = 256  # tri_solve_right's C-to-Fortran copy: 30 ms, not 65


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
    """Form the cross-product A^T A, exactly symmetric (numpy's ``syrk``)."""
    return A.T @ A


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
    """Solve X R = A for X, recursively over BLAS-3; X is Fortran-ordered.

    A is copied once into a column-major X (a C-ordered A a block of rows
    at a time) and never written.  The solve halves the columns: it solves
    the left half, subtracts its share from the right half with one
    ``dgemm`` and solves the right half; ``dtrsm`` solves <= 32 columns.
    """
    X = np.empty(A.shape, order="F")
    step = _COPY_ROWS if A.flags.c_contiguous else len(A)
    for i in range(0, A.shape[0], step):
        X[i:i + step] = A[i:i + step]
    _solve_in_place(X, R)
    return X


def _solve_in_place(X, R):
    # Column slices of a Fortran X are contiguous, so f2py copies none.
    n = R.shape[0]
    if n <= 32:
        dtrsm(1.0, R, X, side=1, overwrite_b=1)
        return
    h = n // 2
    _solve_in_place(X[:, :h], R[:h, :h])
    dgemm(-1.0, X[:, :h], R[:h, h:], beta=1.0, c=X[:, h:], overwrite_c=1)
    _solve_in_place(X[:, h:], R[h:, h:])


def _nonnegative_diagonal(R):
    """Signs s (+1 at a zero pivot) and triu(diag(s) R), diagonal >= 0."""
    s = np.sign(np.diag(R))
    s[s == 0.0] = 1.0
    return s, np.triu(s[:, None] * R)


def _geqrt(A):  # LAPACK dgeqrt, block 64: R above the reflectors V, and T
    return dgeqrt(min(64, *A.shape), A)[:2]


def householder_qr(A):
    """Thin Householder QR with the R diagonal normalized to be nonnegative.

    The sign normalization makes the factorization unique, so factors are
    comparable across algorithms.  ``dgemqrt`` applies the reflectors of
    ``dgeqrt`` to the first n columns of I; rank deficiency shows up as tiny
    diagonal entries of R, not as an error.
    """
    V, T = _geqrt(A)
    Q = dgemqrt(V, T, np.eye(*A.shape, order="F"), overwrite_c=1)[0]
    s, R = _nonnegative_diagonal(V[:A.shape[1]])
    return QRFactors(Q=Q * s, R=R, method="householder")


def householder_r(A):
    """The R factor of :func:`householder_qr`, without forming Q.

    The same ``dgeqrt`` call and the same sign normalization, so the result
    is bit-identical to ``householder_qr(A).R`` at half the flops.
    """
    return _nonnegative_diagonal(_geqrt(A)[0][:A.shape[1]])[1]


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


def spectral_norm(A, out=None):
    """Largest singular value, as s * sqrt(lambda_max) of a scaled Gram.

    s is the largest absolute entry of A.  The Gram B^T B of B = A / s
    cannot overflow, and its lambda_max >= 1 (``dsyevr`` computes it
    alone; a nonzero ``info`` raises :class:`NoConvergenceError`) sits far
    above anything that underflows, so at any scale the relative error is
    of order max(m, n) times unit roundoff.  Returns 0 for the zero matrix.
    B is written to ``out``, if given: a caller that hands over a temporary
    as both A and ``out`` saves an m x n array.  The Gram is formed here,
    not by :func:`gram`, so metric work never counts as factorization work.
    """
    s = float(max(A.max(), -A.min()))
    if s == 0.0:
        return 0.0
    B = np.divide(A, s, out=out)
    G = B.T @ B
    w, _, _, _, info = dsyevr(G, compute_v=0, range="I", il=len(G), iu=len(G))
    if info:
        raise NoConvergenceError(f"dsyevr failed with info={info}")
    return s * float(np.sqrt(w[0]))
