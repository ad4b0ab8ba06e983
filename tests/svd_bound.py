"""The SVD reference for κ(A₁) and η, and how far ``measure`` may lie from it.

:func:`rpcqr.metrics.measure` reads A1's singular values from the
CholeskyQR2 factor R3 R2 that its row's Q completes, which carries them to
O(u κ(A₁)) relative; :func:`svd_kappa` and :func:`svd_eta` take an SVD of
A1.  The bound is ten units of each error's size, set before any run.
"""

import math

import numpy as np

from rpcqr import EPS
from rpcqr.kernels import spectral_norm, tri_solve_right

BOUND = 10


def a1(A, R_s):
    """A1 = A R_s⁻¹ by the solve the pass runs, so bit for bit the pass's A1:
    the factorizations return R2, not A1."""
    return tri_solve_right(A, R_s)


def svd_kappa(A):
    """σ₁/σₙ of A's singular values (inf if σₙ = 0)."""
    s = np.linalg.svd(A, compute_uv=False)
    return math.inf if s[-1] == 0.0 else float(s[0] / s[-1])


def svd_eta(A, A1, R_s):
    """η = ‖A1‖₂‖R_s‖₂/‖A‖₂, with ‖A1‖₂ = σ₁ of A1's singular values."""
    s1 = np.linalg.svd(A1, compute_uv=False)[0]
    return float(s1) * spectral_norm(R_s) / spectral_norm(A)


def svd_ratios(cells, A, A1, R_s):
    """The relative errors of ``cells``' κ(A₁) against :func:`svd_kappa`,
    in units of u·κ(A₁), and of its η against :func:`svd_eta`, in units
    of u."""
    kappa, e = svd_kappa(A1), svd_eta(A, A1, R_s)
    return (abs(cells["kappa_A1"] - kappa) / (EPS * kappa * kappa),
            abs(cells["eta"] - e) / (EPS * e))
