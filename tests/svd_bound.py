"""How far ``measure``'s κ(A₁) and η may lie from their SVD values.

:func:`rpcqr.metrics.measure` reads A1's singular values from the
CholeskyQR2 factor R3 R2 that its row's Q completes, which carries them to
O(u κ(A₁)) relative; :func:`rpcqr.cond2` and :func:`rpcqr.eta` take an SVD
of A1.  The bound is ten units of each error's size, set before any run.
"""

from rpcqr import EPS, cond2, eta

BOUND = 10


def svd_ratios(cells, A, A1, R_s):
    """The relative errors of ``cells``' κ(A₁) against ``cond2(A1)``, in
    units of u·κ(A₁), and of its η against ``eta(A, A1, R_s)``, in units
    of u."""
    kappa, e = cond2(A1), eta(A, A1, R_s)
    return (abs(cells["kappa_A1"] - kappa) / (EPS * kappa * kappa),
            abs(cells["eta"] - e) / (EPS * e))
