"""A cheap estimate of the deviation from orthonormality, and where it tracks.

Classical worst-case analysis predicts deviation ~ u * kappa(A1)^2, but in
practice the deviation grows only linearly in kappa(A1).  The estimate
4 * u * kappa(A1) -- computable from quantities the algorithm already has --
lands within two orders of magnitude of the measured deviation while
kappa(A1) stays below about 10^3, as a sampled preconditioner keeps it.
Above 10^3 it is only an upper envelope: ``tests/test_claims.py`` measured
deviation / estimate at 8e-6 to 0.12 there.  The demo prints one row per
regime of that test: ``rp`` at a sampled c, and the internal preconditioned
pass with R_s = T R (R the Householder R of A, T upper triangular with
kappa(T) = 1e6), so that kappa(A1) = 1e6.
"""

import numpy as np

from rpcqr import (
    ortho_deviation,
    ortho_estimate,
    randsvd,
    rp_cholesky_qr,
    worst_coherence_stack,
)
from rpcqr.algorithms import preconditioned_cholesky_qr
from rpcqr.kernels import householder_r, tri_solve_right

m, n, kappa = 1000, 50, 1e15
A = worst_coherence_stack(m, n, kappa, seed=7)


def row(regime, f, R_s):
    # kappa(A1) from the SVD of A1 = A R_s^{-1}, rebuilt by the pass's solve
    dev, k = ortho_deviation(f.Q), np.linalg.cond(tri_solve_right(A, R_s))
    est = ortho_estimate(k)
    print(f"{regime:>22} {k:10.2e} {dev:12.2e} {est:14.2e} {dev / est:9.2e}")


print(f"{'regime':>22} {'kappa(A1)':>10} {'deviation':>12} "
      f"{'4*u*kappa(A1)':>14} {'ratio':>9}")
f, R_s, _ = rp_cholesky_qr(A, 3 * n, seed=0)
row(f"sampled, c = {3 * n}", f, R_s)
R_s = householder_r(randsvd(n, 1e6, seed=0)) @ householder_r(A)
f, _, _ = preconditioned_cholesky_qr(A, R_s, "preconditioned")
row("controlled, T R", f, R_s)

print("\nbelow kappa(A1) ~ 1e3 the ratio sits within [1e-2, 1e2]; above it "
      "the estimate\nis an upper envelope, and the first-order bound "
      "u * kappa(A1)^2 is further off still")
