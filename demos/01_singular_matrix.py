"""Factor a numerically singular matrix that defeats plain Cholesky-QR.

The test matrix stacks an ill-conditioned upper triangular block on top of
zeros, so its Gram matrix has condition number kappa^2 = 1e30 -- far past
what double precision Cholesky can handle.  The randomized preconditioner
(sign flips + DCT + uniform row sampling) reduces the condition number to
single digits before the Cholesky step, and full accuracy follows.
"""

import numpy as np

from rpcqr import (
    CholeskyBreakdown,
    cholesky_qr,
    cholesky_qr2,
    ortho_deviation,
    rel_residual,
    rp_cholesky_qr,
    worst_coherence_stack,
)
from rpcqr.kernels import tri_solve_right

m, n, kappa = 1000, 50, 1e15
A = worst_coherence_stack(m, n, kappa, seed=0)
print(f"A is {m}x{n} with kappa(A) = {kappa:.0e} and worst-case coherence\n")

for name, algorithm in [("Cholesky-QR", cholesky_qr),
                        ("Cholesky-QR2", cholesky_qr2)]:
    try:
        f = algorithm(A)
        print(f"{name:14s} deviation {ortho_deviation(f.Q):.2e}")
    except CholeskyBreakdown as exc:
        print(f"{name:14s} breakdown: pivot {exc.pivot_index} "
              f"went nonpositive ({exc.pivot_value:.2e})")

f, R_s, _ = rp_cholesky_qr(A, c=3 * n, seed=1)
A1 = tri_solve_right(A, R_s)  # the preconditioned matrix A R_s^{-1}
print(f"{'randomized':14s} deviation {ortho_deviation(f.Q):.2e}, "
      f"residual {rel_residual(A, f):.2e}")
print(f"\npreconditioned matrix: kappa(A1) = {np.linalg.cond(A1):.2f} "
      f"(down from {kappa:.0e}) using only c = {3 * n} sampled rows")
