"""A cheap, accurate estimate of the deviation from orthonormality.

Classical worst-case analysis predicts deviation ~ u * kappa(A1)^2, but in
practice the deviation grows only linearly in kappa(A1).  The estimate
4 * u * kappa(A1) -- computable from quantities the algorithm already has --
lands within two orders of magnitude of the measured deviation essentially
always.  This demo measures the ratio over a small sweep.
"""

import numpy as np

from rpcqr import (
    EPS,
    cond2,
    ortho_deviation,
    ortho_estimate,
    rp_cholesky_qr,
    worst_coherence_stack,
)

m, n, kappa = 1000, 50, 1e15
A = worst_coherence_stack(m, n, kappa, seed=7)

print(f"{'c':>5} {'deviation':>12} {'4*u*kappa(A1)':>14} {'ratio':>8}")
ratios = []
for c in (100, 150, 200, 300, 400):
    for trial in range(5):
        f, _, A1 = rp_cholesky_qr(A, c, seed=1000 * c + trial)
        dev = ortho_deviation(f.Q)
        est = ortho_estimate(cond2(A1))
        ratios.append(dev / est)
    print(f"{c:5d} {dev:12.2e} {est:14.2e} {dev / est:8.2f}")

ratios = np.array(ratios)
inside = np.mean((ratios >= 1e-2) & (ratios <= 1e2))
print(f"\ndeviation / estimate within [1e-2, 1e2] for "
      f"{100 * inside:.0f}% of {ratios.size} trials")
print("(the first-order bound would predict ratios near kappa(A1), "
      "i.e. off by the condition number itself)")
