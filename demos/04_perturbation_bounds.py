"""Evaluate the closed-form accuracy bounds and the sampling lower bound.

Three things are on display:

1. the full perturbation bounds for preconditioned Cholesky-QR, driven by
   per-stage perturbation levels and the condition number of the
   preconditioned matrix;
2. their first-order simplification, valid when every perturbation is tiny;
3. the coherence-driven lower bound on how many rows must be sampled for
   the preconditioner to be reliable.
"""

from rpcqr import (
    PerturbationSet,
    first_order_bounds,
    growth_factors,
    preconditioned_bounds,
    sampling_lower_bound,
)

# Everything perturbed at unit roundoff, mildly conditioned preconditioner.
p = PerturbationSet.roundoff(kappa_precond=10.0)
g = growth_factors(p)

print("per-stage growth factors at unit roundoff, kappa(R_s) = 10:")
print(f"  combined input/preconditioner error  {g.eps_combined:.3e}")
print(f"  orthogonality growth                 {g.growth_ortho:.3e}")
print(f"  definiteness growth                  {g.growth_definiteness:.3e}\n")

for kappa_a1 in (10.0, 1e3, 1e6, 1e8):
    b = preconditioned_bounds(p, kappa_a1, eta=2.0)
    if b.assumption_ok:
        fo = first_order_bounds(p, kappa_a1, eta=2.0)
        print(f"kappa(A1) = {kappa_a1:8.0e}:  deviation <= {b.ortho_bound:.2e}"
              f" (first order {fo.ortho_bound:.2e}),"
              f" residual <= {b.residual_bound:.2e}")
    else:
        print(f"kappa(A1) = {kappa_a1:8.0e}:  assumption "
              "kappa^2 * growth < 1 fails -- no guarantee")

print("\nrows the theory demands (m=6000, n=100, failure prob 1%):")
for mu, label in [(1.0, "worst coherence, no smoothing"),
                  (1 / 60, "ideal coherence n/m, post-smoothing")]:
    sb = sampling_lower_bound(6000, 100, mu, eps=0.5, delta=0.01)
    print(f"  mu = {mu:6.4f} ({label:35s}) -> c >= {sb.c_min:7d} "
          f"(kappa(A1) <= {sb.kappa_bound:.2f} w.h.p.)")
print("smoothing shrinks the requirement 60x (exactly the coherence ratio);"
      "\nthe bound is still pessimistic: experiments succeed with c = 3n = 300")
