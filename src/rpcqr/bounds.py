"""Closed-form accuracy bounds for the Cholesky-QR family.

Each stage of the (preconditioned) algorithm contributes one normwise
relative perturbation; the evaluators below combine them into bounds on the
deviation from orthonormality, the relative residual, and the conditioning
of the computed triangular factor.  A first-order simplification and the
specialization to the unpreconditioned algorithm are also provided, along
with the probabilistic sampling-amount lower bound and the empirical
orthogonality estimate 4*u*kappa(A1).

The bounds are evaluated in plain double precision; the test suite guards
the transcription with an extended-precision oracle.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from .errors import DomainError
from .kernels import EPS


@dataclass(frozen=True)
class PerturbationSet:
    """Normwise relative perturbations of the algorithm's stages.

    eps_input    -- perturbation of the input matrix A
    eps_precond  -- residual of the preconditioner solve A1 = A R_s^{-1}
    eps_gram     -- forward error of the Gram matrix product
    eps_cholesky -- backward error of the Cholesky factorization
    eps_solve    -- residual of the final triangular solve for Q
    eps_recover  -- forward error of the product R = R2 R_s
    kappa_precond -- condition number of the preconditioner R_s (>= 1)
    """

    eps_input: float = 0.0
    eps_precond: float = 0.0
    eps_gram: float = 0.0
    eps_cholesky: float = 0.0
    eps_solve: float = 0.0
    eps_recover: float = 0.0
    kappa_precond: float = 1.0

    def __post_init__(self):
        eps = [getattr(self, name) for name in _stage_fields()]
        if any(not math.isfinite(v) or v < 0.0 for v in eps):
            raise DomainError("perturbations must be finite and nonnegative")
        if not math.isfinite(self.kappa_precond) or self.kappa_precond < 1.0:
            raise DomainError("kappa_precond must be finite and >= 1")

    @classmethod
    def roundoff(cls, kappa_precond=1.0):
        """All stage perturbations set to unit roundoff."""
        return cls(kappa_precond=kappa_precond,
                   **dict.fromkeys(_stage_fields(), EPS))


def _stage_fields():
    """Names of PerturbationSet's stage perturbations, its ``eps_`` fields."""
    return [f.name for f in fields(PerturbationSet)
            if f.name.startswith("eps_")]


@dataclass(frozen=True)
class GrowthFactors:
    """Combined second-order growth terms built from a PerturbationSet.

    eps_combined       -- front-end error passed through the preconditioner:
                          (eps_input + eps_precond) * kappa_precond
    growth_ortho       -- multiplies kappa(A1)^2 in the orthogonality bound
    growth_definiteness -- controls the positive-definiteness assumption
                          kappa(A1)^2 * growth_definiteness < 1
    growth_recover     -- contribution of the triangular-factor recovery
    """

    eps_combined: float
    growth_ortho: float
    growth_definiteness: float
    growth_recover: float


@dataclass(frozen=True, kw_only=True)
class BoundSet:
    """Evaluated bounds, built by keyword; printed in field order.

    ``cond_factor`` is the multiplier of kappa(R2) bounding the conditioning
    of the computed triangular factor.  The bound fields are ``None`` when
    the positive-definiteness assumption fails (``assumption_ok`` False).
    """

    assumption_ok: bool
    cond_factor: Optional[float]
    ortho_bound: Optional[float]
    residual_bound: Optional[float]
    eta: float
    kappa_preconditioned: float


def growth_factors(p):
    """Evaluate the combined growth terms exactly as defined."""
    ef = (p.eps_input + p.eps_precond) * p.kappa_precond
    e1, e2, e3, e4 = p.eps_gram, p.eps_cholesky, p.eps_solve, p.eps_recover
    g1 = (1.0 + ef) ** 2 * (e1 + (1.0 + e1) * e2 + 2.0 * e3 + e3 * e3)
    g2 = 2.0 * ef + ef * ef + (1.0 + ef) ** 2 * (e1 + (1.0 + e1) * e2)
    g3 = e4 * (1.0 + ef) * (1.0 + e3)
    return GrowthFactors(
        eps_combined=ef,
        growth_ortho=g1,
        growth_definiteness=g2,
        growth_recover=g3,
    )


def _check_conditioning(kappa_preconditioned, eta):
    """kappa(A1) and eta as floats, with 1 <= eta <= kappa(A1) finite.

    A measured eta may round just above a kappa(A1) of 1, hence the
    relative allowance of 1e-10 on the upper limit.
    """
    k, eta = float(kappa_preconditioned), float(eta)
    if not math.isfinite(k) or k < 1.0:
        raise DomainError("kappa_preconditioned must be finite and >= 1")
    if not math.isfinite(eta) or eta < 1.0:
        raise DomainError("eta must be finite and >= 1")
    if eta > k * (1.0 + 1e-10):
        raise DomainError(f"eta={eta} exceeds kappa_preconditioned={k}")
    return k, eta


def preconditioned_bounds(p, kappa_preconditioned, eta):
    """Full bounds for preconditioned Cholesky-QR.

    ``kappa_preconditioned`` is the condition number of A1 = A R_s^{-1};
    ``eta`` is the conditioning of the product A1 R_s, in [1, kappa(A1)].
    """
    k, eta = _check_conditioning(kappa_preconditioned, eta)
    g = growth_factors(p)
    denom = 1.0 - k * k * g.growth_definiteness
    if denom <= 0.0:
        return BoundSet(assumption_ok=False, cond_factor=None,
                        ortho_bound=None, residual_bound=None, eta=eta,
                        kappa_preconditioned=k)
    cond_factor = math.sqrt((1.0 + g.growth_definiteness) / denom)
    ortho = k * k * g.growth_ortho / denom
    residual = (
        p.eps_input
        + (p.eps_precond + (1.0 + g.eps_combined) * p.eps_solve) * eta
        + g.growth_recover * cond_factor * eta * k
    )
    return BoundSet(assumption_ok=True, cond_factor=cond_factor,
                    ortho_bound=ortho, residual_bound=residual, eta=eta,
                    kappa_preconditioned=k)


def first_order_bounds(p, kappa_preconditioned, eta):
    """First-order versions of the preconditioned bounds (no assumption)."""
    k, eta = _check_conditioning(kappa_preconditioned, eta)
    g1 = p.eps_gram + p.eps_cholesky + 2.0 * p.eps_solve
    g2 = (
        2.0 * (p.eps_input + p.eps_precond) * p.kappa_precond
        + p.eps_gram
        + p.eps_cholesky
    )
    cond_factor = math.sqrt(1.0 + g2 * (1.0 + k * k))
    ortho = g1 * k * k
    residual = p.eps_input + (
        p.eps_precond + p.eps_solve + p.eps_recover * k
    ) * eta
    return BoundSet(assumption_ok=True, cond_factor=cond_factor,
                    ortho_bound=ortho, residual_bound=residual, eta=eta,
                    kappa_preconditioned=k)


def basic_bounds(p, kappa):
    """Bounds for the unpreconditioned algorithm.

    Exactly the preconditioned bounds specialized to a trivial
    preconditioner: no preconditioner solve, no recovery product, eta = 1.
    """
    p0 = replace(p, eps_precond=0.0, eps_recover=0.0, kappa_precond=1.0)
    return preconditioned_bounds(p0, kappa, eta=1.0)


@dataclass(frozen=True)
class SamplingBound:
    """Sampling amount guaranteeing a well-conditioned preconditioned matrix.

    With c >= c_min sampled rows, the preconditioned matrix has full rank
    and condition number at most ``kappa_bound``, with probability at least
    1 - delta.
    """

    c_min: int
    kappa_bound: float


def sampling_lower_bound(m, n, mu, eps, delta):
    """c_min = ceil(2 m mu (1 + eps/3) ln(n/delta) / eps^2)."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must be in (0, 1)")
    if not n / m <= mu <= 1.0:
        raise DomainError("mu must be in [n/m, 1]")
    c = 2.0 * m * mu * (1.0 + eps / 3.0) * math.log(n / delta) / (eps * eps)
    return SamplingBound(
        c_min=math.ceil(c),
        kappa_bound=math.sqrt((1.0 + eps) / (1.0 - eps)),
    )


def ortho_estimate(kappa_preconditioned):
    """Empirical orthogonality estimate 4 * u * kappa(A1).

    Observed to track the measured deviation from orthonormality within a
    couple of orders of magnitude; the guaranteed bound carries kappa(A1)^2
    instead.  A singular A1 (kappa(A1) = inf) gives an infinite estimate.
    """
    k = float(kappa_preconditioned)
    if not k >= 1.0:
        raise DomainError("kappa_preconditioned must be >= 1")
    return 4.0 * EPS * k
