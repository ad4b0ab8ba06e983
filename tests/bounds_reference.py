"""50-digit oracle for the perturbation bounds: the growth terms and the
preconditioned bounds of ``rpcqr.bounds``, transcribed once in mpmath."""

import mpmath as mp

mp.mp.dps = 50


def growth(p):
    """(eps_combined, growth_ortho, growth_definiteness, growth_recover)."""
    ea, es = mp.mpf(p.eps_input), mp.mpf(p.eps_precond)
    e1, e2 = mp.mpf(p.eps_gram), mp.mpf(p.eps_cholesky)
    e3, e4 = mp.mpf(p.eps_solve), mp.mpf(p.eps_recover)
    ef = (ea + es) * mp.mpf(p.kappa_precond)
    g1 = (1 + ef) ** 2 * (e1 + (1 + e1) * e2 + 2 * e3 + e3 * e3)
    g2 = 2 * ef + ef * ef + (1 + ef) ** 2 * (e1 + (1 + e1) * e2)
    g3 = e4 * (1 + ef) * (1 + e3)
    return ef, g1, g2, g3


def margin(p, kappa):
    """1 - kappa^2 * growth_definiteness; the bounds assume it is positive."""
    k = mp.mpf(kappa)
    return 1 - k * k * growth(p)[2]


def bounds(p, kappa, eta):
    """(cond_factor, ortho_bound, residual_bound), or None when the margin
    is not positive."""
    ef, g1, g2, g3 = growth(p)
    k = mp.mpf(kappa)
    denom = margin(p, kappa)
    if denom <= 0:
        return None
    cond = mp.sqrt((1 + g2) / denom)
    ortho = k * k * g1 / denom
    ea, es = mp.mpf(p.eps_input), mp.mpf(p.eps_precond)
    e3 = mp.mpf(p.eps_solve)
    residual = ea + (es + (1 + ef) * e3) * eta + g3 * cond * eta * k
    return cond, ortho, residual
