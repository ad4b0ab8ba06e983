import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpcqr import (
    EPS,
    DomainError,
    PerturbationSet,
    basic_bounds,
    first_order_bounds,
    growth_factors,
    ortho_estimate,
    preconditioned_bounds,
    sampling_lower_bound,
)

mp.mp.dps = 50


def oracle_growth(p):
    """Re-evaluate the growth terms with 50-digit arithmetic."""
    ea, es = mp.mpf(p.eps_input), mp.mpf(p.eps_precond)
    e1, e2 = mp.mpf(p.eps_gram), mp.mpf(p.eps_cholesky)
    e3, e4 = mp.mpf(p.eps_solve), mp.mpf(p.eps_recover)
    kr = mp.mpf(p.kappa_precond)
    ef = (ea + es) * kr
    g1 = (1 + ef) ** 2 * (e1 + (1 + e1) * e2 + 2 * e3 + e3 * e3)
    g2 = 2 * ef + ef * ef + (1 + ef) ** 2 * (e1 + (1 + e1) * e2)
    g3 = e4 * (1 + ef) * (1 + e3)
    return ef, g1, g2, g3


def oracle_bounds(p, kappa, eta):
    ef, g1, g2, g3 = oracle_growth(p)
    k = mp.mpf(kappa)
    denom = 1 - k * k * g2
    if denom <= 0:
        return None
    cond = mp.sqrt((1 + g2) / denom)
    ortho = k * k * g1 / denom
    residual = (
        mp.mpf(p.eps_input)
        + (mp.mpf(p.eps_precond) + (1 + ef) * mp.mpf(p.eps_solve)) * eta
        + g3 * cond * eta * k
    )
    return cond, ortho, residual


class TestGrowthFactors:
    def test_zero_perturbations(self):
        g = growth_factors(PerturbationSet())
        assert (g.eps_combined, g.growth_ortho, g.growth_definiteness,
                g.growth_recover) == (0.0, 0.0, 0.0, 0.0)

    def test_closed_form_substitution(self):
        p = PerturbationSet(eps_input=EPS, eps_precond=EPS)
        g = growth_factors(p)
        assert g.eps_combined == pytest.approx(2 * EPS, rel=1e-15, abs=0)
        assert g.growth_definiteness == pytest.approx(
            4 * EPS + 4 * EPS * EPS, rel=1e-12, abs=0)
        assert g.growth_ortho == 0.0
        assert g.growth_recover == 0.0

    def test_matches_extended_precision(self):
        p = PerturbationSet(
            eps_input=EPS, eps_precond=EPS, eps_gram=EPS, eps_cholesky=EPS,
            eps_solve=EPS, eps_recover=EPS, kappa_precond=100.0,
        )
        g = growth_factors(p)
        ef, g1, g2, g3 = oracle_growth(p)
        for got, want in [(g.eps_combined, ef), (g.growth_ortho, g1),
                          (g.growth_definiteness, g2), (g.growth_recover, g3)]:
            assert abs(got - float(want)) <= 1e-10 * float(want)

    @given(
        st.integers(0, 6),
        st.floats(0.0, 1e-8),
        st.floats(1e-12, 1e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_perturbation(self, which, base, bump):
        names = ["eps_input", "eps_precond", "eps_gram", "eps_cholesky",
                 "eps_solve", "eps_recover", "kappa_precond"]
        name = names[which]
        p0 = PerturbationSet(
            eps_input=base, eps_precond=base, eps_gram=base,
            eps_cholesky=base, eps_solve=base, eps_recover=base,
            kappa_precond=2.0,
        )
        p1 = replace(p0, **{name: getattr(p0, name) + bump})
        g0, g1 = growth_factors(p0), growth_factors(p1)
        assert g1.growth_ortho >= g0.growth_ortho
        assert g1.growth_definiteness >= g0.growth_definiteness
        assert g1.growth_recover >= g0.growth_recover


class TestPreconditionedBounds:
    def test_exact_arithmetic(self):
        p = PerturbationSet()
        b = preconditioned_bounds(p, 5.0, eta=2.0)
        assert b.assumption_ok
        assert b.ortho_bound == 0.0
        assert b.residual_bound == 0.0

    def test_forced_assumption_violation(self):
        p = PerturbationSet(eps_gram=1e-16)
        b = preconditioned_bounds(p, 1e9, eta=1.0)
        assert not b.assumption_ok
        assert b.ortho_bound is None and b.residual_bound is None

    def test_matches_extended_precision(self):
        p = PerturbationSet(
            eps_input=EPS, eps_precond=EPS, eps_gram=EPS, eps_cholesky=EPS,
            eps_solve=EPS, eps_recover=EPS, kappa_precond=1.0,
        )
        b = preconditioned_bounds(p, 10.0, eta=5.0)
        cond, ortho, residual = oracle_bounds(p, 10.0, 5.0)
        assert abs(b.ortho_bound - float(ortho)) <= 1e-10 * float(ortho)
        assert abs(b.residual_bound - float(residual)) <= 1e-10 * float(residual)
        assert abs(b.cond_factor - float(cond)) <= 1e-10 * float(cond)

    def test_random_sweep_against_oracle(self):
        g = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            p = PerturbationSet(
                eps_input=g.uniform(0, 1e-8),
                eps_precond=g.uniform(0, 1e-8),
                eps_gram=g.uniform(0, 1e-8),
                eps_cholesky=g.uniform(0, 1e-8),
                eps_solve=g.uniform(0, 1e-8),
                eps_recover=g.uniform(0, 1e-8),
                kappa_precond=g.uniform(1, 1e4),
            )
            kappa = 10 ** g.uniform(0, 6)
            eta = g.uniform(1, kappa)
            b = preconditioned_bounds(p, kappa, eta)
            want = oracle_bounds(p, kappa, eta)
            if not b.assumption_ok:
                assert want is None or float(
                    1 - mp.mpf(kappa) ** 2 * oracle_growth(p)[2]
                ) <= 1e-12
                continue
            cond, ortho, residual = want
            assert abs(b.cond_factor - float(cond)) <= 1e-10 * float(cond)
            assert abs(b.ortho_bound - float(ortho)) <= 1e-10 * max(float(ortho), 1e-300)
            assert abs(b.residual_bound - float(residual)) <= 1e-10 * float(residual)
            assert b.ortho_bound >= 0.0
            assert b.residual_bound >= p.eps_input
            checked += 1


class TestFirstOrderBounds:
    def test_roundoff_example(self):
        p = PerturbationSet.roundoff()
        b = first_order_bounds(p, 10.0, eta=1.0)
        assert b.ortho_bound == pytest.approx(8.881784197001252e-14, rel=1e-12,
                                              abs=0)

    def test_zero_perturbations(self):
        b = first_order_bounds(PerturbationSet(), 100.0, eta=3.0)
        assert b.ortho_bound == 0.0
        assert b.residual_bound == 0.0
        assert b.cond_factor == 1.0

    def test_close_to_full_bounds_in_benign_regime(self):
        g = np.random.default_rng(1)
        for _ in range(20):
            eps = g.uniform(0, 1e-12, size=6)
            p = PerturbationSet(*eps, kappa_precond=g.uniform(1, 10))
            kappa = g.uniform(1, 1e3)
            eta = g.uniform(1, kappa)
            full = preconditioned_bounds(p, kappa, eta)
            fo = first_order_bounds(p, kappa, eta)
            assert full.assumption_ok
            if full.ortho_bound > 0:
                assert fo.ortho_bound <= full.ortho_bound * 1.01
            if full.residual_bound > 0:
                assert fo.residual_bound <= full.residual_bound * 1.01


@pytest.mark.parametrize("bounds", [preconditioned_bounds,
                                    first_order_bounds])
@pytest.mark.parametrize("kappa, eta", [
    (10.0, math.nan), (10.0, math.inf), (10.0, -3.0), (10.0, 0.5),
    (math.nan, 2.0), (math.inf, 2.0), (0.5, 1.0),
])
def test_rejects_invalid_conditioning(bounds, kappa, eta):
    # kappa(A1) >= 1 and eta lies in [1, kappa(A1)].
    with pytest.raises(DomainError):
        bounds(PerturbationSet.roundoff(), kappa, eta)


class TestBasicBounds:
    def test_zero(self):
        b = basic_bounds(PerturbationSet(), 10.0)
        assert b.ortho_bound == 0.0 and b.residual_bound == 0.0

    def test_bit_exact_specialization(self):
        p = PerturbationSet.roundoff(kappa_precond=50.0)
        b = basic_bounds(p, 1e5)
        p0 = replace(p, eps_precond=0.0, eps_recover=0.0, kappa_precond=1.0)
        ref = preconditioned_bounds(p0, 1e5, eta=1.0)
        assert b.ortho_bound == ref.ortho_bound
        assert b.residual_bound == ref.residual_bound
        assert b.cond_factor == ref.cond_factor

    def test_large_kappa_magnitude(self):
        p = PerturbationSet.roundoff()
        b = basic_bounds(p, 1e7)
        # Dominated by 4*u*kappa^2 over a denominator slightly below 1.
        k2g = 1e14 * 4 * EPS
        assert b.ortho_bound == pytest.approx(k2g / (1 - k2g), rel=0.02)
        assert b.ortho_bound == pytest.approx(4 * EPS * 1e14, rel=0.15)


class TestSamplingLowerBound:
    def test_reference_point(self):
        sb = sampling_lower_bound(6000, 100, 1 / 60, 0.5, 0.01)
        assert sb.c_min == 8597
        assert sb.kappa_bound == pytest.approx(math.sqrt(3.0))

    def test_worst_coherence_is_hopeless(self):
        # Exact formula value is 515779.06...; the ceiling convention
        # (consistent with the 8597 reference point) gives 515780.
        sb = sampling_lower_bound(6000, 100, 1.0, 0.5, 0.01)
        assert sb.c_min == 515780
        assert sb.c_min > 6000

    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_eps_and_delta(self, eps, delta):
        m, n, mu = 4096, 32, 0.25
        base = sampling_lower_bound(m, n, mu, eps, delta).c_min
        assert sampling_lower_bound(m, n, mu, min(eps * 1.1, 0.99),
                                    delta).c_min <= base
        assert sampling_lower_bound(m, n, mu, eps,
                                    min(delta * 1.1, 0.99)).c_min <= base
        assert sampling_lower_bound(m, n, min(2 * mu, 1.0), eps,
                                    delta).c_min >= base

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps=0.0), dict(eps=1.0), dict(delta=0.0), dict(delta=1.5),
            dict(mu=1e-6), dict(mu=1.5),
        ],
    )
    def test_domain_errors(self, kwargs):
        args = dict(m=1000, n=10, mu=0.5, eps=0.5, delta=0.1)
        args.update(kwargs)
        with pytest.raises(DomainError):
            sampling_lower_bound(**args)


class TestOrthoEstimate:
    def test_unit_kappa(self):
        assert ortho_estimate(1.0) == pytest.approx(8.881784197001252e-16,
                                                   abs=0)

    def test_kappa_10(self):
        assert ortho_estimate(10.0) == pytest.approx(8.881784197001252e-15,
                                                    abs=0)

    def test_kappa_100(self):
        assert ortho_estimate(100.0) == pytest.approx(8.881784197001252e-14,
                                                     abs=0)

    def test_rejects_kappa_below_one(self):
        with pytest.raises(DomainError):
            ortho_estimate(0.5)
