from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticeym.errors import ResolutionTooLow
from latticeym.groups import GroupSpec
from latticeym.quadrature import RTOL, QuadratureSpec, ensemble_constants, weyl_integrate
from latticeym.single_bond import (CouplingSpec, _quadratic_scale, _wilson_scale,
                                   bound_constants, log_z, log_zeta_envelope, log_zeta_lower,
                                   log_zeta_upper, quadratic_weight, wilson_weight, z_lower,
                                   z_upper, z_upper_source_envelope)

from conftest import flat_vandermonde, source_weight, vandermonde_density, z_upper_source

U1 = GroupSpec(1)
U2 = GroupSpec(2)


def bessel_series(x, terms=220):
    """sum_k (x/2)^(2k) / (k!)^2, the modified Bessel function I_0(x)."""
    total, term = 0.0, 1.0
    for k in range(terms):
        total += term
        term *= (0.5 * x) ** 2 / (k + 1) ** 2
    return total


def abelian_coupling(beta, d=2):
    return CouplingSpec(d=d, a=1.0, g2=1.0 / beta)


def source_bound(j, coupling, group):
    """Closed-form ceiling beta**(-n^2/2) exp(c + (pi^2/8) n |j|^2) for
    |z_upper_source(j)|, with c = (n^2 + n/4) ln pi + (1/2) ln N_S - ln N_C."""
    n = group.n
    consts = ensemble_constants(group)
    c = (n * n + 0.25 * n) * np.log(np.pi) + 0.5 * np.log(consts.gse) - np.log(consts.cue)
    return float(np.exp(c + (np.pi**2 / 8.0) * n * abs(complex(j)) ** 2
                        - 0.5 * n * n * np.log(coupling.beta)))


@dataclass(frozen=True)
class TrigReport:
    """Largest violations of the pointwise inequalities behind the sandwich."""

    max_lower_violation: float
    max_upper_violation: float
    max_density_violation: float
    points_checked: int

    @property
    def ok(self) -> bool:
        worst = max(self.max_lower_violation, self.max_upper_violation,
                    self.max_density_violation)
        return worst <= 1e-12


def trig_inequality_report():
    """Grid check of (4/pi^2) u^2 <= 2(1 - cos u) <= u^2 on |u| <= pi,
    plus the induced Vandermonde sandwich on random angle vectors with all
    |lam_j| <= pi/2 for ranks 1..3."""
    n_grid, n_random = 20001, 2000
    u = np.linspace(-np.pi, np.pi, n_grid)
    f = 4.0 * np.sin(0.5 * u) ** 2
    lower = (4.0 / np.pi**2) * u * u
    upper = u * u
    max_low = float(np.max(lower - f))
    max_up = float(np.max(f - upper))

    rng = np.random.default_rng(11)
    max_dens = -np.inf
    checked = n_grid
    for n in (1, 2, 3):
        lam = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=(n_random, n))
        rho = vandermonde_density(lam)
        flat = flat_vandermonde(lam)
        n_pairs = n * (n - 1) // 2
        low = (4.0 / np.pi**2) ** n_pairs * flat
        max_dens = max(max_dens, float(np.max(low - rho)), float(np.max(rho - flat)))
        checked += n_random
    return TrigReport(max_lower_violation=max_low, max_upper_violation=max_up,
                      max_density_violation=max_dens, points_checked=checked)


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_z_upper_abelian_bessel_oracle(beta, quad):
    z = z_upper(abelian_coupling(beta), U1, quad)
    assert z == pytest.approx(np.exp(-2.0 * beta) * bessel_series(2.0 * beta), rel=1e-10)


def test_z_upper_frozen_value(quad):
    # exp(-2) I_0(2), frozen from the series oracle.
    assert z_upper(abelian_coupling(1.0), U1, quad) == pytest.approx(
        0.308508322553671, rel=1e-12)


def test_z_lower_abelian_gaussian_oracle(quad):
    # (1/2pi) integral of exp(-8 lam^2) over (-pi, pi], via the error function.
    from math import erf, pi, sqrt
    expected = sqrt(pi / 8.0) * erf(sqrt(8.0) * pi) / (2.0 * pi)
    z = z_lower(CouplingSpec(d=2, a=1.0, g2=1.0), U1, quad)
    assert z == pytest.approx(expected, rel=1e-12)
    assert z == pytest.approx(0.09973557010035816, rel=1e-12)


def test_z_upper_tends_to_one_at_zero_coupling(quad):
    z = z_upper(CouplingSpec(d=4, a=1.0, g2=1e12), U2, quad)
    assert z == pytest.approx(1.0, abs=1e-6)


def test_z_upper_decreases_with_beta(quad):
    betas = [0.1, 0.5, 1.0, 5.0, 50.0]
    values = [z_upper(abelian_coupling(b), U2, quad) for b in betas]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.floats(0.05, 1.0), st.floats(0.1, 2.0),
       st.integers(1, 2))
def test_sandwich_z_lower_below_z_upper(d, a, g2, n):
    quad = QuadratureSpec()
    cp = CouplingSpec(d=d, a=a, g2=g2)
    g = GroupSpec(n)
    assert z_lower(cp, g, quad) <= z_upper(cp, g, quad)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_extracted_products_stay_in_sandwich(n, d, quad):
    # beta^(n^2/2) z for both integrals stays within [exp(c_lower), exp(c_upper)]
    # across the spacing grid at fixed g^2.
    g = GroupSpec(n)
    cp0 = CouplingSpec(d=d, a=1.0, g2=1.0, g0_sq=2.0)
    bc = bound_constants(cp0, g, quad)
    for a in (1.0, 0.5, 0.1, 0.05, 0.01):
        cp = CouplingSpec(d=d, a=a, g2=1.0, g0_sq=2.0)
        log_zu = log_zeta_upper(cp, g, quad)[0]
        log_zl = log_zeta_lower(cp, g, quad)[0]
        assert bc.c_lower <= log_zl <= log_zu <= bc.c_upper


@pytest.mark.parametrize("beta", [1e20, 1e300])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_normalized_integrals_at_extreme_coupling(n, beta, quad):
    # z itself underflows here and beta^(n^2/2) overflows; the extracted value
    # stays of order one and tends to the Gaussian constant N_G / N_C.
    g = GroupSpec(n)
    cp = CouplingSpec(d=4, a=1.0, g2=1.0 / beta)
    consts = ensemble_constants(g)
    log_zu = log_zeta_upper(cp, g, quad)[0]
    assert abs(log_zu - np.log(consts.gue / consts.cue)) <= 1e-12
    bc = bound_constants(cp, g, quad)
    assert bc.c_lower <= log_zeta_lower(cp, g, quad)[0] <= bc.c_upper


@pytest.mark.parametrize("beta", [0.5, 10.0, 1e4, 1e12])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_log_forms_match_linear_integrals(n, beta, quad):
    # Wherever z is a normal float, ln zeta - (n^2/2) ln beta is ln z, with z
    # formed linearly from the concentrated value as scale**(-n^2) times it.
    g = GroupSpec(n)
    cp = CouplingSpec(d=4, a=1.0, g2=1.0 / beta)
    j = 0.5
    cases = [
        (log_zeta_upper(cp, g, quad), z_upper(cp, g, quad),
         wilson_weight(beta), _wilson_scale(beta)),
        (log_zeta_lower(cp, g, quad), z_lower(cp, g, quad),
         quadratic_weight(beta, 4, g), _quadratic_scale(beta, 4, g)),
        (log_zeta_envelope(j, cp, g, quad), z_upper_source_envelope(j, cp, g, quad),
         source_weight(j, beta, lambda lam: np.abs(np.sin(lam))), _wilson_scale(beta, j)),
    ]
    checked = 0
    for (log_zeta, err), linear, w, (scale, cutoff) in cases:
        assert 0.0 <= err <= RTOL
        value = weyl_integrate(w, g, quad, scale=scale, cutoff=cutoff)[0] * scale ** -g.dim
        for z in (linear, value):
            if np.finfo(float).tiny <= z < np.inf:
                assert abs(log_z(log_zeta, cp, g) - np.log(z)) <= 1e-12
                checked += 1
    # all three z underflow at the largest rank and coupling, and only there
    assert checked == (0 if (n, beta) == (8, 1e12) else 6)


def test_log_lower_finite_where_linear_underflows(quad):
    # N = 8, d = 4, beta = 1e12: z_lower ~ beta^(-32) zeta_l is below every double
    g = GroupSpec(8)
    cp = CouplingSpec(d=4, a=1.0, g2=1e-12)
    log_zeta, err = log_zeta_lower(cp, g, quad)
    assert z_lower(cp, g, quad) == 0.0
    assert log_zeta - 32.0 * np.log(1e12) == pytest.approx(-1056.4, abs=0.05)
    assert log_z(log_zeta, cp, g) == log_zeta - 32.0 * np.log(1e12)
    assert 0.0 <= err <= RTOL


def test_coarse_rule_below_fine_rule():
    # The companion rule of the resolution check has fewer nodes than the
    # rule it checks, so at 8 points it compares 8 with 5 nodes, not the
    # rule with itself, and the unresolved integral fails.
    assert all(QuadratureSpec(points=p).coarse_points < p for p in range(4, 200))
    with pytest.raises(ResolutionTooLow):
        log_zeta_lower(CouplingSpec(2, 1.0, 1.0), U2, QuadratureSpec(points=8))


def test_bound_constants_frozen_abelian(quad):
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    bc = bound_constants(cp, U1, quad)
    # c_upper = log((pi/2) * N_G / N_C) = log(sqrt(pi)/4), plugged in directly.
    assert bc.c_upper == pytest.approx(np.log(np.sqrt(np.pi) / 4.0), rel=1e-12)
    assert bc.c_upper == pytest.approx(-0.8139294181951906, rel=1e-12)
    assert bc.c_lower < bc.c_upper
    assert np.isfinite(bc.c_lower)


def test_lower_bound_tight_corner(quad):
    # At a = 1, g2 = g0^2, d = 2 the lower bound is nearly saturated: the only
    # slack is the Gaussian tail outside |lam| = pi/2, about 3e-10 relative.
    cp = CouplingSpec(d=2, a=1.0, g2=1.0, g0_sq=1.0)
    bc = bound_constants(cp, U1, quad)
    margin = np.exp(log_zeta_lower(cp, U1, quad)[0]) - np.exp(bc.c_lower)
    assert 0.0 < margin / np.exp(bc.c_lower) < 1e-8


def test_source_reduces_to_plain_at_zero(quad):
    cp = abelian_coupling(1.0)
    z0 = z_upper_source(0.0, cp, U1, quad)
    assert z0.imag == pytest.approx(0.0, abs=1e-14)
    assert z0.real == pytest.approx(z_upper(cp, U1, quad), rel=1e-12)


@pytest.mark.parametrize("j", [0.3, 1.0j, 0.5 + 0.5j, -1.2 + 0.4j, 2.0])
@pytest.mark.parametrize("n", [1, 2])
def test_source_modulus_chain(j, n, quad):
    # |z(j)| <= envelope(|j|) <= closed-form ceiling.
    g = GroupSpec(n)
    cp = CouplingSpec(d=3, a=0.5, g2=1.0)
    z = z_upper_source(j, cp, g, quad)
    env = z_upper_source_envelope(j, cp, g, quad)
    ceiling = source_bound(j, cp, g)
    assert abs(z) <= env * (1 + 1e-10)
    assert env <= ceiling


def test_source_real_positive_jensen(quad):
    # For real j the integrand is positive and Jensen gives z(j) >= z(0).
    cp = abelian_coupling(1.0)
    z0 = z_upper(cp, U1, quad)
    for j in (0.2, 0.7, 1.5):
        z = z_upper_source(j, cp, U1, quad)
        assert z.imag == pytest.approx(0.0, abs=1e-13)
        assert z.real >= z0


def test_source_analytic_cauchy_riemann(quad):
    # Central differences of the two partials at j = 0.3 + 0.4i.
    cp = abelian_coupling(1.0)
    h = 1e-4
    j0 = 0.3 + 0.4j
    dx = (z_upper_source(j0 + h, cp, U1, quad)
          - z_upper_source(j0 - h, cp, U1, quad)) / (2 * h)
    dy = (z_upper_source(j0 + 1j * h, cp, U1, quad)
          - z_upper_source(j0 - 1j * h, cp, U1, quad)) / (2 * h)
    assert abs(dx - dy / 1j) < 1e-7


def test_trig_inequality_report():
    report = trig_inequality_report()
    assert report.ok
    assert report.max_lower_violation <= 1e-12
    assert report.max_upper_violation <= 1e-12
    assert report.max_density_violation <= 1e-12
    assert report.points_checked > 20_000


def test_coupling_spec_validation():
    with pytest.raises(ValueError):
        CouplingSpec(d=5, a=1.0, g2=1.0)
    with pytest.raises(ValueError):
        CouplingSpec(d=2, a=0.0, g2=1.0)
    with pytest.raises(ValueError):
        CouplingSpec(d=2, a=1.2, g2=1.0)
    with pytest.raises(ValueError):
        CouplingSpec(d=2, a=1.0, g2=-0.3)
    with pytest.raises(ValueError):
        CouplingSpec(d=2, a=1.0, g2=2.0, g0_sq=1.0)
    cp = CouplingSpec(d=3, a=0.5, g2=2.0)
    assert cp.g0_sq == 2.0
    assert cp.beta == pytest.approx(0.5 ** (-1) / 2.0, rel=1e-15)


def test_beta_spacing_independent_in_d4():
    for a in (1.0, 0.5, 0.1):
        assert CouplingSpec(d=4, a=a, g2=0.7).beta == CouplingSpec(d=4, a=1.0, g2=0.7).beta
