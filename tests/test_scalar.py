"""Tests for the free scalar field: propagators, derivatives, decay rates."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from latticeym import scalar
from latticeym.errors import InfraredDivergent, RangeTooNoisy, ResolutionTooLow
from latticeym.scalar import (
    DecayFit,
    ScalarSpec,
    _exp_sinh,
    _momentum_value,
    _scaled_propagator_cached,
    coincident_bound_constant,
    derivative_correlation,
    fit_decay_rate,
    gaussian_generating_function,
    generating_function_bound,
    mass_gap,
    mass_gap_formula,
    scaled_propagator,
)

# Frozen oracles.  The decay rate at a = m_u = kappa_u = 1 is
# 2 asinh(1/2) = 2 ln((1+sqrt(5))/2); the d=3 massless coincident value was
# cross-checked against the Gamma-product closed form below to 2e-15.
MASS_GAP_UNIT = 0.9624236501192069
COINCIDENT_D3 = 1.5163860591519804
COINCIDENT_D4 = 1.2394671218484816


def spec_d3():
    return ScalarSpec(d=3, a=0.5, m_u=1.0, kappa_u=1.0)


def mpmath_propagator(spec, n):
    """Scaled covariance from mpmath quadrature of the Bessel product.

    Uses besseli(n, z) e^{-z} at 20 digits, with a breakpoint per decade so
    the slow massless tail is resolved.
    """
    with mpmath.workdps(20):
        k2 = 1 / (2 * spec.d + mpmath.mpf(spec.r))
        decay = mpmath.mpf(spec.r) * k2

        def integrand(t):
            z = 2 * k2 * t
            scaled = {k: mpmath.besseli(k, z) * mpmath.exp(-z) for k in {abs(c) for c in n}}
            value = mpmath.exp(-decay * t)
            for component in n:
                value *= scaled[abs(component)]
            return value

        breakpoints = [0] + [mpmath.mpf(10) ** k for k in range(9)] + [mpmath.inf]
        return float(mpmath.quad(integrand, breakpoints))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=5, a=1.0, m_u=1.0, kappa_u=1.0),
            dict(d=1, a=1.0, m_u=1.0, kappa_u=1.0),
            dict(d=3, a=0.0, m_u=1.0, kappa_u=1.0),
            dict(d=3, a=1.5, m_u=1.0, kappa_u=1.0),
            dict(d=3, a=1.0, m_u=-0.5, kappa_u=1.0),
            dict(d=3, a=1.0, m_u=1.0, kappa_u=0.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ScalarSpec(**kwargs)

    def test_variance_normalizer(self):
        # a^{d-2} (m_u^2 a^2 + 2 d kappa_u^2) at d=3, a=1/2, m_u=kappa_u=1
        spec = spec_d3()
        assert spec.s2 == pytest.approx(3.125, rel=1e-15)

    def test_hopping_weight_massless(self):
        for d in (2, 3, 4):
            spec = ScalarSpec(d=d, a=1.0, m_u=0.0, kappa_u=2.0)
            assert spec.kappa2 == pytest.approx(1.0 / (2 * d), rel=1e-15)

    def test_hopping_weight_unit_ratio(self):
        spec = ScalarSpec(d=4, a=1.0, m_u=1.0, kappa_u=1.0)
        assert spec.r == pytest.approx(1.0)
        assert spec.kappa2 == pytest.approx(1.0 / 9.0, rel=1e-15)

    @given(
        d=st.sampled_from([2, 3, 4]),
        a=st.floats(0.05, 1.0),
        m_u=st.floats(0.0, 5.0),
        kappa_u=st.floats(0.2, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_identity(self, d, a, m_u, kappa_u):
        # 1 - 2 d kappa^2 = r kappa^2 links the subtracted weight to the mass
        spec = ScalarSpec(d=d, a=a, m_u=m_u, kappa_u=kappa_u)
        k2 = spec.kappa2
        assert 1.0 - 2 * d * k2 == pytest.approx(spec.r * k2, rel=1e-12, abs=1e-14)


class TestMassGap:
    def test_unit_parameters(self):
        got = mass_gap(ScalarSpec(d=2, a=1.0, m_u=1.0, kappa_u=1.0))
        assert got == pytest.approx(MASS_GAP_UNIT, abs=1e-15)
        assert got == pytest.approx(2.0 * math.log((1 + math.sqrt(5)) / 2), abs=1e-14)

    def test_continuum_limit(self):
        got = mass_gap(ScalarSpec(d=3, a=0.01, m_u=1.0, kappa_u=1.0))
        assert got == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize(
        "a,m_u,kappa_u",
        [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (0.25, 0.7, 1.3), (1.0, 3.0, 0.5)],
    )
    def test_closed_forms_agree(self, a, m_u, kappa_u):
        r = (m_u * a / kappa_u) ** 2
        log_form = (2.0 / a) * math.log(math.sqrt(r) / 2 + math.sqrt(4 + r) / 2)
        assert mass_gap_formula(a, m_u, kappa_u) == pytest.approx(log_form, rel=1e-12)

    def test_complex_step_smoothness(self):
        # d(gap)/d(m_u) by complex step against a central difference
        a, m_u, kappa_u = 0.5, 1.3, 0.9
        h = 1e-20
        cs = mass_gap_formula(a, m_u + 1j * h, kappa_u).imag / h
        fd = (
            mass_gap_formula(a, m_u + 1e-6, kappa_u)
            - mass_gap_formula(a, m_u - 1e-6, kappa_u)
        ) / 2e-6
        assert cs == pytest.approx(fd, rel=1e-8)


class TestPropagator:
    def test_site_validation(self):
        spec = spec_d3()
        with pytest.raises(ValueError):
            scaled_propagator(spec, (0, 0))
        with pytest.raises(ValueError):
            scaled_propagator(spec, (0, 0, 0), (1, 2))
        with pytest.raises(ValueError):
            scaled_propagator(spec, (0.5, 0.0, 0.0))

    def test_translation_and_reflection_invariance(self):
        spec = spec_d3()
        base = scaled_propagator(spec, (2, -1, 0), (0, 1, -1))
        shifted = scaled_propagator(spec, (5, 0, 2), (3, 2, 1))
        reflected = scaled_propagator(spec, (-2, 1, 0), (0, -1, 1))
        assert shifted == pytest.approx(base, rel=1e-12)
        assert reflected == pytest.approx(base, rel=1e-12)

    def test_coincident_singularity_exponent(self):
        # unscaled coincident value grows like a^{-(d-2)} as a decreases
        for d in (3, 4):
            spacings = np.array([0.4, 0.2, 0.1])
            specs = [ScalarSpec(d=d, a=a, m_u=1.0, kappa_u=1.0) for a in spacings]
            values = [scaled_propagator(spec, (0,) * d) / spec.s2 for spec in specs]
            slope = np.polyfit(np.log(spacings), np.log(values), 1)[0]
            assert slope == pytest.approx(-(d - 2), abs=0.1)

    def test_two_resolution_agreement_d4(self):
        spec = ScalarSpec(d=4, a=1.0, m_u=1.0, kappa_u=1.0)
        fine = _momentum_value(spec.kappa2, (0, 0, 0, 0), 48)
        coarse = _momentum_value(spec.kappa2, (0, 0, 0, 0), 32)
        assert fine > 0.0
        assert abs(fine - coarse) <= 1e-6 * abs(fine)
        assert scaled_propagator(spec, (0, 0, 0, 0)) == pytest.approx(fine, rel=1e-12)

    def test_momentum_route_matches_laplace_route(self):
        # massive: Gauss-Legendre in momentum space vs the Laplace-Bessel form
        spec = spec_d3()
        k2 = spec.kappa2
        for n in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 1)]:
            gl = _momentum_value(k2, n, 128)

            def integrand(t, n=n):
                z = 2.0 * k2 * t
                val = np.exp(-spec.r * k2 * t)
                for c in n:
                    val = val * special.ive(abs(c), z)
                return val

            from scipy import integrate

            lap, _ = integrate.quad(integrand, 0, np.inf, epsabs=1e-13, epsrel=1e-11)
            assert gl == pytest.approx(lap, rel=1e-10)

    @pytest.mark.parametrize(
        "d,m_u",
        [(3, 0.0), (4, 0.0), (2, 1.0), (3, 1.0), (4, 1.0)],
        ids=["0.0-3", "0.0-4", "1.0-2", "1.0-3", "1.0-4"],
    )
    def test_matches_mpmath_bessel_oracle(self, d, m_u):
        spec = ScalarSpec(d=d, a=0.5, m_u=m_u, kappa_u=1.0)
        cases = [(spec, n) for n in [(0,) * d, (1,) + (0,) * (d - 1), (3, 2, 1, 0)[:d]]]
        if d == 4:
            # Far separations, where the integrand peaks near t = |n|^2 / (2 d kappa^2).
            far = ScalarSpec(d=4, a=0.01, m_u=1.0, kappa_u=1.0) if m_u else spec
            cases += [(far, (n, 0, 0, 0)) for n in (100, 500)]
        if m_u:
            # The ends of an automatic decay-fit window at small spacing (n = 101, 112).
            window = ScalarSpec(d=d, a=0.05, m_u=1.0, kappa_u=1.0)
            fit = fit_decay_rate(window)
            assert (fit.n_start, fit.n_stop) == (101, 112)
            cases += [(window, (n,) + (0,) * (d - 1)) for n in (fit.n_start, fit.n_stop)]
        for case, n in cases:
            expected = mpmath_propagator(case, n)
            assert scaled_propagator(case, n) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "d,a,m_u,n",
        [
            # below 1e-13, where an absolute tolerance of 1e-13 left QUADPACK
            # 3.1% and 5.5% off; 30-digit mpmath gives 4.97177083684481e-14
            # and 5.41791315025308e-15
            (2, 1.0, 1.0, (30, 0)),
            (3, 1.0, 1.0, (30, 0, 0)),
            # near the origin at small mass the integrand runs on in ln t up
            # to the mass cutoff, a plateau at d = 2
            (2, 0.25, 1.0, (0, 0)),
            (2, 0.01, 0.3, (1, 0)),
        ],
    )
    def test_matches_mpmath_to_rounding(self, d, a, m_u, n):
        spec = ScalarSpec(d=d, a=a, m_u=m_u, kappa_u=1.0)
        assert scaled_propagator(spec, n) == pytest.approx(mpmath_propagator(spec, n), rel=1e-12)

    def test_massless_coincident_d3_closed_form(self):
        # two independent routes: Laplace-Bessel integral and the classical
        # Gamma-product evaluation of the cubic-lattice Green function
        bessel = coincident_bound_constant(3)
        g = special.gamma
        closed = (
            math.sqrt(6.0)
            / (32 * math.pi**3)
            * g(1 / 24)
            * g(5 / 24)
            * g(7 / 24)
            * g(11 / 24)
        )
        assert bessel == pytest.approx(closed, rel=1e-12)
        assert bessel == pytest.approx(COINCIDENT_D3, abs=1e-12)
        massless = scaled_propagator(ScalarSpec(d=3, a=1.0, m_u=0.0, kappa_u=1.0), (0, 0, 0))
        assert massless == pytest.approx(COINCIDENT_D3, rel=1e-10)

    def test_massless_coincident_d4(self):
        assert coincident_bound_constant(4) == pytest.approx(COINCIDENT_D4, abs=1e-12)

    def test_coincident_bounded_by_massless_constant(self):
        for d in (3, 4):
            ceiling = coincident_bound_constant(d)
            for a in (1.0, 0.4, 0.1):
                spec = ScalarSpec(d=d, a=a, m_u=1.0, kappa_u=1.0)
                assert scaled_propagator(spec, (0,) * d) < ceiling

    def test_offsite_below_coincident(self):
        spec = spec_d3()
        c0 = scaled_propagator(spec, (0, 0, 0))
        for n in [(1, 0, 0), (1, 1, 0), (2, 0, 0)]:
            assert 0.0 < scaled_propagator(spec, n) < c0

    def test_infrared_divergence_d2(self):
        with pytest.raises(InfraredDivergent):
            scaled_propagator(ScalarSpec(d=2, a=1.0, m_u=0.0, kappa_u=1.0), (0, 0))
        with pytest.raises(InfraredDivergent):
            coincident_bound_constant(2)

    def test_massive_d2_is_finite(self):
        value = scaled_propagator(ScalarSpec(d=2, a=1.0, m_u=1.0, kappa_u=1.0), (0, 0))
        assert np.isfinite(value) and value > 0


class TestDerivativeCorrelation:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
    def test_massless_coincident_identity(self, d, a):
        # G_{mu mu}(x, x) = 1 / (d kappa_u^2 a^d) at zero mass
        kappa_u = 1.3
        spec = ScalarSpec(d=d, a=a, m_u=0.0, kappa_u=kappa_u)
        got = derivative_correlation(spec, 0, 0, (0,) * d)[0]
        assert got == pytest.approx(1.0 / (d * kappa_u**2 * a**d), rel=1e-8)

    def test_d4_plugin_value(self):
        spec = ScalarSpec(d=4, a=0.5, m_u=0.0, kappa_u=1.0)
        got = derivative_correlation(spec, 0, 0, (0, 0, 0, 0))[0]
        assert got == pytest.approx(4.0, rel=1e-10)

    def test_scaled_coincident_value_is_two(self):
        # a^2 s^2 G_{mu mu}(0,0) = 2 exactly at zero mass, any d and spacing
        for d, a in [(2, 1.0), (3, 0.5), (4, 0.25)]:
            spec = ScalarSpec(d=d, a=a, m_u=0.0, kappa_u=0.8)
            got = spec.a**2 * spec.s2 * derivative_correlation(spec, 1, 1, (0,) * d)[0]
            assert got == pytest.approx(2.0, rel=1e-8)

    def test_mass_lowers_coincident_value(self):
        massless = derivative_correlation(ScalarSpec(3, 1.0, 0.0, 1.0), 0, 0, (0, 0, 0))[0]
        massive = derivative_correlation(ScalarSpec(3, 1.0, 1.0, 1.0), 0, 0, (0, 0, 0))[0]
        assert massive < massless

    def test_coincident_dominates(self):
        spec = spec_d3()
        ceiling = derivative_correlation(spec, 0, 0, (0, 0, 0))[0]
        rng = np.random.default_rng(11)
        for _ in range(8):
            mu, nu = rng.integers(0, 3, size=2)
            x = tuple(rng.integers(-2, 3, size=3))
            assert abs(derivative_correlation(spec, int(mu), int(nu), x)[0]) <= ceiling

    def test_matches_propagator_difference(self):
        # independent route: assemble the same object from four massive
        # propagators, near and at a far separation (d = 4, small spacing)
        def shift(v, axis, step):
            out = list(v)
            out[axis] += step
            return tuple(out)

        for spec, mu, nu, n in [
            (spec_d3(), 0, 1, (1, 1, 0)),
            (ScalarSpec(d=4, a=0.01, m_u=1.0, kappa_u=1.0), 0, 0, (100, 0, 0, 0)),
        ]:
            combo = (
                scaled_propagator(spec, shift(shift(n, mu, 1), nu, -1))
                - scaled_propagator(spec, shift(n, mu, 1))
                - scaled_propagator(spec, shift(n, nu, -1))
                + scaled_propagator(spec, n)
            ) / (spec.a**2 * spec.s2)
            assert derivative_correlation(spec, mu, nu, n)[0] == pytest.approx(combo, rel=1e-8)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            derivative_correlation(spec_d3(), 3, 0, (0, 0, 0))

    def test_d2_massless_is_finite(self):
        # the four-term combination stays integrable even where the
        # propagator itself diverges
        spec = ScalarSpec(d=2, a=1.0, m_u=0.0, kappa_u=1.0)
        value = derivative_correlation(spec, 0, 1, (2, 1))[0]
        assert np.isfinite(value)


class TestDecayRate:
    @pytest.mark.parametrize(
        "d,a,m_u,kappa_u",
        [(2, 1.0, 1.0, 1.0), (3, 0.5, 2.0, 1.0), (3, 1.0, 1.0, 1.0), (4, 1.0, 1.0, 1.0)],
    )
    def test_fitted_rate_matches_gap(self, d, a, m_u, kappa_u):
        spec = ScalarSpec(d=d, a=a, m_u=m_u, kappa_u=kappa_u)
        fit = fit_decay_rate(spec)
        assert isinstance(fit, DecayFit)
        assert fit.residual <= 1e-3
        assert fit.rate == pytest.approx(mass_gap(spec), rel=0.01)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("a", [0.25, 0.1, 0.05, 0.01])
    def test_fitted_rate_matches_gap_small_spacing(self, d, a):
        # d=4, a=0.25 is where a fixed transverse momentum grid was 1.33% off
        spec = ScalarSpec(d=d, a=a, m_u=1.0, kappa_u=1.0)
        fit = fit_decay_rate(spec)
        assert fit.residual <= 1e-3
        assert fit.rate == pytest.approx(mass_gap(spec), rel=0.01)

    def test_unit_parameters_frozen_rate(self):
        fit = fit_decay_rate(ScalarSpec(d=2, a=1.0, m_u=1.0, kappa_u=1.0))
        assert fit.rate == pytest.approx(MASS_GAP_UNIT, rel=0.01)

    def test_slope_insensitive_to_field_scaling(self):
        # dividing every covariance by s^2 shifts the intercept only
        spec = ScalarSpec(d=3, a=0.5, m_u=2.0, kappa_u=1.0)
        fit = fit_decay_rate(spec)
        ns = np.arange(fit.n_start, fit.n_stop + 1, dtype=float)
        values = np.array([scaled_propagator(spec, (int(n), 0, 0)) for n in ns]) / spec.s2
        y = -np.log(values) - 0.5 * (spec.d - 1) * np.log(ns)
        design = np.stack([ns * spec.a, np.ones(len(ns)), 1.0 / ns], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert coef[0] == pytest.approx(fit.rate, abs=1e-10)
        assert coef[1] == pytest.approx(fit.intercept + math.log(spec.s2), abs=1e-8)

    def test_requires_positive_mass(self):
        with pytest.raises(ValueError):
            fit_decay_rate(ScalarSpec(d=3, a=1.0, m_u=0.0, kappa_u=1.0))

    def test_near_range_too_curved(self, monkeypatch):
        # with a zero residual target the window escalates until the covariance underflows
        monkeypatch.setattr(scalar, "_FIT_RESIDUAL", 0.0)
        with pytest.raises(RangeTooNoisy):
            fit_decay_rate(spec_d3())

    def test_deep_range_underflows(self):
        # at m_u = 8 the first window already falls below the floor
        spec = ScalarSpec(d=3, a=1.0, m_u=8.0, kappa_u=1.0)
        with pytest.raises(RangeTooNoisy, match=r"covariance below 1e-14 in window \[2.0, 13.0\]"):
            fit_decay_rate(spec)


class TestConvergenceChecks:
    def test_unconverged_integral_names_quantity(self):
        # a constant integrand has no finite integral on [0, inf)
        with pytest.raises(
            ResolutionTooLow, match=r"scaled propagator at d=3, a=0.5, separation \(1, 0, 0\)"
        ):
            _exp_sinh(np.ones_like, "scaled propagator", spec_d3(), (1, 0, 0))

    def test_non_finite_bessel_values_raise(self, monkeypatch):
        monkeypatch.setattr(special, "ive", lambda order, z: np.full(np.shape(order), np.nan))
        # no cached value may hide the route
        _scaled_propagator_cached.cache_clear()
        spec = ScalarSpec(d=3, a=0.37, m_u=1.0, kappa_u=1.0)
        with pytest.raises(ResolutionTooLow, match="scaled propagator at d=3, a=0.37"):
            scaled_propagator(spec, (1, 0, 0))
        with pytest.raises(ResolutionTooLow, match=r"derivative correlation \(0, 1\) at d=3"):
            derivative_correlation(spec, 0, 1, (0, 0, 0))
        with pytest.raises(ResolutionTooLow,
                           match=r"scaled propagator at d=4, a=1.0, separation \(0, 0, 0, 0\)"):
            coincident_bound_constant(4)
        with pytest.raises(ResolutionTooLow,
                           match=r"scaled propagator at d=3, a=0.37, separation \(0, 0, 14\)"):
            fit_decay_rate(spec)


class TestExpSinhRule:
    ORDERS = np.array([0.0, 1.0, 2.0, 7.0, 20.0, 50.0])

    def test_hankel_branch_matches_mpmath(self):
        # scipy's ive is finite up to z = 1e9, so there both branches are
        # checked; beyond about 1.1e9 it is NaN and only the series is
        z = np.array([np.nextafter(1e8, 2e8), 2e8, 5e8, 1e9, 2e9, 1e12, 1e30])
        with mpmath.workdps(30):
            expected = np.array([[float(mpmath.besseli(int(k), x) * mpmath.exp(-x))
                                  for x in map(mpmath.mpf, z)] for k in self.ORDERS])
        got = scalar._ive(self.ORDERS[:, None], z)
        assert np.max(np.abs(got / expected - 1.0)) <= 1e-14
        scipy_values = special.ive(self.ORDERS[:, None], z[:4])
        assert np.max(np.abs(scipy_values / expected[:, :4] - 1.0)) <= 1e-14

    def test_branch_switch_is_continuous(self):
        below, above = scalar._ive(self.ORDERS[:, None], np.array([1e8, np.nextafter(1e8, 2e8)])).T
        assert np.max(np.abs(above / below - 1.0)) <= 1e-14

    def test_resolution_gaps_reported(self):
        spec = ScalarSpec(d=3, a=0.05, m_u=1.0, kappa_u=1.0)
        fit = fit_decay_rate(spec)
        assert 0.0 <= fit.window_error <= 1e-10
        value, err = derivative_correlation(spec, 0, 1, (2, 1, 0))
        assert 0.0 <= err <= 1e-10


class TestGeneratingFunction:
    def test_empty_sources(self):
        assert gaussian_generating_function(spec_d3(), []) == 1.0
        assert generating_function_bound(spec_d3(), []) == 1.0

    def test_single_source(self):
        spec = spec_d3()
        j = 0.7
        expected = math.exp(0.5 * j * j * scaled_propagator(spec, (0, 0, 0)))
        got = gaussian_generating_function(spec, [((0, 0, 0), j)])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bound_dominates(self):
        spec = ScalarSpec(d=3, a=1.0, m_u=1.0, kappa_u=1.0)
        rng = np.random.default_rng(23)
        for _ in range(5):
            sources = [
                (tuple(rng.integers(-2, 3, size=3)), float(rng.normal(scale=0.8)))
                for _ in range(3)
            ]
            value = gaussian_generating_function(spec, sources)
            ceiling = generating_function_bound(spec, sources)
            assert value <= ceiling

    def test_bound_formula(self):
        spec = ScalarSpec(d=4, a=1.0, m_u=1.0, kappa_u=1.0)
        sources = [((0, 0, 0, 0), 0.5), ((1, 0, 0, 0), -0.25)]
        expected = math.exp(coincident_bound_constant(4) * 2 * (0.5**2 + 0.25**2))
        assert generating_function_bound(spec, sources) == pytest.approx(expected, rel=1e-12)

    def test_bound_unavailable_d2(self):
        with pytest.raises(InfraredDivergent):
            generating_function_bound(
                ScalarSpec(d=2, a=1.0, m_u=1.0, kappa_u=1.0), [((0, 0), 1.0)]
            )


class TestFiniteLattice:
    """Spectral cross-check on an 8x8 free-boundary lattice at d=2.

    Builds the quadratic-form kernel M explicitly, inverts it by
    eigendecomposition, and compares the center of the box against the
    infinite-volume integral representation.
    """

    L = 8

    def build_kernel(self, spec):
        L = self.L
        n_sites = L * L
        index = lambda i, j: i * L + j
        kernel = np.zeros((n_sites, n_sites))
        hop = 0.5 * spec.kappa_u**2 * spec.a ** (spec.d - 2)
        for i in range(L):
            for j in range(L):
                s = index(i, j)
                kernel[s, s] += 0.5 * spec.m_u**2 * spec.a**spec.d
                for di, dj in ((1, 0), (0, 1)):
                    ii, jj = i + di, j + dj
                    if ii < L and jj < L:
                        t = index(ii, jj)
                        kernel[s, s] += hop
                        kernel[t, t] += hop
                        kernel[s, t] -= hop
                        kernel[t, s] -= hop
        return kernel

    def test_kernel_reproduces_action(self):
        spec = ScalarSpec(d=2, a=0.5, m_u=1.5, kappa_u=0.8)
        kernel = self.build_kernel(spec)
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(self.L, self.L))
        grad_sq = 0.0
        for axis in range(2):
            diff = np.diff(phi, axis=axis)
            grad_sq += np.sum(diff**2)
        action = (
            0.5 * spec.kappa_u**2 * spec.a ** (spec.d - 2) * grad_sq
            + 0.5 * spec.m_u**2 * spec.a**spec.d * np.sum(phi**2)
        )
        quad_form = phi.ravel() @ kernel @ phi.ravel()
        assert quad_form == pytest.approx(action, rel=1e-12)

    def test_spectral_inverse_matches_infinite_volume(self):
        spec = ScalarSpec(d=2, a=1.0, m_u=1.0, kappa_u=1.0)
        kernel = self.build_kernel(spec)
        eigenvalues, eigenvectors = np.linalg.eigh(kernel)
        assert eigenvalues.min() > 0
        covariance = (eigenvectors / eigenvalues) @ eigenvectors.T / 2.0
        # reconstruction: 2 M C = identity
        identity = 2.0 * kernel @ covariance
        assert np.max(np.abs(identity - np.eye(kernel.shape[0]))) < 1e-10
        center = (self.L // 2) * self.L + self.L // 2
        neighbor = center + 1
        infinite_coincident = scaled_propagator(spec, (0, 0)) / spec.s2
        infinite_neighbor = scaled_propagator(spec, (1, 0)) / spec.s2
        assert covariance[center, center] == pytest.approx(infinite_coincident, rel=0.05)
        assert covariance[center, neighbor] == pytest.approx(infinite_neighbor, rel=0.05)
