import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from latticeym.errors import ResolutionTooLow
from latticeym.groups import GroupSpec
from latticeym.quadrature import (EnsembleConstants, QuadratureSpec, _gaussian_moments,
                                  ensemble_constants, i_beta, weyl_integrate, weyl_moments)

from conftest import flat_vandermonde, tensor_weyl, vandermonde_density


def mehta_integral(n, beta):
    """Independent oracle: Gamma-product closed form of the ensemble integral."""
    log = (0.5 * n * np.log(2.0 * np.pi)
           + (-0.5 * n - 0.25 * beta * n * (n - 1)) * np.log(beta))
    for j in range(1, n + 1):
        log += gammaln(1.0 + 0.5 * beta * j) - gammaln(1.0 + 0.5 * beta)
    return float(np.exp(log))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalization(n, quad):
    value = weyl_integrate(lambda lam: np.ones(lam.shape[0]), GroupSpec(n), quad)[0]
    assert value == pytest.approx(1.0, abs=1e-12)


def test_ensemble_constants_small_rank_values():
    c1 = ensemble_constants(GroupSpec(1))
    assert c1.cue == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert c1.gue == pytest.approx(np.sqrt(np.pi), rel=1e-15)
    assert c1.gse == pytest.approx(np.sqrt(2.0 * np.pi) / 2.0, rel=1e-15)
    c2 = ensemble_constants(GroupSpec(2))
    assert c2.cue == pytest.approx((2.0 * np.pi) ** 2 * 2.0, rel=1e-15)
    assert c2.gue == pytest.approx(np.pi, rel=1e-15)


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("u", [1e-3, 0.5, 1.0, 3.0, 30.0, 1e150, np.inf])
def test_gaussian_moments_match_mpmath(rate, u):
    # q = 0..14 covers the 2 * 8 - 1 moments of I_4 at rank 8; at u = 1e150
    # the rate u^2 is 1e300 or 2e300, and P = 1 must come out of the logarithms
    got = _gaussian_moments(15, rate, u)
    with mpmath.workdps(40):
        for q, value in enumerate(got):
            a = mpmath.mpf(q) + mpmath.mpf(1) / 2
            expected = mpmath.gammainc(a, 0, rate * mpmath.mpf(u) ** 2) / mpmath.mpf(rate) ** a
            assert abs(value / expected - 1) <= 1e-13, (q, value, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_ensemble_constants_match_gamma_oracle(n):
    c = ensemble_constants(GroupSpec(n))
    assert c.gue == pytest.approx(mehta_integral(n, 2), rel=1e-12)
    assert c.gse == pytest.approx(mehta_integral(n, 4), rel=1e-12)
    assert np.isfinite([c.cue, c.gue, c.gse]).all()
    assert min(c.cue, c.gue, c.gse) > 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_improper_ensemble_integrals(n, quad):
    g = GroupSpec(n)
    c = ensemble_constants(g)
    assert i_beta(2, np.inf, g, quad) == pytest.approx(mehta_integral(n, 2), rel=1e-10)
    assert i_beta(4, np.inf, g, quad) == pytest.approx(mehta_integral(n, 4), rel=1e-10)
    assert i_beta(2, np.inf, g, quad) == pytest.approx(c.gue, rel=1e-10)
    assert i_beta(4, np.inf, g, quad) == pytest.approx(c.gse, rel=1e-10)


def test_i_beta_finite_u_monotone(quad):
    g = GroupSpec(2)
    values = [i_beta(2, u, g, quad) for u in (0.5, 1.0, 2.0, np.inf)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        i_beta(3, 1.0, g, quad)
    with pytest.raises(ValueError):
        i_beta(2, 0.0, g, quad)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_vandermonde_sandwich(n, seed):
    lam = np.random.default_rng(seed).uniform(-np.pi / 2, np.pi / 2, size=(50, n))
    rho = vandermonde_density(lam)
    flat = flat_vandermonde(lam)
    pairs = n * (n - 1) // 2
    assert np.all(rho <= flat * (1 + 1e-12) + 1e-300)
    assert np.all(rho >= (4.0 / np.pi**2) ** pairs * flat * (1 - 1e-12))


def test_vandermonde_small_angle_limit():
    lam = 1e-4 * np.array([[0.3, -0.2, 0.15]])
    ratio = vandermonde_density(lam) / flat_vandermonde(lam)
    assert ratio == pytest.approx(1.0, abs=1e-7)


def test_cue_character_moments(quad):
    # First two moments of Tr U under Haar: 0 and 1 for every rank.  Tr U is
    # not a product over the angles: the tensor-grid oracle takes ranks <= 3,
    # and the moment route (source s = e^{i lam}, flat weight) every rank.
    for n in (1, 2, 3):
        m1 = tensor_weyl(lambda lam: np.sum(np.exp(1j * lam), axis=-1), n)
        m2 = tensor_weyl(lambda lam: np.abs(np.sum(np.exp(1j * lam), axis=-1)) ** 2, n)
        assert abs(m1) < 1e-12
        assert m2 == pytest.approx(1.0, abs=1e-10)
    for n in range(1, 9):
        # <(Tr U)^k> vanishes for k >= 1: Haar is invariant under U -> e^{i t} U.
        moments = weyl_moments(np.ones_like, lambda lam: np.exp(1j * lam), 3,
                               GroupSpec(n), quad)[0]
        assert moments[0] == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(moments[1:])) < 1e-12
        # <(2 Re Tr U)^2> = <(Tr U)^2> + 2 <|Tr U|^2> + <(Tr U^dag)^2> = 2.
        m2 = weyl_moments(np.ones_like, lambda lam: 2.0 * np.cos(lam), 2,
                          GroupSpec(n), quad)[0][2]
        assert m2 == pytest.approx(2.0, abs=1e-12)


def test_monte_carlo_agrees_with_tensor(quad):
    # Haar average of exp(Re Tr U) = prod_j e^{cos lam_j}.
    g = GroupSpec(2)
    exact = weyl_integrate(lambda lam: np.exp(np.cos(lam)), g, quad)[0]
    assert exact == pytest.approx(
        tensor_weyl(lambda lam: np.exp(np.cos(lam).sum(axis=-1)), 2), rel=1e-12)


def test_resolution_check_fires():
    # A Gaussian of width ~0.15 is visible on the 16-point rule but not
    # converged against the 10-point companion.
    g = GroupSpec(1)
    spiky = QuadratureSpec(points=16)
    with pytest.raises(ResolutionTooLow):
        weyl_integrate(lambda lam: np.exp(-50.0 * lam**2), g, spiky)
    with pytest.raises(ResolutionTooLow):
        weyl_moments(lambda lam: np.exp(-50.0 * lam**2), np.sin, 2, g, spiky)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_ranks_five_to_eight_run(n, quad):
    # The Heine route has no rank cap below the schema's maximum of 8.
    value = weyl_integrate(lambda lam: np.ones(lam.shape[0]), GroupSpec(n), quad)[0]
    assert value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError, match="^points: "):
        QuadratureSpec(points=2)
    # The rule is the only route: no method, sample count or seed to set.
    fields = [f.name for f in dataclasses.fields(QuadratureSpec)]
    assert fields == ["points"]
    assert QuadratureSpec.method == "tensor"
    with pytest.raises(TypeError):
        QuadratureSpec(method="monte-carlo")


def test_scaled_coordinates_match_plain(quad):
    # The same smooth integrand through scale=1 and a concentrated rewrite,
    # which returns scale**(n^2) times the Haar average.
    g = GroupSpec(2)

    def w(lam):
        return np.exp(-40.0 * np.sin(0.5 * lam) ** 2)

    plain = weyl_integrate(w, g, quad)[0]
    scaled = weyl_integrate(w, g, quad, scale=np.sqrt(10.0), cutoff=10.0)[0]
    assert scaled == pytest.approx(10 ** (g.n * g.n / 2) * plain, rel=1e-12)
