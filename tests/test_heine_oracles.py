"""The Heine-determinant route against independent oracles.

* mpmath: U(N) Wilson integral as the Bessel-Toeplitz determinant
  e^{-2 N beta} det[I_{j-k}(2 beta)], ranks 4..8, up to beta = 2.6e5;
* the tensor-grid oracle of conftest.py (ranks <= 3): every single-bond
  integrand, the moment series and the ensemble integrals (Mehta's
  closed form for I_2(inf) and I_4(inf) at ranks 1..8 is in
  test_quadrature.py);
* the Wick values of the Gaussian limit of the plaquette moments, ranks 1..8.
"""

import math

import mpmath
import numpy as np
import pytest

from latticeym.factorized import plaquette_moment
from latticeym.groups import GroupSpec
from latticeym.quadrature import QuadratureSpec, i_beta
from latticeym.single_bond import (CouplingSpec, _quadratic_scale, _wilson_scale,
                                   quadratic_weight, wilson_weight, z_lower, z_upper,
                                   z_upper_source_envelope)

from conftest import product_of, tensor_ensemble, tensor_weyl, z_upper_source

QUAD = QuadratureSpec()


def bessel_toeplitz(n, beta, digits=50):
    """e^{-2 n beta} det[I_{j-k}(2 beta)] carried to `digits` significant digits.

    The determinant is about beta^(-n^2/2) times the n-th power of its
    entries, so the working precision adds the digits lost to cancellation.
    """
    lost = 0.5 * n * n * math.log10(max(beta, 1.0)) + n
    with mpmath.workdps(digits + int(lost)):
        x = mpmath.mpf(2 * beta)
        scaled = [mpmath.besseli(k, x) * mpmath.exp(-x) for k in range(n)]
        mat = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                mat[j, k] = scaled[abs(j - k)]
        return mpmath.det(mat)


def _coupling(beta):
    return CouplingSpec(d=4, a=1.0, g2=1.0 / beta)


@pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 1e2, 1e4, 2.6e5])
@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_z_upper_bessel_toeplitz_mpmath(n, beta):
    value = z_upper(_coupling(beta), GroupSpec(n), QUAD)
    oracle = bessel_toeplitz(n, beta)
    assert abs(value / float(oracle) - 1.0) <= 1e-12


BETAS = [0.5, 4.0, 1e4]


def _oracle_points(n):
    # 64 points per panel keeps the rank-3 grid at most 128^3 nodes; both
    # rules are converged far below the tolerances used here.
    return 64 if n == 3 else 96


def _wilson_rule(beta, n):
    scale, cutoff = _wilson_scale(beta)
    return {"scale": scale, "cutoff": cutoff, "split_origin": scale > 1.0,
            "points": _oracle_points(n)}


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_single_bond_integrals_match_tensor_oracle(n, beta):
    group = GroupSpec(n)
    cp = CouplingSpec(d=3, a=1.0, g2=1.0 / beta)
    zu = tensor_weyl(product_of(wilson_weight(beta)), n, **_wilson_rule(beta, n))
    assert z_upper(cp, group, QUAD) == pytest.approx(zu, rel=1e-12)
    scale, cutoff = _quadratic_scale(beta, 3, group)
    zl = tensor_weyl(product_of(quadratic_weight(beta, 3, group)), n, scale=scale,
                     cutoff=cutoff, split_origin=scale > 1.0, points=_oracle_points(n))
    assert z_lower(cp, group, QUAD) == pytest.approx(zl, rel=1e-12)


@pytest.mark.parametrize("j", [0.3 + 0.4j, -1.2 + 0.5j, 2.0j])
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_source_integrals_match_tensor_oracle(n, beta, j):
    group = GroupSpec(n)
    cp = CouplingSpec(d=3, a=1.0, g2=1.0 / beta)
    rule = _wilson_rule(beta, n)
    if rule["cutoff"] is not None:
        rule["cutoff"] += abs(j)
    root = math.sqrt(beta)

    def source(lam):
        return np.exp(j * root * np.sin(lam) - 4.0 * beta * np.sin(0.5 * lam) ** 2)

    def envelope(lam):
        return np.exp(abs(j) * root * np.abs(np.sin(lam))
                      - 4.0 * beta * np.sin(0.5 * lam) ** 2)

    z = z_upper_source(j, cp, group, QUAD)
    assert abs(z - tensor_weyl(product_of(source), n, **rule)) <= 1e-12 * abs(z)
    rule["split_origin"] = True
    env = tensor_weyl(product_of(envelope), n, **rule)
    assert z_upper_source_envelope(j, cp, group, QUAD) == pytest.approx(env, rel=1e-12)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_plaquette_moments_match_tensor_oracle(n, beta):
    group = GroupSpec(n)
    cp = CouplingSpec(d=3, a=1.0, g2=1.0 / beta)
    rule = _wilson_rule(beta, n)
    weight = product_of(wilson_weight(beta))
    root = math.sqrt(beta)
    den = tensor_weyl(weight, n, **rule)
    values = {}
    for alpha in (1, 2, 3, 4):
        num = tensor_weyl(lambda lam: (root * np.sin(lam).sum(axis=-1)) ** alpha
                          * weight(lam), n, **rule)
        values[alpha] = (plaquette_moment(alpha, cp, group, QUAD)[0], num / den)
    # Odd moments vanish; they are held to the size of the even ones.
    size = max(1.0, values[4][1])
    for alpha, (value, oracle) in values.items():
        assert abs(value - oracle) <= 1e-12 * max(size, abs(oracle)), alpha


@pytest.mark.parametrize("u", [0.5, 1.5, np.inf])
@pytest.mark.parametrize("beta", [2, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_i_beta_matches_tensor_oracle(n, beta, u):
    value = i_beta(beta, u, GroupSpec(n), QUAD)
    assert value == pytest.approx(tensor_ensemble(beta, u, n), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_gaussianity_report_wick_values(n):
    # At beta = 1e10 the 1/beta corrections are ~1e-8 relative at rank 8.
    coupling = CouplingSpec(d=4, a=1.0, g2=1e-10)
    t2, t4 = (plaquette_moment(k, coupling, GroupSpec(n), QUAD)[0] for k in (2, 4))
    assert t2 == pytest.approx(n / 2.0, rel=1e-8)
    assert t4 == pytest.approx(3.0 * (n / 2.0) ** 2, rel=1e-8)
    assert abs(t4 - 3.0 * t2**2) <= 1e-8 * (3.0 * (n / 2.0) ** 2)
