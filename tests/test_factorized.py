"""Tests for the exactly solvable factorized model.

Counting identities are checked against hand enumerations, the partition
function against the rank-1 Bessel closed form, and the continuum limits
against their Gaussian-ensemble values.  Everything runs on tensor-product
quadrature; no Monte Carlo here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeym.errors import InvalidLattice
from latticeym.factorized import (LatticeCounts, lattice_counts, normalized_free_energy,
                                  plaquette_moment)
from latticeym.groups import GroupSpec
from latticeym.lattice import build_geometry
from latticeym.quadrature import QuadratureSpec
from latticeym.single_bond import CouplingSpec, bound_constants, log_zeta_upper

# Single-bond values frozen from the Bessel-series checks in
# test_single_bond.py; reused here as the factorization anchor.
Z_N1_D2_BETA1 = 0.308508322553671

# log(2 pi exp(-2) I0(2)): rank-1 free energy at beta = 1 in the Lebesgue
# normalization.
FREE_ENERGY_N1_BETA1 = 0.6618706078923018

LOG_SQRT_PI = 0.5723649429247001

# Continuum limit for rank 2 is log(N_G / N_C) = -log(8 pi).
LOG_G_INF_N2 = -3.224171427529236

# I1(2) / (2 I0(2)): second moment of the scaled plaquette field at beta = 1.
M2_BETA1 = 0.348887328982004


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


def test_counts_d2_l4():
    c = lattice_counts(2, 4)
    assert c == LatticeCounts(sites=16, bonds=24, extra_bonds=8,
                              retained_bonds=9, plaquettes=9)


def test_counts_d3_l4():
    c = lattice_counts(3, 4)
    assert (c.sites, c.bonds, c.retained_bonds) == (64, 144, 81)
    assert c.extra_bonds == 48
    assert c.plaquettes == 108


def test_counts_d4_l4():
    c = lattice_counts(4, 4)
    assert (c.bonds, c.retained_bonds, c.plaquettes) == (768, 513, 864)


@given(d=st.sampled_from([2, 3, 4]), half=st.integers(min_value=1, max_value=6))
def test_tree_identity(d, half):
    # Fixing a maximal tree removes exactly sites - 1 bonds.
    L = 2 * half
    c = lattice_counts(d, L)
    assert c.bonds - c.retained_bonds == c.sites - 1
    assert c.extra_bonds == d * L ** (d - 1)


@pytest.mark.parametrize("d,L", [(2, 3), (3, 5), (2, 1), (4, 0), (5, 4), (1, 4)])
def test_counts_rejects_bad_shapes(d, L):
    with pytest.raises(InvalidLattice):
        lattice_counts(d, L)


# ---------------------------------------------------------------------------
# log-partition function and free energy
# ---------------------------------------------------------------------------


def spacing_walk(value, d, k_max):
    """value(coupling) along the spacing sequence a_k = 2**-k, k = 0..k_max, at g2 = 1."""
    return np.array([value(CouplingSpec(d=d, a=2.0**-k, g2=1.0)) for k in range(k_max + 1)])


def cauchy_ok(values, tolerance):
    """Consecutive differences fall below `tolerance` without growing at the tail."""
    deltas = np.abs(np.diff(values))
    return bool(deltas[-1] < tolerance and np.all(np.diff(deltas[-3:]) <= tolerance))


def test_log_partition_matches_bessel_power(quad):
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    value = lattice_counts(2, 4).retained_bonds * log_zeta_upper(cp, GroupSpec(1), quad)[0]
    assert value == pytest.approx(9 * np.log(Z_N1_D2_BETA1), rel=1e-10)


def test_log_partition_scales_with_retained_bonds():
    # At d = 2 with free boundaries the gauge-fixed bonds are one per
    # plaquette, so ln Z = R ln z exactly at every L, not only at C06's L = 4.
    for L in (2, 4, 6):
        counts = lattice_counts(2, L)
        geom = build_geometry(2, L, "free")
        assert counts.retained_bonds == counts.plaquettes == geom.n_plaquettes
        assert np.count_nonzero(~geom.fixed_mask) == counts.retained_bonds


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_log_partition_between_stability_bounds(n, d, quad):
    # R * c_lower <= log Z^n <= R * c_upper for every spacing.
    group = GroupSpec(n)
    for a in (1.0, 0.25, 0.05):
        cp = CouplingSpec(d=d, a=a, g2=1.0, g0_sq=2.0)
        consts = bound_constants(cp, group, quad)
        r = lattice_counts(d, 4).retained_bonds
        value = r * log_zeta_upper(cp, group, quad)[0]
        assert r * consts.c_lower <= value <= r * consts.c_upper


def test_free_energy_rank1_beta1(quad):
    cp = CouplingSpec(d=4, a=1.0, g2=1.0)
    value = normalized_free_energy(log_zeta_upper(cp, GroupSpec(1), quad)[0], GroupSpec(1))
    assert value == pytest.approx(FREE_ENERGY_N1_BETA1, abs=1e-12)


def test_free_energy_limit_rank1_d3(quad):
    group = GroupSpec(1)
    values = spacing_walk(
        lambda cp: normalized_free_energy(log_zeta_upper(cp, group, quad)[0], group), 3, 10)
    assert cauchy_ok(values, 2e-4)
    assert values[-1] == pytest.approx(LOG_SQRT_PI, abs=2e-4)
    # monotone approach from above (corrections are O(1/beta) > 0)
    assert np.all(np.diff(values) < 0)


def test_free_energy_limit_rank2_d3(quad):
    group = GroupSpec(2)
    values = spacing_walk(
        lambda cp: normalized_free_energy(log_zeta_upper(cp, group, quad)[0], group), 3, 11)
    assert cauchy_ok(values, 1e-3)
    assert values[-1] == pytest.approx(LOG_G_INF_N2, abs=5e-4)


def test_free_energy_d4_spacing_invariant(quad):
    # At d = 4 the normalized coupling is spacing-independent, bitwise.
    values = [
        normalized_free_energy(
            log_zeta_upper(CouplingSpec(d=4, a=a, g2=1.0), GroupSpec(1), quad)[0], GroupSpec(1))
        for a in (1.0, 0.5, 0.1)
    ]
    assert values[0] == values[1] == values[2]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_second_moment_beta1(quad):
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    assert plaquette_moment(2, cp, GroupSpec(1), quad)[0] == pytest.approx(
        M2_BETA1, rel=1e-10)


@pytest.mark.parametrize("alpha", [1, 3])
def test_odd_moments_vanish(alpha, quad):
    cp = CouplingSpec(d=3, a=0.5, g2=0.7)
    for n in (1, 2):
        assert abs(plaquette_moment(alpha, cp, GroupSpec(n), quad)[0]) < 1e-10


def test_moment_rejects_bad_order(quad):
    with pytest.raises(ValueError):
        plaquette_moment(0, CouplingSpec(d=2, a=1.0, g2=1.0), GroupSpec(1), quad)


def test_second_moment_limit_d2(quad):
    values = spacing_walk(lambda cp: plaquette_moment(2, cp, GroupSpec(1), quad)[0], 2, 9)
    assert cauchy_ok(values, 2e-6)
    assert values[-1] == pytest.approx(0.5, abs=1e-6)


def test_fourth_moment_u2_weak_coupling(quad):
    cp = CouplingSpec(d=4, a=1.0, g2=1e-10)
    group = GroupSpec(2)
    t2 = plaquette_moment(2, cp, group, quad)[0]
    t4 = plaquette_moment(4, cp, group, quad)[0]
    assert t2 == pytest.approx(1.0, abs=1e-6)
    assert t4 == pytest.approx(3.0, abs=1e-6)
    assert t4 - 3 * t2**2 == pytest.approx(0.0, abs=1e-8)


def physical_coincident_moment(alpha, coupling, group, quad):
    """a**(-d alpha / 2) <(tr M)^alpha>: the unscaled-field moment.

    The spacing dependence is exactly the prefactor; the scaled moment is
    bounded uniformly in a, so coincident correlations blow up as a**-d for
    alpha = 2 and no faster.
    """
    return coupling.a ** (-coupling.d * alpha / 2.0) * plaquette_moment(
        alpha, coupling, group, quad)[0]


def test_physical_moment_small_coupling(quad):
    # a^-d <(tr M)^2> -> 1 / (2 a^2) in d = 2 as g -> 0.
    cp = CouplingSpec(d=2, a=0.5, g2=1e-6)
    value = physical_coincident_moment(2, cp, GroupSpec(1), quad)
    assert value == pytest.approx(2.0, abs=1e-5)


def test_physical_moment_d4_spacing_invariant(quad):
    values = [
        physical_coincident_moment(2, CouplingSpec(d=4, a=a, g2=1.0),
                                   GroupSpec(1), quad) * a**4
        for a in (1.0, 0.5, 0.1)
    ]
    assert np.ptp(values) < 1e-12


def test_scaled_moment_bounded_in_spacing(quad):
    # The scaled second moment stays within the zero- and infinite-coupling
    # brackets (0, n/2] on the whole spacing range.
    group = GroupSpec(2)
    for a in (1.0, 0.5, 0.1, 0.01):
        m2 = plaquette_moment(2, CouplingSpec(d=3, a=a, g2=1.0), group, quad)[0]
        assert 0.0 < m2 <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Gaussian limit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 4), (3, 4)])
def test_gaussianity_report(n, d, quad):
    # beta ~ 1e10 makes the 1/beta corrections to the Gaussian limit ~1e-11.
    a, g2 = (1.0, 1e-10) if d == 4 else ((1e10) ** (-1.0 / (4 - d)), 1.0)
    group, coupling = GroupSpec(n), CouplingSpec(d=d, a=a, g2=g2)
    t2, t4 = (plaquette_moment(k, coupling, group, quad)[0] for k in (2, 4))
    # In the limit tr M is a centred Gaussian of variance n/2 (the trace of
    # a GUE matrix), so T_2 = n/2 and T_4 = 3 (n/2)^2 by Wick's theorem.
    assert t2 == pytest.approx(n / 2, abs=1e-6)
    assert t4 == pytest.approx(3 * (n / 2) ** 2, abs=2e-6)
    assert np.isfinite(t4 - 3.0 * t2**2)
    assert abs(t4 - 3.0 * t2**2) < 1e-6
