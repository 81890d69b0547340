"""Exactly solvable factorized model: counts, free energies, moments.

Setting the interior horizontal plaquette couplings to zero lets every bond
integral be done in closed form, so the partition function collapses to a
power of the single-bond integral, Z^n = z_n^R with R the number of retained
(non-gauge-fixed) bonds.  Everything here is a consequence of that one
identity: bond counts, normalized free energies and coincident-point
moments of the scaled plaquette field.  The d = 2 values double as exact
references for the Monte Carlo modules, where no approximation is involved.

Conventions.  The rank-1 free energy follows the scaled-coordinate Lebesgue
normalization (its continuum limit is log sqrt(pi)); ranks >= 2 use the
Haar-normalized form, whose limit is the Gaussian-ensemble mass
N_G / N_C.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLattice
from .groups import GroupSpec
from .quadrature import QuadratureSpec, weyl_moments
from .single_bond import CouplingSpec, _wilson_scale, wilson_weight


@dataclass(frozen=True)
class LatticeCounts:
    """Object counts of a d-dimensional hypercubic lattice with L^d sites."""

    sites: int
    bonds: int
    extra_bonds: int
    retained_bonds: int
    plaquettes: int


def lattice_counts(d: int, L: int) -> LatticeCounts:
    """Closed-form counts for free boundary conditions.

    `bonds` counts nearest-neighbour pairs, `extra_bonds` the wrap-around
    bonds added by periodic closure, `retained_bonds` the bonds left after
    fixing a maximal tree (all temporal bonds plus a boundary comb), and
    `plaquettes` the unit squares.  A spanning tree of the L**d sites has
    L**d - 1 bonds, so retained_bonds = bonds - (L**d - 1).
    """
    if d not in (2, 3, 4):
        raise InvalidLattice(f"d must be 2, 3 or 4, got {d}")
    if L < 2 or L % 2 != 0:
        raise InvalidLattice(f"side length must be even and >= 2, got L = {L}")
    sites = L**d
    bonds = d * (L - 1) * L ** (d - 1)
    extra = d * L ** (d - 1)
    retained = bonds - (sites - 1)
    plaquettes = (d * (d - 1) // 2) * (L - 1) ** 2 * L ** (d - 2)
    return LatticeCounts(sites=sites, bonds=bonds, extra_bonds=extra,
                         retained_bonds=retained, plaquettes=plaquettes)


def normalized_free_energy(log_zeta: float, group: GroupSpec) -> float:
    """Free energy per retained bond from ln zeta_u (`log_zeta_upper`).

    Independent of the lattice size.  For rank 1 the single-bond integral is
    taken with the plain Lebesgue measure on the scaled coordinate (an extra
    2 pi relative to the Haar form), so that the d = 2, 3 continuum limit is
    log sqrt(pi).
    """
    return log_zeta + float(np.log(2.0 * np.pi)) if group.n == 1 else log_zeta


def plaquette_moment(alpha: int, coupling: CouplingSpec, group: GroupSpec,
                     quad: QuadratureSpec):
    """(<(tr M)^alpha>, |fine - coarse|): coincident moment of the scaled plaquette field.

    Single-bond ratio
        int [sqrt(beta) sum_j sin lam_j]^alpha exp(-2 beta sum_j (1-cos lam_j)) rho
      / int exp(-2 beta sum_j (1-cos lam_j)) rho,
    read off the Taylor series of the source integral in its strength (see
    `weyl_moments`).  Odd moments vanish by lam -> -lam symmetry (the series
    returns the rounding-level remnant rather than short-circuiting).
    """
    if alpha < 1:
        raise ValueError(f"moment order must be >= 1, got {alpha}")
    beta = coupling.beta
    scale, cutoff = _wilson_scale(beta)
    root_beta = np.sqrt(beta)
    moments, errors = weyl_moments(wilson_weight(beta),
                                   lambda lam: root_beta * np.sin(lam), alpha,
                                   group, quad, scale=scale, cutoff=cutoff)
    return float(moments[alpha]), float(errors[alpha])


def gue_moment(alpha: int, group: GroupSpec) -> float:
    """Closed form for the zero-coupling limit T_alpha of <(tr M)^alpha>.

    In the limit the eigenvalue sum becomes the trace of a Gaussian Hermitian
    matrix, a centered Gaussian of variance n/2, so even moments follow the
    Wick chain (alpha-1)!! (n/2)^(alpha/2) and odd moments are zero.
    """
    if alpha % 2 == 1:
        return 0.0
    double_fact = 1.0
    for k in range(alpha - 1, 0, -2):
        double_fact *= k
    return double_fact * (group.n / 2.0) ** (alpha / 2.0)

