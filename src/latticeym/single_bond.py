"""Single-bond partition functions and the constants sandwiching them.

After gauge fixing, the partition function of the free-boundary model in
d = 2 (and its solvable approximation in general d) factorizes into powers of
a one-matrix integral.  Two such integrals matter here:

* z_upper: Haar average of the Wilson weight exp(-2 beta sum_j (1 - cos lam_j)),
  an upper-bound factor for the full model;
* z_lower: Haar average of the quadratic weight
  exp(-2 C^2 (d-1) beta sum_j lam_j^2) with C^2 = 4n, a lower-bound factor.

Both scale as beta^(-n^2/2) for small lattice spacing; the extracted products
zeta = beta^(n^2/2) z stay between exp(c_lower) and exp(c_upper), with the
constants assembled in `bound_constants`.  The modulus envelope of a
source-deformed z_upper feeds the generating-function bounds.  Every integral
is read as (ln zeta, relative two-resolution error) from `log_zeta_*`, and
`log_z` gives ln z = ln zeta - (n^2/2) ln beta, finite where z underflows.
"""

from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec
from .quadrature import QuadratureSpec, ensemble_constants, i_beta, weyl_integrate

# Truncation radii in concentrated coordinates y = sqrt(beta) lam.  The
# Wilson action obeys action >= (4/pi^2) y^2 wherever truncation is active,
# so beyond |y| = 10 the weight is below exp(-40); the quadratic action is
# exactly y^2 there, giving exp(-64) beyond |y| = 8.  Both tails sit far
# under every tolerance used in this package.
_WILSON_CUTOFF = 10.0
_QUADRATIC_CUTOFF = 8.0


@dataclass(frozen=True)
class CouplingSpec:
    """Dimension, lattice spacing and coupling of one lattice model.

    beta = a**(d-4) / g2 is the single scalar the integrals depend on; for
    d = 4 it is exactly independent of the spacing.
    """

    d: int
    a: float
    g2: float
    g0_sq: float | None = None

    def __post_init__(self):
        if self.d not in (2, 3, 4):
            raise ValueError(f"d must be 2, 3 or 4, got {self.d}")
        if not 0.0 < self.a <= 1.0:
            raise ValueError(f"lattice spacing must lie in (0, 1], got {self.a}")
        if self.g2 <= 0.0:
            raise ValueError(f"coupling g2 must be positive, got {self.g2}")
        if self.g0_sq is None:
            object.__setattr__(self, "g0_sq", self.g2)
        if self.g2 > self.g0_sq:
            raise ValueError(f"g2 = {self.g2} exceeds its ceiling g0_sq = {self.g0_sq}")

    @property
    def beta(self) -> float:
        return self.a ** (self.d - 4) / self.g2


def wilson_weight(beta: float):
    """One-angle Wilson weight exp(-2 beta (1 - cos lam)), in sin^2 form.

    Cancellation-free for small angles; its product over the eigenvalue
    angles is the single-bond Wilson weight.
    """

    def w(lam):
        return np.exp(-4.0 * beta * np.sin(0.5 * lam) ** 2)

    return w


def quadratic_rate(n: int, d: int) -> int:
    """The exact integer 2 C^2 (d-1), C^2 = 4n: the quadratic weight's rate per unit beta."""
    return 2 * 4 * n * (d - 1)


def quadratic_weight(beta: float, d: int, group: GroupSpec):
    """One-angle quadratic weight exp(-2 C^2 (d-1) beta lam^2) with C^2 = 4n."""
    rate = quadratic_rate(group.n, d) * beta

    def w(lam):
        return np.exp(-rate * lam * lam)

    return w


def _rule(rate: float, cutoff: float) -> tuple[float, float | None]:
    """Rule scale and cutoff of a weight concentrating as exp(-rate lam^2)."""
    if rate <= 1.0:
        return 1.0, None
    return np.sqrt(rate), cutoff


def _wilson_scale(beta: float, reach: float = 0.0) -> tuple[float, float | None]:
    """Rule scale and cutoff; a source of modulus `reach` widens the cutoff."""
    return _rule(beta, _WILSON_CUTOFF + reach)


def _quadratic_scale(beta: float, d: int, group: GroupSpec) -> tuple[float, float | None]:
    return _rule(quadratic_rate(group.n, d) * beta, _QUADRATIC_CUTOFF)


def _bond_integral(w, rule, coupling, group, quad):
    """(ln zeta, relative two-resolution error) of zeta = beta**(n^2/2) <prod_j w(lam_j)>.

    weyl_integrate gives scale**(n^2) <prod w> under rule = (scale, cutoff); one
    logarithmic term turns it into ln zeta, and |fine - coarse| / fine carries
    the two-resolution error to it.
    """
    scale, cutoff = rule
    value, error = weyl_integrate(w, group, quad, scale=scale, cutoff=cutoff)
    log_zeta = np.log(value) + 0.5 * group.dim * np.log(coupling.beta / scale**2)
    return float(log_zeta), float(error / value)


def log_zeta_upper(coupling: CouplingSpec, group: GroupSpec, quad: QuadratureSpec):
    """(ln zeta_u, relative error) of the Wilson-weight integral z_upper."""
    return _bond_integral(wilson_weight(coupling.beta), _wilson_scale(coupling.beta),
                          coupling, group, quad)


def log_zeta_lower(coupling: CouplingSpec, group: GroupSpec, quad: QuadratureSpec):
    """(ln zeta_l, relative error) of the quadratic-weight integral z_lower."""
    return _bond_integral(quadratic_weight(coupling.beta, coupling.d, group),
                          _quadratic_scale(coupling.beta, coupling.d, group),
                          coupling, group, quad)


def log_zeta_envelope(j: complex, coupling: CouplingSpec, group: GroupSpec,
                      quad: QuadratureSpec):
    """(ln zeta, relative error) of the modulus envelope of the source integral.

    The one-angle weight is exp(|j| sqrt(beta) |sin lam| - 2 beta (1 - cos lam)).
    By the triangle inequality it dominates the modulus of the Haar average
    of exp(j sqrt(beta) Im Tr U - 2 beta sum (1 - cos lam)), the
    source-deformed z_upper, which is what the generating-function bound
    controls.  The kink at lam = 0 in each angle sits where every rule splits.
    """
    mod_j = abs(complex(j))
    beta = coupling.beta
    root_beta = np.sqrt(beta)

    def w(lam):
        return np.exp(mod_j * root_beta * np.abs(np.sin(lam))
                      - 4.0 * beta * np.sin(0.5 * lam) ** 2)

    return _bond_integral(w, _wilson_scale(beta, mod_j), coupling, group, quad)


def log_z(log_zeta: float, coupling: CouplingSpec, group: GroupSpec) -> float:
    """ln z = ln zeta - (n^2/2) ln beta, finite wherever ln zeta is."""
    return log_zeta - 0.5 * group.dim * float(np.log(coupling.beta))


def z_upper(coupling: CouplingSpec, group: GroupSpec, quad: QuadratureSpec) -> float:
    """Single-bond partition function with the Wilson weight."""
    return float(np.exp(log_z(log_zeta_upper(coupling, group, quad)[0], coupling, group)))


def z_lower(coupling: CouplingSpec, group: GroupSpec, quad: QuadratureSpec) -> float:
    """Single-bond partition function with the quadratic weight."""
    return float(np.exp(log_z(log_zeta_lower(coupling, group, quad)[0], coupling, group)))


def z_upper_source_envelope(j: complex, coupling: CouplingSpec, group: GroupSpec,
                            quad: QuadratureSpec) -> float:
    """Modulus envelope of the source integral (see `log_zeta_envelope`)."""
    return float(np.exp(log_z(log_zeta_envelope(j, coupling, group, quad)[0],
                              coupling, group)))


@dataclass(frozen=True)
class BoundConstants:
    """Logarithmic constants of the extracted-singularity sandwich.

    exp(c_lower) <= beta**(n^2/2) z <= exp(c_upper) for both single-bond
    integrals.
    """

    c_upper: float
    c_lower: float


def bound_constants(coupling: CouplingSpec, group: GroupSpec,
                    quad: QuadratureSpec) -> BoundConstants:
    n = group.n
    d = coupling.d
    consts = ensemble_constants(group)
    log_nc = np.log(consts.cue)
    c_upper = n * n * np.log(np.pi / 2.0) + np.log(consts.gue) - log_nc

    rate = quadratic_rate(n, d)
    u0 = 0.5 * np.pi * np.sqrt(rate) / np.sqrt(coupling.g0_sq)
    i_ell = i_beta(2, u0, group, quad)
    c_lower = (-log_nc
               + 0.5 * n * (n - 1) * np.log(4.0 / np.pi**2)
               - 0.5 * n * n * np.log(rate)
               + np.log(i_ell))
    return BoundConstants(c_upper=float(c_upper), c_lower=float(c_lower))
