"""Free lattice scalar field: propagators, derivative correlations, decay rates.

The unscaled field ``phi`` on the integer lattice (spacing ``a``, dimension
``d``) has Gaussian action

    A = (kappa_u^2 / 2) a^{d-2} sum_{x,mu} [phi(x+e_mu) - phi(x)]^2
        + (1/2) m_u^2 a^d sum_x phi(x)^2,

so the two-point function is half the inverse of the quadratic-form kernel.
Rescaling phi -> phi/s with s^2 = a^{d-2} (m_u^2 a^2 + 2 d kappa_u^2)
normalizes the on-site variance; the scaled covariance has the momentum
representation

    C(n) = (2 pi)^{-d} int_{(-pi,pi]^d} e^{i q.n} / (1 - 2 kappa^2 sum_mu cos q_mu) d^d q,

with the hopping weight kappa^2 = 1 / (2 d + r), r = (m_u a / kappa_u)^2.
Writing 1/(1 - x) = int_0^inf exp(-t (1 - x)) dt and integrating the momenta
exactly gives the equivalent Laplace representation

    C(n) = int_0^inf exp(-t r kappa^2) prod_mu ive(|n_mu|, 2 kappa^2 t) dt,

where ``ive`` is the exponentially scaled modified Bessel function.  The
Laplace form is the only route: it is exact for every mass (including
m_u = 0, d >= 3, where the momentum integrand has an integrable singularity
that defeats fixed-order quadrature).  Every covariance value -- a
propagator, the coincident constant, each point of a decay-fit window -- is
the integral of a Bessel product on [0, inf) by one fixed exp-sinh
(double-exponential) rule, evaluated as a single array expression on its
nodes and cached per separation; a derivative correlation is one such
integral of a four-term combination.  Each value carries the relative gap
between the rule at two steps, and a gap above 1e-10 raises.  The tensor
Gauss-Legendre evaluation of the momentum form is kept only as an
independent oracle for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfraredDivergent, RangeTooNoisy, ResolutionTooLow

__all__ = [
    "ScalarSpec",
    "scaled_propagator",
    "coincident_bound_constant",
    "derivative_correlation",
    "mass_gap",
    "mass_gap_formula",
    "DecayFit",
    "fit_decay_rate",
    "gaussian_generating_function",
    "generating_function_bound",
]

_DECAY_FLOOR = 1e-14
_FIT_POINTS = 12
_FIT_RESIDUAL = 1e-3

# Exp-sinh rule (Takahasi & Mori, Publ. RIMS 9, 721 (1974); Mori & Sugihara,
# J. Comput. Appl. Math. 127, 287 (2001)): t = T exp((pi/2) sinh u) on the
# trapezoid grid of step 1/64 over u in [-4.5, 4.5], 577 nodes, with weights
# dt/du times the step; T scales both.  Its even nodes are the same rule at
# step 1/32, whose value checks the step-1/64 one.  With steps 1/32 and 1/16
# instead, that check fails near the origin at small mass (d = 2, a = 0.01,
# m_u = 1, n = 0) and where a far, heavy separation makes the peak in ln t
# narrow (d = 2, a = 1, m_u = 3, n = (100, 0)).
_STEP = 1.0 / 64.0
_SPAN = 4.5
_TOLERANCE = 1e-10
_U = np.linspace(-_SPAN, _SPAN, round(2 * _SPAN / _STEP) + 1)
_NODES = np.exp(0.5 * np.pi * np.sinh(_U))
_WEIGHTS = _STEP * 0.5 * np.pi * np.cosh(_U) * _NODES
_HANKEL_Z = 1e8
_HANKEL_TERMS = 11


@dataclass(frozen=True)
class ScalarSpec:
    """Parameters of the free scalar field.

    Parameters
    ----------
    d : int
        Lattice dimension, one of 2, 3, 4.
    a : float
        Lattice spacing in (0, 1].
    m_u : float
        Unscaled mass, >= 0.
    kappa_u : float
        Unscaled hopping coefficient, > 0.
    """

    d: int
    a: float
    m_u: float
    kappa_u: float

    def __post_init__(self):
        if self.d not in (2, 3, 4):
            raise ValueError(f"dimension must be 2, 3 or 4, got {self.d}")
        if not (0.0 < self.a <= 1.0):
            raise ValueError(f"spacing must lie in (0, 1], got {self.a}")
        if not (self.m_u >= 0.0 and math.isfinite(self.m_u)):
            raise ValueError(f"mass must be finite and >= 0, got {self.m_u}")
        if not (self.kappa_u > 0.0 and math.isfinite(self.kappa_u)):
            raise ValueError(f"hopping coefficient must be > 0, got {self.kappa_u}")

    @property
    def r(self) -> float:
        """Squared mass-to-hopping ratio (m_u a / kappa_u)^2."""
        return (self.m_u * self.a / self.kappa_u) ** 2

    @property
    def s2(self) -> float:
        """Variance normalizer s^2 = a^{d-2} (m_u^2 a^2 + 2 d kappa_u^2)."""
        return self.a ** (self.d - 2) * (
            (self.m_u * self.a) ** 2 + 2.0 * self.d * self.kappa_u**2
        )

    @property
    def kappa2(self) -> float:
        """Scaled hopping weight kappa^2 = 1 / (2 d + r); note 1 - 2 d kappa^2 = r kappa^2."""
        return 1.0 / (2.0 * self.d + self.r)


def _separation(spec: ScalarSpec, x, y=None) -> tuple:
    """Integer separation x - y (or x itself when y is omitted)."""
    xs = tuple(x)
    if len(xs) != spec.d:
        raise ValueError(f"site has {len(xs)} components, expected {spec.d}")
    if y is not None:
        ys = tuple(y)
        if len(ys) != spec.d:
            raise ValueError(f"site has {len(ys)} components, expected {spec.d}")
        xs = tuple(a - b for a, b in zip(xs, ys))
    out = []
    for component in xs:
        value = int(round(component))
        if abs(component - value) > 1e-9:
            raise ValueError(f"lattice sites must have integer coordinates, got {component}")
        out.append(value)
    return tuple(out)


@lru_cache(maxsize=16)
def _gl_rule(points: int):
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return np.pi * nodes, np.pi * weights


def _momentum_value(kappa_sq: float, n: tuple, points: int) -> float:
    """Tensor Gauss-Legendre evaluation of the scaled momentum integral.

    No package route calls this; it is the tests' independent oracle for
    the Laplace-Bessel values at positive mass.
    """
    d = len(n)
    q, w = _gl_rule(points)
    cos_q = np.cos(q)
    if d == 1:
        integrand = np.cos(q * n[0]) / (1.0 - 2.0 * kappa_sq * cos_q)
        return float(np.sum(w * integrand) / (2.0 * np.pi))
    # Materialize the trailing d-1 axes once and accumulate over the first
    # axis to keep memory flat (48^4 doubles would otherwise be avoidable
    # but 128^4 would not).
    tail_shape = [points] * (d - 1)
    cos_sum = np.zeros(tail_shape)
    weight = np.ones(tail_shape)
    phase = np.ones(tail_shape, dtype=complex)
    for axis in range(1, d):
        shape = [1] * (d - 1)
        shape[axis - 1] = points
        shape = tuple(shape)
        cos_sum = cos_sum + cos_q.reshape(shape)
        weight = weight * w.reshape(shape)
        phase = phase * np.exp(1j * q * n[axis]).reshape(shape)
    total = 0.0
    for i in range(points):
        denom = 1.0 - 2.0 * kappa_sq * (cos_q[i] + cos_sum)
        slab = (np.exp(1j * q[i] * n[0]) * phase).real / denom
        total += w[i] * np.sum(weight * slab)
    return float(total / (2.0 * np.pi) ** d)


def _ive(orders: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Scaled Bessel function ive(order, z) on the grid of ``orders`` (k, 1) by ``z`` (m,).

    Where z > 1e8 and z >= 10 order^2, the eleven-term Hankel series
    ive(nu, z) = (2 pi z)^{-1/2} sum_k (-1)^k a_k(nu) z^{-k} (DLMF 10.40.1)
    replaces scipy's ive, which is NaN beyond z ~ 1.1e9.  There the k-th
    term is at most (nu^2 / 2z)^k / k! <= 20^{-k} / k!, so the series is
    exact to rounding.  Elsewhere scipy's value stands, NaN included (high
    orders at z > 1.1e9, which the convergence check then reports).
    scipy.special is imported here, on the first Bessel value, so that the
    other suites start without it.
    """
    from scipy import special

    hankel = (z > _HANKEL_Z) & (z >= 10.0 * orders**2)
    values = special.ive(orders, np.where(hankel, 0.0, z))
    if not hankel.any():
        return values
    big_z = np.where(hankel, z, _HANKEL_Z)
    four_nu2 = 4.0 * orders**2
    term = np.ones(hankel.shape)
    series = term
    for k in range(1, _HANKEL_TERMS):
        term = term * ((2 * k - 1) ** 2 - four_nu2) / (8.0 * k * big_z)
        series = series + term
    return np.where(hankel, series / np.sqrt(2.0 * np.pi * big_z), values)


def _centre(spec: ScalarSpec, n: tuple) -> float:
    """Centre T of the exp-sinh nodes for separation n.

    For large z, ive(k, z) ~ exp(-k^2 / 2z) / sqrt(2 pi z), so the integrand
    behaves like exp(-r kappa^2 t - |n|^2 / (4 kappa^2 t)) t^{-d/2}.  Its
    saddle T_s, at least 1, is the positive root of
    r kappa^2 t^2 + (d/2) t = |n|^2 / (4 kappa^2), written in the form that
    stays exact at r = 0 (T_s = |n|^2 / (2 d kappa^2)).  Near the origin at
    small mass the integrand reaches on to the mass cutoff
    t_c = 1 / (r kappa^2) far beyond T_s (a plateau in ln t at d = 2), so T
    is the geometric mean of T_s and t_c when t_c is the larger.
    """
    n2 = sum(v * v for v in n)
    root = math.sqrt(spec.d**2 + 4.0 * spec.r * n2)
    saddle = max(1.0, n2 / (spec.kappa2 * (spec.d + root)))
    if spec.r == 0.0:
        return saddle
    return saddle * math.sqrt(max(1.0, 1.0 / (spec.r * spec.kappa2 * saddle)))


def _exp_sinh(integrand, quantity: str, spec: ScalarSpec, n) -> tuple:
    """Integral over [0, inf) of an integrand on arrays of t by the exp-sinh rule.

    The nodes are centred on T = `_centre` of separation ``n``.  Returns the
    step-1/64 value and its relative gap to the step-1/32 value.

    Raises
    ------
    ResolutionTooLow
        If the value is not finite or the two steps disagree beyond 1e-10
        relative.
    """
    centre = _centre(spec, n)
    samples = integrand(centre * _NODES) * _WEIGHTS
    fine = centre * float(np.sum(samples))
    coarse = 2.0 * centre * float(np.sum(samples[::2]))
    diff = abs(fine - coarse)
    if not (math.isfinite(fine) and diff <= _TOLERANCE * abs(fine)):
        reason = (f"non-finite value {fine}" if not math.isfinite(fine)
                  else f"steps 1/{1 / _STEP:g} and 1/{0.5 / _STEP:g} give "
                       f"{fine:.6e} and {coarse:.6e}")
        raise ResolutionTooLow(
            f"{quantity} at d={spec.d}, a={spec.a}, separation {tuple(n)} "
            f"did not converge: {reason}"
        )
    return fine, (diff / abs(fine) if diff else 0.0)


def _laplace_combination(spec: ScalarSpec, terms, quantity: str, n) -> tuple:
    """(value, gap) of the Laplace integral of a combination of Bessel products,

        int_0^inf e^{-r kappa^2 t} sum_c coefficient_c prod_mu ive(order_{c,mu}, 2 kappa^2 t) dt.

    ``terms`` holds (orders, coefficient) pairs with non-negative orders; each
    distinct order is evaluated once per node.
    """
    flat = np.array([order for orders, _ in terms for order in orders], dtype=float)
    orders, index = np.unique(flat, return_inverse=True)
    index = index.reshape(len(terms), spec.d)
    coefficients = np.array([coefficient for _, coefficient in terms])
    decay = spec.r * spec.kappa2

    def integrand(t):
        # Nodes where the mass damping underflows contribute exactly zero;
        # skipping them also keeps scipy's NaN at huge z out of the sum.
        damping = np.exp(-decay * t)
        live = damping > 0.0
        table = _ive(orders[:, None], 2.0 * spec.kappa2 * t[live])
        out = np.zeros_like(t)
        out[live] = damping[live] * (coefficients @ table[index].prod(axis=1))
        return out

    return _exp_sinh(integrand, quantity, spec, n)


def _laplace_value(spec: ScalarSpec, n: tuple) -> tuple:
    """(value, gap) of the scaled covariance by its Laplace-Bessel form; exact for all m_u >= 0."""
    orders = tuple(abs(int(v)) for v in n)
    return _laplace_combination(spec, [(orders, 1.0)], "scaled propagator", n)


@lru_cache(maxsize=4096)
def _scaled_propagator_cached(spec: ScalarSpec, n: tuple) -> tuple:
    """(value, gap) of the scaled covariance at a canonical separation."""
    if spec.m_u == 0.0 and spec.d == 2:
        raise InfraredDivergent(
            "massless scaled propagator diverges logarithmically in two dimensions"
        )
    return _laplace_value(spec, n)


def scaled_propagator(spec: ScalarSpec, x, y=None) -> float:
    """Covariance C(x - y) of the variance-normalized field.

    Parameters
    ----------
    spec : ScalarSpec
    x, y : sequences of int
        Lattice sites; ``y`` defaults to the origin, so ``x`` may be passed
        as a separation directly.

    Raises
    ------
    InfraredDivergent
        For d = 2 with m_u = 0, where the integral diverges.
    ResolutionTooLow
        If the Laplace-Bessel integral does not converge.
    """
    n = _separation(spec, x, y)
    # The kernel is even in each component and symmetric under axis
    # permutation, so a canonical key collapses the orbit.
    canonical = tuple(sorted(abs(v) for v in n))
    return _scaled_propagator_cached(spec, canonical)[0]


def coincident_bound_constant(d: int) -> float:
    """Massless coincident covariance C_0 = int_0^inf ive(0, t/d)^d dt.

    This is the uniform upper bound on C(x, x) over all masses and the
    constant entering the generating-function bound.  At m_u = 0 the scaled
    covariance does not depend on a or kappa_u, so C_0 is the cached
    scaled propagator at the origin.  For d = 3 it equals the classical
    cubic-lattice Green function at the origin,
    sqrt(6)/(32 pi^3) * Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24).

    Raises InfraredDivergent for d = 2 and ValueError for d outside {2, 3, 4}.
    """
    return scaled_propagator(ScalarSpec(d=d, a=1.0, m_u=0.0, kappa_u=1.0), (0,) * d)


def derivative_correlation(spec: ScalarSpec, mu: int, nu: int, x, y=None):
    """(value, relative two-resolution gap) of a forward-derivative correlation.

    Computes <d_mu phi(x) d_nu phi(y)> with d_mu phi(x) =
    [phi(x + e_mu) - phi(x)] / a.  The four covariance terms are combined
    under a single Laplace integral, which stays bounded even for d = 2 at
    m_u = 0 where the individual propagators diverge: the +--+ pattern
    cancels the slow t^{-d/2} tail down to t^{-d/2-1}.
    """
    d = spec.d
    if not (0 <= mu < d and 0 <= nu < d):
        raise ValueError(f"direction indices must lie in [0, {d}), got {mu}, {nu}")
    n = _separation(spec, x, y)

    def shifted(base, axis, step):
        out = list(base)
        out[axis] += step
        return tuple(out)

    vectors = [shifted(shifted(n, mu, 1), nu, -1), shifted(n, mu, 1), shifted(n, nu, -1), n]
    terms = [
        (tuple(abs(v) for v in vector), coefficient)
        for vector, coefficient in zip(vectors, (1.0, -1.0, -1.0, 1.0))
    ]
    value, err = _laplace_combination(spec, terms, f"derivative correlation ({mu}, {nu})", n)
    return value / (spec.a**2 * spec.s2), err


def mass_gap_formula(a, m_u, kappa_u):
    """Exponential decay rate (2/a) asinh(m_u a / (2 kappa_u)).

    Accepts complex ``m_u`` so the formula's smoothness can be probed by
    complex-step differentiation.
    """
    return (2.0 / a) * np.arcsinh(m_u * a / (2.0 * kappa_u))


def mass_gap(spec: ScalarSpec) -> float:
    """Decay rate of the two-point function; tends to m_u/kappa_u as a -> 0."""
    return float(mass_gap_formula(spec.a, spec.m_u, spec.kappa_u))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay-rate fit of on-axis covariances.

    The model is -ln C(n) = rate * (n a) + ((d-1)/2) ln n + intercept +
    correction / n; the logarithmic term is the free-field prefactor and the
    1/n term absorbs the leading finite-separation correction, without which
    the residual target is unreachable before the covariance underflows.
    ``window_error`` is the largest relative two-resolution gap of the
    window's covariances.
    """

    rate: float
    intercept: float
    correction: float
    residual: float
    n_start: int
    n_stop: int
    window_error: float


def fit_decay_rate(spec: ScalarSpec) -> DecayFit:
    """Fit the exponential decay rate of the on-axis two-point function (m_u > 0).

    A window of ``_FIT_POINTS`` separations n e_0 starts near five
    correlation lengths and is pushed outward until the fit residual drops
    below ``_FIT_RESIDUAL``.  Each covariance is a cached scaled propagator,
    so windows that overlap during escalation share their values.

    Raises
    ------
    RangeTooNoisy
        If covariances in the window fall below the reliable floor or the
        residual target cannot be met.
    ResolutionTooLow
        If a covariance in the window does not converge.
    """
    if spec.m_u <= 0.0:
        raise ValueError("decay-rate fit requires m_u > 0")
    n_start = max(2, math.ceil(5.0 / (mass_gap(spec) * spec.a)))
    for _ in range(7):
        ns = np.arange(n_start, n_start + _FIT_POINTS, dtype=float)
        values, gaps = np.array([_scaled_propagator_cached(spec, (0,) * (spec.d - 1) + (int(n),))
                                 for n in ns]).T
        if np.any(values < _DECAY_FLOOR):
            raise RangeTooNoisy(
                f"covariance below {_DECAY_FLOOR:g} in window [{ns[0]}, {ns[-1]}]"
            )
        y = -np.log(values) - 0.5 * (spec.d - 1) * np.log(ns)
        design = np.stack([ns * spec.a, np.ones(len(ns)), 1.0 / ns], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        residual = float(np.max(np.abs(y - design @ coef)))
        if residual <= _FIT_RESIDUAL:
            rate, intercept, correction = (float(c) for c in coef)
            return DecayFit(rate, intercept, correction, residual, int(ns[0]), int(ns[-1]),
                            float(np.max(gaps)))
        n_start = max(n_start + 1, math.ceil(1.5 * n_start))
    raise RangeTooNoisy(
        f"fit residual {residual:.3e} still exceeds {_FIT_RESIDUAL:g} "
        f"after window escalation"
    )


def gaussian_generating_function(spec: ScalarSpec, sources) -> float:
    """Moment generating function exp[(1/2) sum_{i,j} J_i C(x_i - x_j) J_j].

    ``sources`` is a sequence of (site, strength) pairs for the scaled
    field; an empty sequence gives 1.
    """
    items = [(_separation(spec, site), float(strength)) for site, strength in sources]
    if not items:
        return 1.0
    quad_form = 0.0
    for site_i, strength_i in items:
        for site_j, strength_j in items:
            gap = tuple(a - b for a, b in zip(site_i, site_j))
            quad_form += strength_i * strength_j * scaled_propagator(spec, gap)
    return float(np.exp(0.5 * quad_form))


def generating_function_bound(spec: ScalarSpec, sources) -> float:
    """Ceiling exp[C_0 r sum_j J_j^2] on the generating function (d >= 3).

    Follows from |C(x_i - x_j)| <= C_0 and 2|J_i J_j| <= J_i^2 + J_j^2 with
    r the number of sources.
    """
    strengths = [float(strength) for _, strength in sources]
    if not strengths:
        return 1.0
    bound_constant = coincident_bound_constant(spec.d)
    total = sum(j * j for j in strengths)
    return float(np.exp(bound_constant * len(strengths) * total))
