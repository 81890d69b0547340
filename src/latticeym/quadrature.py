"""Weyl-reduced integration of product class functions over U(N).

Every class function integrated here has the product form
f(U) = prod_j w(lam_j) over the eigenvalue angles of U.  Its Haar average

    (1/N_C) * integral over (-pi, pi]^N of prod_j w(lam_j) rho(lam) d^N lam,

with rho the squared modulus of the eigenvalue Vandermonde and
N_C = (2 pi)^N N!, collapses by the Andreief/Heine identity to one n x n
determinant of one-dimensional integrals,

    det M,   M_jk = (1/2 pi) integral of w(lam) phi_j(lam) conj(phi_k(lam)) dlam,

for any basis phi_j that is unit-triangular in the monomials e^{i j lam}
(Gross & Witten, Phys. Rev. D 21, 446 (1980); Bars & Green, Phys. Rev. D 20,
3311 (1979)).  M is evaluated with one composite Gauss-Legendre rule per
entry.  Andreief's identity holds for any product measure, so this is the
tensor-product rule over all N angles summed exactly, at a cost of n^2
one-dimensional sums instead of points^N grid points.

For scale == 1 the basis is the Fourier basis e^{i j lam} and M is
Toeplitz.  Large couplings concentrate the weight near the origin, where
every rule splits; `scale` switches to coordinates y = scale * lam so the
rule tracks the concentration region.  There the Toeplitz determinant is the
difference of nearly equal products and loses most of its digits, so the
basis becomes the monic polynomials in x = scale * (e^{i lam} - 1) generated
by phi_{j+1} = x phi_j + (j/2) phi_{j-1}.  Near the origin -i x ~ y, and they
are i^j times the monic Hermite polynomials, orthogonal for the weight
e^{-y^2} that every concentrated weight here approaches.  M is then nearly
diagonal and its determinant keeps its digits up to rank 8.  The result is
left in y: the concentrated value scale^(n^2) times the Haar average, of
order one where the average itself vanishes like scale^(-n^2).

Moments of sum_j s(lam_j) under such a weight are Taylor coefficients of a
source-deformed determinant (`weyl_moments`); the Gaussian reference
integrals `i_beta` are Hankel and de Bruijn determinants of closed-form
moments.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import ClassVar

import numpy as np

from .errors import ResolutionTooLow
from .groups import GroupSpec

# Allowed disagreement of the two internal resolutions, relative and absolute,
# before ResolutionTooLow is raised.
RTOL = 1e-6
ATOL = 1e-13


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate Weyl-reduced integrals.

    points is the Gauss-Legendre order per panel of the one-angle rule.
    `method` names the one route, the Gauss-Legendre Heine determinant; it
    is a constant, not a setting.
    """

    method: ClassVar[str] = "tensor"
    points: int = 96

    def __post_init__(self):
        if self.points < 4:
            raise ValueError(f"points: need at least 4 per panel, got {self.points}")

    @property
    def coarse_points(self) -> int:
        """Order of the companion rule used by the resolution check, always
        below `points`."""
        return (2 * self.points) // 3


@dataclass(frozen=True)
class EnsembleConstants:
    """Normalization constants of the three classical ensembles at rank N."""

    cue: float
    gue: float
    gse: float


def ensemble_constants(group: GroupSpec) -> EnsembleConstants:
    """Closed-form ensemble volumes N_C, N_G, N_S."""
    n = group.n
    cue = (2.0 * np.pi) ** n * factorial(n)
    gue = (2.0 * np.pi) ** (n / 2.0) * 2.0 ** (-n * n / 2.0)
    gse = (2.0 * np.pi) ** (n / 2.0) * 4.0 ** (-n * n)
    for j in range(1, n + 1):
        gue *= factorial(j)
        gse *= factorial(2 * j)
    return EnsembleConstants(cue=float(cue), gue=float(gue), gse=float(gse))


@lru_cache(maxsize=None)
def _leggauss(points: int):
    return np.polynomial.legendre.leggauss(points)


@lru_cache(maxsize=None)
def _panel_nodes(points: int, panels: tuple):
    """Composite Gauss-Legendre rule with `points` nodes on each panel."""
    x0, w0 = _leggauss(points)
    xs, ws = [], []
    for lo, hi in zip(panels[:-1], panels[1:]):
        xs.append(0.5 * (hi - lo) * x0 + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * w0)
    return np.concatenate(xs), np.concatenate(ws)


def _heine_rule(n, points, scale, cutoff):
    """Angles, weights of (1/2 pi) dy, and the basis phi_j at the angles.

    Returns (lam, weights, phi) with phi of shape (n, M); the concentrated
    value scale^(n^2) <prod w> is det(phi diag(w weights) phi^H).
    """
    half = np.pi * scale
    if cutoff is not None:
        half = min(half, cutoff)
    y, wy = _panel_nodes(points, (-half, 0.0, half))
    lam = y / scale
    if scale == 1.0:
        phi = np.exp(1j * np.arange(n)[:, None] * lam)
    else:
        x = scale * np.expm1(1j * lam)
        phi = np.ones((n, lam.size), dtype=complex)
        if n > 1:
            phi[1] = x
        for j in range(1, n - 1):
            phi[j + 1] = x * phi[j] + 0.5 * j * phi[j - 1]
    return lam, wy / (2.0 * np.pi), phi


def _gram(phi, weights):
    return (phi * weights) @ phi.conj().T


def _checked(fine, coarse, quad, what, size=None):
    """Two-resolution agreement check; returns |fine - coarse|.

    The allowed difference is RTOL * size + ATOL, with size |fine| unless
    given.
    """
    err = np.abs(fine - coarse)
    size = np.abs(fine) if size is None else size
    if np.any(err > RTOL * size + ATOL):
        raise ResolutionTooLow(
            f"{what}: {quad.points} vs {quad.coarse_points} points per panel differ by "
            f"{np.max(err):.3e} (value {np.max(np.abs(fine)):.6e})")
    return err


def weyl_integrate(w, group: GroupSpec, quad: QuadratureSpec, *,
                   scale: float = 1.0, cutoff: float | None = None):
    """(value, |fine - coarse|) of the concentrated scale^(n^2) <prod_j w(lam_j)>.

    w is a one-angle weight: called with a 1-D array of angles, it returns
    an array of the same length (real or complex).  The integration runs in
    coordinates y = scale*lam over |y| <= min(pi*scale, cutoff), split into
    two panels at the origin; the caller guarantees the weight is negligible
    beyond the cutoff.  At the default scale 1 the value is the Haar
    expectation itself.

    Runs at two resolutions, returns the finer value with their difference,
    and raises ResolutionTooLow if they disagree beyond RTOL/ATOL.
    """
    def value(points):
        lam, weights, phi = _heine_rule(group.n, points, scale, cutoff)
        vals = np.asarray(w(lam))
        det = np.linalg.det(_gram(phi, weights * vals))
        # phi diag(w) phi^H is Hermitian for real w: its determinant is real.
        return det if np.iscomplexobj(vals) else det.real

    fine, coarse = value(quad.points), value(quad.coarse_points)
    return fine, float(_checked(fine, coarse, quad, "Heine determinant"))


def _series_moments(mats):
    """Moments k! [t^k] det M(t) / det M(0), k = 0..K, of M(t) = sum_k t^k mats[k].

    det M(t) / det M(0) = exp(tr log(I + A(t))) with A(t) = M(0)^{-1}
    (M(t) - M(0)); the logarithm and the exponential are taken as power
    series truncated at t^K.
    """
    order = len(mats) - 1
    a = np.linalg.solve(mats[0], mats)
    a[0] = 0.0
    power = a
    log_series = np.zeros(order + 1, dtype=complex)
    for m in range(1, order + 1):
        log_series += (-1) ** (m + 1) / m * np.trace(power, axis1=1, axis2=2)
        nxt = np.zeros_like(power)
        for d in range(2, order + 1):
            for i in range(1, d):
                nxt[d] += power[i] @ a[d - i]
        power = nxt
    exp_series = np.zeros(order + 1, dtype=complex)
    exp_series[0] = 1.0
    for d in range(1, order + 1):
        exp_series[d] = sum(i * log_series[i] * exp_series[d - i]
                            for i in range(1, d + 1)) / d
    return np.array([float(factorial(k)) for k in range(order + 1)]) * exp_series


def weyl_moments(w, s, order: int, group: GroupSpec, quad: QuadratureSpec, *,
                 scale: float = 1.0, cutoff: float | None = None):
    """(moments, errors) of <(sum_j s(lam_j))^k>, k = 0..order, under prod_j w Haar.

    The expectation is normalized by the Haar average of prod_j w itself.
    Both w and s are one-angle functions.  The moments are the Taylor
    coefficients of the source integral det M(t) / det M(0), where M(t) is
    the Heine matrix of the weight w e^{t s}; M(t) is a power series in t
    with coefficients the Heine matrices of w s^k / k!.  The moments are a
    real array when w and s are real.

    Runs at two resolutions like `weyl_integrate`; errors[k] is the k-th
    moment's |fine - coarse|.  It is checked against RTOL times the
    moment's own size or m_2^(k/2), whichever is larger, so odd moments
    that vanish by symmetry are held to the rounding level of their even
    neighbours rather than to zero.
    """
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    top = max(order, 2)

    def value(points):
        lam, weights, phi = _heine_rule(group.n, points, scale, cutoff)
        base = weights * np.asarray(w(lam))
        src = np.asarray(s(lam))
        mats = np.array([_gram(phi, base * src**k / factorial(k))
                         for k in range(top + 1)])
        moments = _series_moments(mats)
        return moments if np.iscomplexobj(base * src) else moments.real

    fine, coarse = value(quad.points), value(quad.coarse_points)
    size = np.maximum(np.abs(fine), np.abs(fine[2]) ** (0.5 * np.arange(top + 1)))
    err = _checked(fine, coarse, quad, "moment series", size)
    return fine[: order + 1], err[: order + 1]


def _gaussian_moments(count: int, rate: float, u: float) -> np.ndarray:
    """integral over (-u, u) of y^(2q) exp(-rate y^2) dy for q = 0..count-1.

    Each is Gamma(a) rate^-a P(a, x) at a = q + 1/2, x = rate u^2, with P the
    regularized lower incomplete gamma function; u may be numpy.inf.  At
    half-integer order P is elementary (DLMF 8.4, 8.7.1): with the positive
    terms t_k = x^(k+1/2) e^-x / Gamma(k + 3/2), taken in logarithms,

        P(q + 1/2, x) = t_q + t_(q+1) + ...,
        1 - P(q + 1/2, x) = erfc(sqrt x) + t_0 + ... + t_(q-1).

    The second form serves where x >= a + 1, so P >= 1/2, and the series
    elsewhere, so neither subtracts nearly equal numbers.  x = inf, at
    u = inf or on overflow, gives P = 1.
    """
    p = np.ones(count)
    x = rate * u * u
    if x != math.inf:  # NaN carries through
        log_x = math.log(x) if x > 0.0 else -math.inf
        t = [math.exp((k + 0.5) * log_x - x - math.lgamma(k + 1.5)) for k in range(count)]
        q, upper = 0, math.erfc(math.sqrt(x))
        while q < count and x >= q + 1.5:
            p[q] = 1.0 - upper
            upper += t[q]
            q += 1
        if q < count:
            # t_(k+1) = t_k x / (k + 3/2), a ratio below one beyond the last order
            tail, term, k = 0.0, t[-1], count - 1
            while term > 1e-17 * t[-1]:
                term *= x / (k + 1.5)
                tail += term
                k += 1
            for k in range(count - 1, q - 1, -1):
                tail += t[k]
                p[k] = tail
    a = np.arange(count) + 0.5
    return np.array([math.gamma(v) for v in a]) * rate**-a * p


def _equilibrated_det(a: np.ndarray) -> float:
    """det a, computed after scaling the diagonal of a to unit modulus.

    Moment matrices grade by orders of magnitude along the diagonal; at
    rank 8 the scaling keeps I_4(inf) within 4e-13 of Mehta's closed form,
    against 2e-11 unscaled.
    """
    d = 1.0 / np.sqrt(np.abs(np.diag(a)))
    return float(np.linalg.det(a * d[:, None] * d[None, :]) / np.prod(d) ** 2)


def i_beta(beta: int, u: float, group: GroupSpec, quad: QuadratureSpec | None = None):
    """Ensemble integral I_beta(u) over the box (-u, u)^N.

    Integrand exp(-(beta/2) sum y^2) times the flat Vandermonde to the power
    beta/2, for beta = 2 (Hermitian ensemble) or 4 (symplectic).  u may be
    numpy.inf; I_2(inf) and I_4(inf) reproduce the GUE/GSE constants.

    With m_p the moments of exp(-(beta/2) y^2) over (-u, u), Andreief's
    identity gives I_2 = N! det[m_{j+k}] (a Hankel determinant) and de
    Bruijn's gives I_4 = N! Pf[(k-j) m_{j+k-1}] over 2N indices.  Odd moments
    vanish, so both matrices split by index parity: the Hankel determinant is
    det[m_{2(a+b)}] det[m_{2(a+b)+2}], and the Pfaffian, whose entries pair
    an even with an odd index, is +-det[(2b+1-2a) m_{2(a+b)}].  The moments
    are closed-form, so `quad` is not consulted.
    """
    if beta not in (2, 4):
        raise ValueError("beta must be 2 or 4")
    if u <= 0:
        raise ValueError("u must be positive")
    n = group.n
    idx = np.arange(n)
    if beta == 2:
        m = _gaussian_moments(n, 1.0, float(u))
        even, odd = idx[: (n + 1) // 2], idx[: n // 2]
        det = (_equilibrated_det(m[even[:, None] + even[None, :]])
               * _equilibrated_det(m[odd[:, None] + odd[None, :] + 1]))
    else:
        m = _gaussian_moments(2 * n - 1, 2.0, float(u))
        det = abs(_equilibrated_det((2 * idx[None, :] + 1 - 2 * idx[:, None])
                                    * m[idx[:, None] + idx[None, :]]))
    return float(factorial(n) * det)
