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
Toeplitz.  Large couplings concentrate the weight near the origin; `scale`
switches to coordinates y = scale * lam so the rule tracks the concentration
region.  There the Toeplitz determinant is the difference of nearly equal
products and loses most of its digits, so the basis becomes the monic
polynomials in x = scale * (e^{i lam} - 1) generated by
phi_{j+1} = x phi_j + (j/2) phi_{j-1}.  They are unit-triangular in
(scale * (e^{i lam} - 1))^j, which leaves det M unchanged up to the factor
scale^(-n(n-1)); near the origin -i x ~ y, and they are i^j times the monic
Hermite polynomials, orthogonal for the weight e^{-y^2} that every
concentrated weight here approaches.  M is then nearly diagonal and its
determinant keeps its digits up to rank 8.

Moments of sum_j s(lam_j) under such a weight are Taylor coefficients of a
source-deformed determinant (`weyl_moments`); the Gaussian reference
integrals `i_beta` are Hankel and de Bruijn determinants of closed-form
moments.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import ClassVar

import numpy as np
from scipy.special import gamma, gammainc

from .errors import ResolutionTooLow
from .groups import GroupSpec


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate Weyl-reduced integrals.

    points is the Gauss-Legendre order per panel of the one-angle rule;
    rtol/atol bound the allowed disagreement between the two internal
    resolutions before ResolutionTooLow is raised.  `method` names the one
    route, the Gauss-Legendre Heine determinant; it is a constant, not a
    setting.
    """

    method: ClassVar[str] = "tensor"
    points: int = 96
    rtol: float = 1e-6
    atol: float = 1e-13

    def __post_init__(self):
        if self.points < 4:
            raise ValueError(f"points: need at least 4 per panel, got {self.points}")

    @property
    def coarse_points(self) -> int:
        """Order of the companion rule used by the resolution check."""
        return max(8, (2 * self.points) // 3)


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


def vandermonde_density(lam: np.ndarray) -> np.ndarray:
    """prod_{j<k} |e^{i lam_j} - e^{i lam_k}|^2 = prod 4 sin^2((lam_j - lam_k)/2)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.ones(lam.shape[:-1])
    for j in range(n):
        for k in range(j + 1, n):
            out = out * 4.0 * np.sin(0.5 * (lam[..., j] - lam[..., k])) ** 2
    return out


def flat_vandermonde(lam: np.ndarray) -> np.ndarray:
    """prod_{j<k} (lam_j - lam_k)^2, the small-angle limit of the density."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.ones(lam.shape[:-1])
    for j in range(n):
        for k in range(j + 1, n):
            out = out * (lam[..., j] - lam[..., k]) ** 2
    return out


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


def _heine_rule(n, points, scale, cutoff, split_origin):
    """Angles, weights of (1/2 pi) dlam, and the basis phi_j at the angles.

    Returns (lam, weights, phi, factor) with phi of shape (n, M); the Haar
    average of prod w is factor * det(phi diag(w weights) phi^H).
    """
    half = np.pi * scale
    if cutoff is not None:
        half = min(half, cutoff)
    # A concentrated weight peaks at the origin: a panel boundary there
    # doubles the node density where it lives, which the rank-8 moment
    # series needs at the coarse order.
    panels = (-half, 0.0, half) if split_origin or scale > 1.0 else (-half, half)
    y, wy = _panel_nodes(points, panels)
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
    return lam, wy / (2.0 * np.pi * scale), phi, scale ** (-n * (n - 1))


def _gram(phi, weights):
    return (phi * weights) @ phi.conj().T


def _checked(fine, coarse, quad, what, size=None):
    """Two-resolution agreement check; returns |fine - coarse|.

    The allowed difference is rtol * size + atol, with size |fine| unless
    given.
    """
    err = np.abs(fine - coarse)
    size = np.abs(fine) if size is None else size
    if np.any(err > quad.rtol * size + quad.atol):
        raise ResolutionTooLow(
            f"{what}: {quad.points} vs {quad.coarse_points} points per panel differ by "
            f"{np.max(err):.3e} (value {np.max(np.abs(fine)):.6e})")
    return err


def weyl_integrate(w, group: GroupSpec, quad: QuadratureSpec, *,
                   scale: float = 1.0, cutoff: float | None = None,
                   split_origin: bool = False, return_error: bool = False):
    """Haar expectation of the product class function prod_j w(lam_j).

    w is a one-angle weight: called with a 1-D array of angles, it returns
    an array of the same length (real or complex).  With scale > 1 the
    integration runs in coordinates y = scale*lam over |y| <= min(pi*scale,
    cutoff), split into two panels at the origin; the caller guarantees the
    weight is negligible beyond the cutoff.  split_origin places a panel
    boundary at 0 also when scale == 1, for weights with a kink there.

    Runs at two resolutions and raises ResolutionTooLow if they disagree
    beyond quad.rtol/atol.
    """
    def value(points):
        lam, weights, phi, factor = _heine_rule(group.n, points, scale, cutoff,
                                                split_origin)
        vals = np.asarray(w(lam))
        det = factor * np.linalg.det(_gram(phi, weights * vals))
        # phi diag(w) phi^H is Hermitian for real w: its determinant is real.
        return det if np.iscomplexobj(vals) else det.real

    fine, coarse = value(quad.points), value(quad.coarse_points)
    err = float(_checked(fine, coarse, quad, "Heine determinant"))
    return (fine, err) if return_error else fine


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
                 scale: float = 1.0, cutoff: float | None = None,
                 return_error: bool = False):
    """Moments <(sum_j s(lam_j))^k>, k = 0..order, under prod_j w(lam_j) Haar.

    The expectation is normalized by the Haar average of prod_j w itself.
    Both w and s are one-angle functions.  The moments are the Taylor
    coefficients of the source integral det M(t) / det M(0), where M(t) is
    the Heine matrix of the weight w e^{t s}; M(t) is a power series in t
    with coefficients the Heine matrices of w s^k / k!.  Returns a real
    array when w and s are real.

    Runs at two resolutions like `weyl_integrate`.  The k-th moment is
    checked against rtol times its own size or m_2^(k/2), whichever is
    larger, so odd moments that vanish by symmetry are held to the rounding
    level of their even neighbours rather than to zero.
    """
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    top = max(order, 2)

    def value(points):
        lam, weights, phi, _ = _heine_rule(group.n, points, scale, cutoff, False)
        base = weights * np.asarray(w(lam))
        src = np.asarray(s(lam))
        mats = np.array([_gram(phi, base * src**k / factorial(k))
                         for k in range(top + 1)])
        moments = _series_moments(mats)
        return moments if np.iscomplexobj(base * src) else moments.real

    fine, coarse = value(quad.points), value(quad.coarse_points)
    size = np.maximum(np.abs(fine), np.abs(fine[2]) ** (0.5 * np.arange(top + 1)))
    err = _checked(fine, coarse, quad, "moment series", size)
    fine, err = fine[: order + 1], err[: order + 1]
    return (fine, err) if return_error else fine


def _gaussian_moments(count: int, rate: float, u: float) -> np.ndarray:
    """integral over (-u, u) of y^(2q) exp(-rate y^2) dy for q = 0..count-1.

    Each is rate^-(q+1/2) times the lower incomplete gamma function
    gamma(q + 1/2, rate u^2); u may be numpy.inf.
    """
    a = np.arange(count) + 0.5
    return gamma(a) * rate**-a * gammainc(a, rate * u * u)


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
