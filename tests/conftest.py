"""Shared fixtures, the Vandermonde densities, the complex source-deformed
single-bond integral, a tensor-grid oracle for the Weyl-reduced integrals,
a QR oracle for the Haar sampler, the angular spectra of sampled unitaries,
a serial reference for the batched Metropolis sweep, and a per-sweep
reference for the blocked draws of the replica sampler.

The package evaluates product class functions through n x n Heine
determinants.  The oracle sums the same composite Gauss-Legendre rule over
the full N-angle tensor grid instead: points^N evaluations of the integrand
times the Vandermonde density, so it is only practical for N <= 3, but it
accepts any class function, product or not.  By Andreief's identity both
routes give the same number up to rounding.
"""

import numpy as np
import pytest

from latticeym import mc
from latticeym.quadrature import QuadratureSpec, _panel_nodes, ensemble_constants, weyl_integrate
from latticeym.errors import NonUnitaryInput, ShapeMismatch
from latticeym.groups import UNITARITY_TOL, GroupSpec, leading_unitarity_defect, unitarity_defect
from latticeym.lattice import cold_start, dagger_table, wilson_action
from latticeym.single_bond import _wilson_scale

_CHUNK = 1 << 19
ORACLE_MAX_RANK = 3


def vandermonde_density(lam):
    """prod_{j<k} |e^{i lam_j} - e^{i lam_k}|^2 = prod 4 sin^2((lam_j - lam_k)/2)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.ones(lam.shape[:-1])
    for j in range(n):
        for k in range(j + 1, n):
            out = out * 4.0 * np.sin(0.5 * (lam[..., j] - lam[..., k])) ** 2
    return out


def flat_vandermonde(lam):
    """prod_{j<k} (lam_j - lam_k)^2, the small-angle limit of the density."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.ones(lam.shape[:-1])
    for j in range(n):
        for k in range(j + 1, n):
            out = out * (lam[..., j] - lam[..., k]) ** 2
    return out


def source_weight(j, beta, sine):
    """One-angle weight exp(j sqrt(beta) sine(lam) - 2 beta (1 - cos lam))."""
    root_beta = np.sqrt(beta)
    return lambda lam: np.exp(j * root_beta * sine(lam) - 4.0 * beta * np.sin(0.5 * lam) ** 2)


def z_upper_source(j, coupling, group, quad):
    """Source-deformed single-bond integral, entire in the complex source j.

    Haar average of exp(j sqrt(beta) Im Tr U - 2 beta sum (1 - cos lam));
    Im Tr U = sum_j sin lam_j.  At j = 0 this is z_upper.  Complex, so it
    stays linear: scale**(-n^2) times the concentrated value, on the rule
    of `log_zeta_envelope`.
    """
    scale, cutoff = _wilson_scale(coupling.beta, abs(complex(j)))
    value = weyl_integrate(source_weight(complex(j), coupling.beta, np.sin), group, quad,
                           scale=scale, cutoff=cutoff)[0]
    return complex(value * scale ** -group.dim)


def _iter_tensor(x1, w1, ndim):
    """Yield (coords, weights) chunks of the full tensor-product grid."""
    m = len(x1) ** ndim
    for start in range(0, m, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, m))
        coords = np.empty((len(idx), ndim))
        weights = np.ones(len(idx))
        rem = idx
        for axis in range(ndim - 1, -1, -1):
            rem, j = np.divmod(rem, len(x1))
            coords[:, axis] = x1[j]
            weights *= w1[j]
        yield coords, weights


def tensor_weyl(f, n, points=96, scale=1.0, cutoff=None, split_origin=False):
    """Haar average of the class function f(angles), f taking (M, n) arrays."""
    assert n <= ORACLE_MAX_RANK, "the tensor grid grows as points**n"
    half = np.pi * scale
    if cutoff is not None:
        half = min(half, cutoff)
    panels = (-half, 0.0, half) if split_origin else (-half, half)
    x1, w1 = _panel_nodes(points, panels)
    total = 0.0 + 0.0j
    complex_seen = False
    for coords, weights in _iter_tensor(x1, w1, n):
        lam = coords / scale
        vals = np.asarray(f(lam))
        complex_seen = complex_seen or np.iscomplexobj(vals)
        total += np.sum(weights * vals * vandermonde_density(lam))
    total /= scale**n * ensemble_constants(GroupSpec(n)).cue
    return total if complex_seen else total.real


def qr_haar_sample(group, rng, count):
    """Haar sample of shape (count, n, n) from LAPACK QR of a complex Ginibre
    matrix, each column of Q rephased so that R has a real positive diagonal.

    Draws the same normals in the same order as `haar_sample_batch`, so on a
    shared seed both give the same matrices up to rounding.
    """
    n = group.n
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.einsum("bii->bi", r)
    return q * (diag / np.abs(diag))[:, None, :]


def _principal_angles(eigvals):
    """Map unit-modulus eigenvalues to angles in (-pi, pi], in the given order."""
    angles = np.angle(eigvals)
    # np.angle can return exactly -pi (negative real axis approached from
    # below); fold that endpoint onto +pi so the branch is half-open.
    return np.where(angles <= -np.pi, angles + 2.0 * np.pi, angles)


def angular_eigenvalues(u):
    """Sorted eigenvalue angles in (-pi, pi] of each unitary in a stack (..., n, n)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ShapeMismatch(f"expected square matrices, got shape {u.shape}")
    if unitarity_defect(u) > UNITARITY_TOL:
        raise NonUnitaryInput(f"unitarity defect above {UNITARITY_TOL:.1e}")
    return np.sort(_principal_angles(np.linalg.eigvals(u)), axis=-1)


def product_of(w):
    """The class function prod_j w(lam_j) of a one-angle weight w."""
    return lambda lam: np.prod(w(lam), axis=-1)


# Integration boxes for the improper ensemble integrals: beyond these the
# Gaussian factor alone is < 1e-43 and the polynomial density cannot recover.
_INF_CUTOFF = {2: 10.0, 4: 7.5}


def tensor_ensemble(beta, u, n, points=96):
    """I_beta(u) = int over (-u, u)^n of exp(-(beta/2)|y|^2) |Delta(y)|^beta."""
    assert n <= ORACLE_MAX_RANK, "the tensor grid grows as points**n"
    half = min(float(u), _INF_CUTOFF[beta])
    x1, w1 = _panel_nodes(points, (-half, half))
    total = 0.0
    for coords, weights in _iter_tensor(x1, w1, n):
        dens = flat_vandermonde(coords) ** (beta // 2)
        total += float(np.sum(weights * np.exp(-0.5 * beta * np.sum(coords**2, axis=-1))
                              * dens))
    return total


def serial_sweep(u, geom, beta, factors, thresholds):
    """Metropolis sweep of a replica batch, one bond at a time, without
    staple tables.

    u is an (R, n_bonds, n, n) batch, updated in place; beta is an (R,)
    array.  factors (n, n, count, R) and thresholds (count, R) are one sweep
    of `mc._proposals` and `mc._draws`, the inputs of `mc._sweep`, spent on
    the bonds in the order of `geom.classes`, as the batched sweep spends
    them.  Delta A is the change of the Wilson action of the whole
    configuration.  Returns the number of accepted moves of each replica.
    """
    factors = np.moveaxis(factors, (0, 1), (-2, -1))  # (count, R, n, n)
    order = np.concatenate(geom.classes)
    accepted = np.zeros(len(u), dtype=int)
    for r in range(len(u)):
        for k, bond in enumerate(order):
            old_u, old_action = u[r, bond].copy(), wilson_action(u[r], geom)
            u[r, bond] = factors[k, r] @ old_u
            delta = wilson_action(u[r], geom) - old_action
            if thresholds[k, r] < np.exp(min(0.0, -beta[r] * delta)):
                accepted[r] += 1
            else:
                u[r, bond] = old_u
    return accepted


def per_sweep_replicas(geom, group, betas, seeds, params, measure):
    """`mc._run_replicas` one sweep at a time, as it ran before blocking.

    Each sweep draws its random numbers as the sampler's `_draws` then did,
    rng.uniform(0.5, 1.5), the directions and the thresholds per replica,
    and makes its proposal factors in one `mc._proposals` call; the step
    sizes are tuned every 10 thermalization sweeps and the acceptance
    rates summed sweep by sweep.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    betas = np.asarray(betas, dtype=np.float64)
    table = dagger_table(np.repeat(cold_start(geom, group.n)[None], len(rngs), axis=0))
    count, n = np.count_nonzero(~geom.fixed_mask), group.n
    epsilon = np.full(len(rngs), mc.START_EPSILON)

    def sweep():
        draws = [(rng.uniform(0.5, 1.5, size=count),
                  rng.random(count) if n == 1 else rng.standard_normal((count, n * n)),
                  rng.random(count)) for rng in rngs]
        amplitudes, directions, thresholds = (np.stack(a, axis=-1) for a in zip(*draws))
        if n > 1:
            directions = np.ascontiguousarray(np.moveaxis(directions, -2, 0))
        factors = mc._proposals(epsilon * amplitudes, directions, n)
        return mc._sweep(table, geom, betas, factors, thresholds)

    window = np.zeros(len(rngs))
    for k in range(1, params.thermalization + 1):
        window += sweep()
        if k % 10 == 0:
            rate = window / 10
            epsilon = np.where(rate > 0.6, np.minimum(np.pi, epsilon * 1.2),
                               np.where(rate < 0.4, epsilon / 1.2, epsilon))
            window[:] = 0.0
    n_meas = params.sweeps - params.thermalization
    accepted = np.zeros(len(rngs))
    samples = []
    for _ in range(n_meas):
        accepted += sweep()
        samples.append(measure(table))
    return mc.ChainSamples(series=np.stack(samples, axis=1), diagnostics=mc.Diagnostics(
        accept_min=float(np.min(accepted) / n_meas),
        unitarity_defect=leading_unitarity_defect(table[:, :, :geom.n_bonds]),
        epsilon_min=float(np.min(epsilon)), epsilon_max=float(np.max(epsilon))))


@pytest.fixture
def quad():
    return QuadratureSpec()


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(2024))
