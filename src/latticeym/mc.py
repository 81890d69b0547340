"""Metropolis sampling of the Wilson-action model.

Everything downstream of the sampler is an estimate of either

    ln Z(beta) = -int_0^beta <A>_t dt          (thermodynamic integration)

or of the normalized generating function

    G(J) = < exp(sum_j J_j tr M(p_j)) >_beta   (ratio/reweighting form),

both with error bars assembled from blocked per-chain variances plus a
deterministic refinement term (grid halving for the integral, Richardson
step halving for derivatives).  The stability and generating-function
verdicts compare these estimates against the single-bond quadrature bounds
with 3 sigma cushions.

Updates are vectorized over conflict-free bond classes: within a class no
two bonds share a plaquette, so simultaneous Metropolis decisions with
staples gathered from the pre-update configuration are equivalent to a
sequential scan.  Proposals multiply a bond by exp(i eps u H) with H a
Gaussian-direction Lie-algebra element of unit Hilbert-Schmidt norm and u
drawn uniformly from [0.5, 1.5); the direction law is sign-symmetric, so the
proposal kernel is symmetric and the acceptance is min(1, e^{-beta dA}).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidLattice, ShapeMismatch, StepTooLarge,
                     UnconvergedChain)
from .factorized import lattice_counts
from .groups import GroupSpec, generator_basis
from .lattice import (GaugeConfig, LatticeGeometry, _gather_legs,
                      build_geometry, cold_start, scaled_field_traces,
                      wilson_action)
from .quadrature import QuadratureSpec
from .single_bond import (CouplingSpec, z_lower, z_upper,
                          z_upper_source_envelope)


@dataclass(frozen=True)
class MCParams:
    """Chain-length and proposal parameters shared by all estimators."""

    sweeps: int = 400
    thermalization: int = 120
    epsilon: float = 0.7
    chains: int = 2
    seed: int = 0
    beta_grid_points: int = 17

    def __post_init__(self):
        if not 0.0 < self.epsilon <= np.pi:
            raise ValueError(f"epsilon must lie in (0, pi], got {self.epsilon}")
        if self.sweeps < self.thermalization:
            raise ValueError("sweeps must be >= thermalization")
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.beta_grid_points < 3 or self.beta_grid_points % 2 == 0:
            # odd count so the half-resolution grid still ends at beta
            raise ValueError("beta_grid_points must be odd and >= 3")


def _proposals(count, group, epsilon, rng):
    """Batch of symmetric unitary proposal factors exp(i eps u H)."""
    n = group.n
    amps = epsilon * rng.uniform(0.5, 1.5, size=count)
    if n == 1:
        signs = np.where(rng.random(count) < 0.5, 1.0, -1.0)
        return np.exp(1j * amps * signs)[:, None, None]
    basis = generator_basis(n)
    x = rng.standard_normal((count, n * n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    h = np.einsum("ca,aij->cij", x, basis)
    w, v = np.linalg.eigh(h)
    phases = np.exp(1j * amps[:, None] * w)
    return np.einsum("cik,ck,cjk->cij", v, phases, np.conj(v))


def metropolis_sweep(config: GaugeConfig, geom: LatticeGeometry, beta: float,
                     epsilon: float, rng, group: GroupSpec) -> float:
    """One full update pass over all retained bonds; returns acceptance rate."""
    if config.u.shape[0] != geom.n_bonds or config.n != group.n:
        raise ShapeMismatch("configuration does not match geometry/group")
    u = config.u
    accepted = 0
    total = 0
    for members, legs, dags, mask in zip(geom.classes, geom.staple_legs,
                                         geom.staple_dags, geom.staple_mask):
        g = _gather_legs(u, legs, dags)
        staples = g[..., 0, :, :] @ g[..., 1, :, :] @ g[..., 2, :, :]
        t = (staples * mask[..., None, None]).sum(axis=1)
        u_old = u[members]
        u_new = _proposals(members.size, group, epsilon, rng) @ u_old
        delta_a = -2.0 * np.real(
            np.einsum("bij,bji->b", u_new - u_old, t))
        accept = rng.random(members.size) < np.exp(
            np.minimum(0.0, -beta * delta_a))
        u[members[accept]] = u_new[accept]
        accepted += int(accept.sum())
        total += members.size
    return accepted / total


def _run_chain(geom, group, beta, params, seed, measure):
    """Thermalize (with epsilon autotuning), then measure once per sweep."""
    rng = np.random.default_rng(seed)
    config = cold_start(geom, group.n)
    epsilon = params.epsilon
    window = []
    for sweep in range(params.thermalization):
        window.append(metropolis_sweep(config, geom, beta, epsilon, rng, group))
        if len(window) == 10:
            rate = np.mean(window)
            if rate > 0.6:
                epsilon = min(np.pi, epsilon * 1.2)
            elif rate < 0.4:
                epsilon = epsilon / 1.2
            window = []
    n_meas = params.sweeps - params.thermalization
    samples = []
    for sweep in range(n_meas):
        metropolis_sweep(config, geom, beta, epsilon, rng, group)
        samples.append(measure(config))
    return np.array(samples)


def _block_means(series, n_blocks=20):
    series = np.asarray(series, dtype=np.float64)
    n_blocks = min(n_blocks, max(2, series.size // 5))
    usable = (series.size // n_blocks) * n_blocks
    return series[:usable].reshape(n_blocks, -1).mean(axis=1)


def _blocked_se(series, n_blocks=20):
    blocks = _block_means(series, n_blocks)
    return float(np.std(blocks, ddof=1) / np.sqrt(blocks.size))


def _chain_seeds(params, salt):
    root = np.random.SeedSequence(entropy=params.seed, spawn_key=(salt,))
    return root.spawn(params.chains)


def estimate_mean_action(geom: LatticeGeometry, group: GroupSpec, beta: float,
                         params: MCParams, salt: int = 0):
    """<A^B> at inverse coupling beta, with a blocked standard error.

    Chains are compared pairwise; a discrepancy beyond 5 sigma raises
    UnconvergedChain rather than silently averaging over a stuck chain.
    """
    means, ses = [], []
    for seed in _chain_seeds(params, salt):
        series = _run_chain(geom, group, beta, params, seed,
                            lambda cfg: wilson_action(cfg, geom))
        means.append(float(series.mean()))
        ses.append(_blocked_se(series))
    means = np.array(means)
    ses = np.array(ses)
    if params.chains > 1:
        spread = np.abs(means[:, None] - means[None, :])
        tol = 5.0 * np.sqrt(ses[:, None] ** 2 + ses[None, :] ** 2)
        if np.any(spread > tol):
            raise UnconvergedChain(
                f"chain means {means} disagree beyond 5 sigma (se {ses})")
    return float(means.mean()), float(np.sqrt(np.sum(ses**2)) / len(ses))


@dataclass(frozen=True)
class LogZEstimate:
    value: float
    error: float
    stat_error: float
    grid_error: float
    grid: tuple
    action_means: tuple
    action_errors: tuple


def estimate_log_z(geom: LatticeGeometry, coupling: CouplingSpec,
                   group: GroupSpec, params: MCParams) -> LogZEstimate:
    """ln Z(beta) by trapezoidal thermodynamic integration from beta = 0.

    The beta = 0 point is exact: with Haar normalization <A>_0 = 2n per
    plaquette.  The reported error combines the statistical term with a
    grid-refinement delta |T_h - T_2h| / 3.
    """
    beta = coupling.beta
    grid = np.linspace(0.0, beta, params.beta_grid_points)
    means = [2.0 * group.n * geom.n_plaquettes]
    errors = [0.0]
    for i, b in enumerate(grid[1:], start=1):
        m, e = estimate_mean_action(geom, group, float(b), params, salt=i)
        means.append(m)
        errors.append(e)
    means = np.array(means)
    errors = np.array(errors)
    value = -float(np.trapezoid(means, grid))
    h = grid[1] - grid[0]
    weights = np.full(grid.size, h)
    weights[0] = weights[-1] = h / 2.0
    stat = float(np.sqrt(np.sum((weights * errors) ** 2)))
    coarse = -float(np.trapezoid(means[::2], grid[::2]))
    grid_err = abs(value - coarse) / 3.0
    return LogZEstimate(value=value, error=float(np.hypot(stat, grid_err)),
                        stat_error=stat, grid_error=grid_err,
                        grid=tuple(grid), action_means=tuple(means),
                        action_errors=tuple(errors))


@dataclass(frozen=True)
class StabilityReport:
    """ln Z estimate against the factorized single-bond sandwich."""

    d: int
    L: int
    boundary: str
    n: int
    beta: float
    mc_value: float
    mc_error: float
    lower: float
    upper: float
    lower_exponent: int
    upper_exponent: int

    @property
    def lower_margin_sigma(self) -> float:
        return (self.mc_value - self.lower) / self.mc_error

    @property
    def upper_margin_sigma(self) -> float:
        return (self.upper - self.mc_value) / self.mc_error

    @property
    def passed(self) -> bool:
        return (self.lower_margin_sigma >= -3.0
                and self.upper_margin_sigma >= -3.0)


def verify_stability(L: int, boundary: str, coupling: CouplingSpec,
                     group: GroupSpec, params: MCParams,
                     quad: QuadratureSpec) -> StabilityReport:
    """Check R_low ln z_low <= ln Z^B <= R_up ln z_up by Monte Carlo.

    The upper exponent is the free-pattern retained-bond count for both
    boundary conditions (periodic Z is dominated by free Z); the lower
    exponent gains the wrap bonds under periodic closure.
    """
    geom = build_geometry(coupling.d, L, boundary)
    counts = lattice_counts(coupling.d, L)
    upper_exp = counts.retained_bonds
    lower_exp = counts.retained_bonds + (
        counts.extra_bonds if boundary == "periodic" else 0)
    est = estimate_log_z(geom, coupling, group, params)
    zu = z_upper(coupling, group, quad)
    zl = z_lower(coupling, group, quad)
    return StabilityReport(
        d=coupling.d, L=L, boundary=boundary, n=group.n, beta=coupling.beta,
        mc_value=est.value, mc_error=est.error,
        lower=lower_exp * float(np.log(zl)),
        upper=upper_exp * float(np.log(zu)),
        lower_exponent=lower_exp, upper_exponent=upper_exp)


@dataclass(frozen=True)
class SourceSpec:
    """r external plaquette sources with complex strengths."""

    plaquettes: tuple
    strengths: tuple

    def __post_init__(self):
        if len(self.plaquettes) < 1:
            raise ValueError("need at least one source plaquette")
        if len(self.plaquettes) != len(self.strengths):
            raise ValueError("one strength per plaquette required")

    @property
    def r(self) -> int:
        return len(self.plaquettes)

    def validate_against(self, geom: LatticeGeometry) -> None:
        for p in self.plaquettes:
            if not 0 <= p < geom.n_plaquettes:
                raise InvalidLattice(f"plaquette index {p} outside geometry")


def sample_source_fields(geom: LatticeGeometry, coupling: CouplingSpec,
                         group: GroupSpec, plaquettes, params: MCParams):
    """Per-chain series of tr M over the given plaquettes, shape (meas, r).

    Sampling once and reusing the draws for every source strength keeps the
    finite-difference derivatives on common random numbers.
    """
    indices = np.asarray(plaquettes)
    chains = []
    for seed in _chain_seeds(params, salt=101):
        series = _run_chain(
            geom, group, coupling.beta, params, seed,
            lambda cfg: scaled_field_traces(cfg, geom, coupling, indices))
        chains.append(series)
    return chains


def generating_function_from_samples(chains, strengths):
    """Mean and blocked error of exp(sum_j J_j t_j) over stored samples."""
    strengths = np.asarray(strengths, dtype=np.complex128)
    values, errs = [], []
    for series in chains:
        w = np.exp(series @ strengths)
        values.append(complex(w.mean()))
        errs.append(np.hypot(_blocked_se(w.real), _blocked_se(w.imag)))
    values = np.array(values)
    errs = np.array(errs)
    if len(chains) > 1:
        spread = np.abs(values[:, None] - values[None, :])
        tol = 5.0 * np.sqrt(errs[:, None] ** 2 + errs[None, :] ** 2)
        if np.any(spread > tol + 1e-12):
            raise UnconvergedChain(
                f"generating-function chain values {values} disagree")
    return complex(values.mean()), float(np.sqrt(np.sum(errs**2)) / len(errs))


def estimate_generating_function(geom: LatticeGeometry, coupling: CouplingSpec,
                                 group: GroupSpec, sources: SourceSpec,
                                 params: MCParams):
    """G(J) = <exp(sum_j J_j tr M(p_j))> with statistical error."""
    sources.validate_against(geom)
    chains = sample_source_fields(geom, coupling, group, sources.plaquettes,
                                  params)
    return generating_function_from_samples(chains, sources.strengths)


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    error: float
    step_delta: float
    order: int
    spacing_power: float

    @property
    def physical(self) -> float:
        """Unscaled-field correlation: a^(-d r / 2) times the scaled value."""
        return self.spacing_power * self.value

    @property
    def physical_error(self) -> float:
        return self.spacing_power * self.error


def correlation_from_generating(geom: LatticeGeometry, coupling: CouplingSpec,
                                group: GroupSpec, plaquettes,
                                params: MCParams, h: float = 0.05,
                                step_tol: float = 1e-3) -> CorrelationEstimate:
    """d^r G / dJ_1..dJ_r at J = 0 by central differences on shared samples.

    Richardson-extrapolates the h and h/2 ladders; the leftover |D_{h/2} -
    D_h| is reported and must stay below max(step_tol, 5 sigma), else
    StepTooLarge.  r = 2 with a repeated plaquette index gives the coincident
    second moment.
    """
    plaquettes = tuple(plaquettes)
    r = len(plaquettes)
    if r not in (1, 2):
        raise ValueError("finite-difference correlations implemented for r <= 2")
    chains = sample_source_fields(geom, coupling, group, plaquettes, params)
    if r == 1:
        patterns = [(1.0,), (-1.0,)]
        coeffs = [0.5, -0.5]
    else:
        patterns = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
        coeffs = [0.25, -0.25, -0.25, 0.25]

    def central(step):
        # Per-block derivative values: the J-points share every sample, so
        # differencing inside each block cancels most of the noise.
        block_vals = []
        for series in chains:
            acc = None
            for pattern, coeff in zip(patterns, coeffs):
                w = np.exp(series @ (step * np.asarray(pattern)))
                blocks = _block_means(w.real) * (coeff / step**r)
                acc = blocks if acc is None else acc + blocks
            block_vals.append(acc)
        all_blocks = np.concatenate(block_vals)
        return (float(all_blocks.mean()),
                float(np.std(all_blocks, ddof=1) / np.sqrt(all_blocks.size)))

    d_h, e_h = central(h)
    d_half, e_half = central(h / 2.0)
    value = (4.0 * d_half - d_h) / 3.0
    delta = abs(d_half - d_h)
    error = float(np.hypot(e_half, delta))
    if delta > max(step_tol, 5.0 * e_half):
        raise StepTooLarge(
            f"step-halving moved the derivative by {delta:.3e} (h = {h})")
    return CorrelationEstimate(value=float(value), error=error,
                               step_delta=float(delta), order=r,
                               spacing_power=coupling.a ** (-coupling.d * r / 2.0))


def generating_function_ceiling(L: int, coupling: CouplingSpec, group: GroupSpec,
                 sources: SourceSpec, quad: QuadratureSpec) -> float:
    """Product bound on |G(J)| from single-bond quadrature.

    prod_j envelope(r J_j)^(2^d R / (r S)) / z_low^(2^d (R + E) / (r S))
    with R retained bonds, E wrap bonds, S sites of the periodic lattice.
    """
    counts = lattice_counts(coupling.d, L)
    s = counts.sites
    r = sources.r
    num_exp = 2.0**coupling.d * counts.retained_bonds / (r * s)
    den_exp = (2.0**coupling.d * (counts.retained_bonds + counts.extra_bonds)
               / (r * s))
    zl = z_lower(coupling, group, quad)
    rhs = 1.0
    for j in sources.strengths:
        env = z_upper_source_envelope(r * complex(j), coupling, group, quad)
        rhs *= env**num_exp / zl**den_exp
    return float(rhs)
