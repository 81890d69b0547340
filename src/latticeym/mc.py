"""Metropolis sampling of the Wilson-action model.

Everything downstream of the sampler is an estimate of either

    ln Z(beta) = -int_0^beta <A>_t dt          (thermodynamic integration)

or of the normalized generating function

    G(J) = < exp(sum_j J_j tr M(p_j)) >_beta   (ratio/reweighting form),

both with error bars from blocked per-chain variances (`_chain_mean`, the
one estimator of every Monte Carlo mean), plus a grid-halving term for the
integral.  Plaquette correlations, the derivatives of G at J = 0, are the
sample moments <t_1 ... t_r> of the same chains.  The stability and
generating-function verdicts compare these estimates, with 3 sigma cushions,
against single-bond bounds summed from ln z = ln zeta - (n^2/2) ln beta,
finite where z underflows; the stability bounds come before any chain runs.
Both verdicts fail when some replica never accepted a move.

One sampler drives every chain: the state of R replicas (every beta point
and chain of a thermodynamic integration, or the chains of one estimate) is
a single complex array of shape (n, n, 2 n_bonds + 1, R), the stacked
[U, U^dag, 0] table of `lattice.dagger_table` with the matrix entries
leading and the replicas last.  So every elementwise step of an update
runs over one contiguous run of plaquettes x bonds x replicas per matrix
entry rather than over 1 x 1 to 3 x 3 matrices.  Products and traces are
spelled out entry by entry, and every sum adds in the order np.sum takes
over trailing (n, n) axes, so the trajectories do not depend on the
layout.  Each replica has its own beta, its own tuned step size and its
own random generator, which it calls three times per sweep, sweep after
sweep; the draws and proposal factors of a block of sweeps within one
10-sweep tuning window are made in one go, and every step of them is
elementwise.  Measurements see the table after every sweep, but read it
in one call per block, on copies of the block's tables (fewer sweeps at a
time where the copies would pass the piece budget), through the plaquette
legs of `lattice.leading_traces`, the sampler's trace route.
The action adds its plaquettes in index order at every batch size, so a
replica's series is bit for bit the same whichever replicas share its
batch and however its sweeps and measurements are blocked.

So a batch of R replicas runs in min(usable cores, R // 2) processes, one
consecutive slice each, with series joined in replica order and their
`Diagnostics` joined as minima and maxima: bit for bit one process's result.
Forked processes, not threads: numpy holds the GIL on arrays this small.

Updates are vectorized over the checkerboard classes of the geometry:
within a class no two bonds share a plaquette, so simultaneous Metropolis
decisions with staples gathered from the pre-update configuration are
equivalent to a sequential scan.  A class is read with one gather (its
staple legs and its own bonds) and written back with one scatter (U and
U^dag), in pieces of bounded size where it is large.  Proposals multiply a
bond by exp(i eps u H) with H a Gaussian-direction Lie-algebra element of
unit Hilbert-Schmidt norm and u drawn uniformly from [0.5, 1.5), in closed
form up to U(3); the direction law is sign-symmetric, so the proposal
kernel is symmetric and the acceptance is min(1, e^{-beta dA}).
"""

import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidLattice, ShapeMismatch, UnconvergedChain
from .factorized import lattice_counts
from .groups import (GroupSpec, leading_matmul, leading_sum, leading_unitarity_defect,
                     traceless3_root, unitary_from_coefficients, usable_cores)
from .lattice import (LatticeGeometry, build_geometry, cold_start, dagger_table,
                      leading_action, leading_field_traces)
from .quadrature import QuadratureSpec
from .single_bond import (CouplingSpec, log_z, log_zeta_envelope, log_zeta_lower,
                          log_zeta_upper)

START_EPSILON = 0.7  # every replica's step size before tuning
# A piece of a class holds at most _PIECE_ENTRIES gathered stack entries,
# n^2 (3 P + 1) bonds R (192 KiB), unless that leaves it fewer than
# _PIECE_BONDS bonds.  Whole classes at d = 4, L = 4 page-fault their
# temporaries afresh on every class; each piece costs a fixed ~40 us of
# calls at N = 3.  Measured against 8192 to 65,536 entries, whole classes
# and floors of 1 and 32 bonds.  The same budget caps the n^2 count R k
# proposal entries of a block of k sweeps (`_block_sweeps`): it measured as
# fast as 24,576 entries, while no cap was up to 14% slower at N = 3.  It
# caps the w n^2 (2 n_bonds + 1) R entries of the w table copies measured
# in one call (`_run_batch`) too: at d = 3, L = 4, N = 2, R = 4, measuring
# two copies (12,320 entries) at once took 31-38 minor page faults per
# sweep, against 3-4 one sweep at a time.
_PIECE_ENTRIES = 12_288
_PIECE_BONDS = 48
_N_BLOCKS = 20  # block means behind a chain's standard error (`_blocked_se`)


@dataclass(frozen=True)
class MCParams:
    """Chain-length parameters shared by all estimators."""

    sweeps: int = 400
    thermalization: int = 120
    chains: int = 2
    seed: int = 0
    beta_grid_points: int = 17

    def __post_init__(self):
        # Each message starts with the field it names, so a configuration
        # error can prefix the path ("mc.sweeps: ...").
        if self.thermalization < 0:
            raise ValueError(f"thermalization: must be >= 0, got {self.thermalization}")
        if self.sweeps - self.thermalization < 2:
            # the fewest measurements the blocked error can use
            raise ValueError(f"sweeps: must exceed thermalization ({self.thermalization}) "
                             f"by at least 2, got {self.sweeps}")
        if self.chains < 1:
            raise ValueError(f"chains: need at least one chain, got {self.chains}")
        if self.beta_grid_points < 3 or self.beta_grid_points % 2 == 0:
            # odd count so the half-resolution grid still ends at beta
            raise ValueError(
                f"beta_grid_points: must be odd and >= 3, got {self.beta_grid_points}")


def _proposals(theta, x, n):
    """Symmetric unitary proposal factors exp(i theta H), entries first:
    shape (n, n) + theta.shape.

    H = sum_a x_a T_a / |x| in the basis T_a of `generator_basis(n)`, with
    the components on the first axis of x, (n^2,) + theta.shape; for n = 1,
    x is a uniform draw of theta's shape whose side of 1/2 picks the sign
    of H.
    """
    if n == 1:
        return np.exp(1j * theta * np.where(x < 0.5, 1.0, -1.0))[None, None]
    x = x / np.sqrt(leading_sum(x * x))
    if n == 2:
        # T_a = (sigma_1, sigma_2, sigma_3, 1) / sqrt(2), so exp(i theta H) =
        # e^{i h x_3} (cos(h r) + i sin(h r) x_vec.sigma / r), h = theta / sqrt(2).
        h = theta / np.sqrt(2.0)
        r = np.sqrt(leading_sum(x[:3] * x[:3]))
        c = np.cos(h * r)
        s = h * np.sinc(h * r / np.pi)  # sin(h r) / r, finite at r = 0
        out = np.empty((2, 2) + theta.shape, dtype=np.complex128)
        out[0, 0] = c + 1j * s * x[2]
        out[0, 1] = s * (x[1] + 1j * x[0])
        out[1, 0] = s * (-x[1] + 1j * x[0])
        out[1, 1] = c - 1j * s * x[2]
        return np.exp(1j * h * x[3]) * out
    if n == 3:
        return np.exp(1j * theta * x[8] / np.sqrt(3.0)) * _exp_traceless3(theta * x[:8])
    u = unitary_from_coefficients(np.moveaxis(theta * x, 0, -1), GroupSpec(n))
    return np.moveaxis(u, (-2, -1), (0, 1))


def _exp_traceless3(y):
    """exp(iQ) for the traceless Q = sum_a y_a T_a of su(3), components
    first (8, ...) to entries first (3, 3, ...).

    Cayley-Hamilton: exp(iQ) = f0 + f1 Q + f2 Q^2, with the f_j in closed
    form in the eigenvalues 2u and -u +- w of Q (Morningstar & Peardon,
    Phys. Rev. D 69, 054501 (2004), hep-lat/0311018, eqs. 19-33); a signed u
    covers their c0 < 0 branch.  The f_j see w only through w**2, cos w and
    sin(w)/w, so a degenerate pair costs no accuracy; Q = 0 gives 1.
    """
    diag = (y[6] / np.sqrt(2.0) + y[7] / np.sqrt(6.0), -y[6] / np.sqrt(2.0) + y[7] / np.sqrt(6.0),
            -2.0 * y[7] / np.sqrt(6.0))
    upper = [(y[a] - 1j * y[a + 1]) / np.sqrt(2.0) for a in (0, 2, 4)]
    q = np.empty((3, 3) + y.shape[1:], dtype=np.complex128)
    for i in range(3):
        q[i, i] = diag[i]
    for (i, j), v in zip(((0, 1), (0, 2), (1, 2)), upper):
        q[i, j], q[j, i] = v, np.conj(v)
    x0, p, phi = traceless3_root(diag, upper)
    u, w = 0.5 * x0, np.sqrt(3.0 * p) * np.sin(phi)
    xi0, cos_w = np.sinc(w / np.pi), np.cos(w)
    e2, e1 = np.exp(2j * u), np.exp(-1j * u)
    h = ((u * u - w * w) * e2 + e1 * (8.0 * u * u * cos_w + 2j * u * (3.0 * u * u + w * w) * xi0),
         2.0 * u * e2 - e1 * (2.0 * u * cos_w - 1j * (3.0 * u * u - w * w) * xi0),
         e2 - e1 * (cos_w + 3j * u * xi0))
    den = 9.0 * u * u - w * w  # >= 6 p: vanishes only at Q = 0
    f = [np.divide(hj, den, out=np.full_like(hj, float(j == 0)), where=den > 0.0)
         for j, hj in enumerate(h)]
    out = f[1] * q + f[2] * leading_matmul(q, q)
    for i in range(3):
        out[i, i] += f[0]
    return out


def _draws(rngs, count, n, sweeps):
    """The random numbers of `sweeps` sweeps, three generator calls per
    replica and sweep, sweep after sweep; for n = 1 they are all uniform,
    and one call per replica reads the same doubles.

    Returns amplitudes in [0.5, 1.5) and acceptance thresholds of shape
    (sweeps, count, R) and directions of shape (sweeps, count, R), uniform,
    for n = 1, else (n^2, sweeps, count, R) standard normal, the layouts
    `_proposals` and `_sweep` take.
    """
    if n == 1:
        # uniform(0.5, 1.5) is 0.5 + random() on the same double
        u = np.stack([rng.random((sweeps, 3, count)) for rng in rngs], axis=-1)
        return 0.5 + u[:, 0], u[:, 1], u[:, 2]
    shape = (sweeps, len(rngs), count)
    amplitudes, thresholds = np.empty(shape), np.empty(shape)
    directions = np.empty(shape + (n * n,))
    for s in range(sweeps):
        for rng, a, x, t in zip(rngs, amplitudes[s], directions[s], thresholds[s]):
            a[...] = rng.uniform(0.5, 1.5, size=count)
            rng.standard_normal(out=x)
            rng.random(out=t)
    directions = np.moveaxis(directions, -1, 0)
    return tuple(np.swapaxes(a, -1, -2).copy() for a in (amplitudes, directions, thresholds))


def _sweep(table, geom, beta, factors, thresholds):
    """One update pass over all retained bonds of every replica.

    `table` is the (n, n, 2 n_bonds + 1, R) stacked [U, U^dag, 0] state of
    `dagger_table`, updated in place; beta is an (R,) array, and factors
    (n, n, count, R) and thresholds (count, R) are one sweep of `_proposals`
    and `_draws`, spent on the bonds in the order of `geom.classes`.  Each
    class is walked in consecutive pieces of near-equal size (see
    _PIECE_ENTRIES); its members share no plaquette, so the pieces see the
    same staples as the whole class would.  Returns the acceptance rate of
    each replica.
    """
    n, count, replicas = table.shape[0], thresholds.shape[0], table.shape[-1]
    two_beta = 2.0 * beta  # -beta dA = 2 beta Re tr((U_new - U_old) M)
    accept = np.empty((count, replicas), dtype=bool)
    start = 0
    for rows, scatter_rows in zip(geom.gather_rows, geom.scatter_rows):
        slots, n_c = (rows.shape[0] - 1) // 3, rows.shape[1]
        width = max(_PIECE_BONDS, _PIECE_ENTRIES // (n * n * rows.shape[0] * replicas))
        pieces = -(-n_c // width)  # as few as fit, of near-equal size
        for k in range(pieces):
            bonds = slice(k * n_c // pieces, (k + 1) * n_c // pieces)
            gather, scatter = ((rows, scatter_rows) if pieces == 1 else
                               (rows[:, bonds], scatter_rows.reshape(2, -1)[:, bonds].ravel()))
            stop = start + gather.shape[1]
            g = table.take(gather, axis=2)  # (n, n, 3 P + 1, bonds, R)
            staples = leading_matmul(leading_matmul(g[:, :, :slots], g[:, :, slots:2 * slots]),
                                     g[:, :, 2 * slots:3 * slots])
            u_old = g[:, :, -1]
            u_new = leading_matmul(factors[:, :, start:stop], u_old)
            # Re tr((U_new - U_old) M), summed as np.sum sums over trailing (n, n) axes
            terms = ((u_new - u_old) * staples.sum(axis=2).swapaxes(0, 1)).real
            terms = terms.reshape((n * n,) + terms.shape[2:])
            exponent = terms.sum(axis=0) if n * n < 8 else leading_sum(terms)
            exponent *= two_beta
            np.exp(np.minimum(exponent, 0.0, out=exponent), out=exponent)
            ok = accept[start:stop]
            np.less(thresholds[start:stop], exponent, out=ok)
            np.copyto(u_old, u_new, where=ok)
            table[:, :, scatter] = np.concatenate([u_old, u_old.swapaxes(0, 1).conj()], axis=2)
            start = stop
    return accept.sum(axis=0) / count


def metropolis_sweep(u: np.ndarray, geom: LatticeGeometry, beta: float,
                     epsilon: float, rng, group: GroupSpec) -> float:
    """One in-place update pass over the retained bonds; returns acceptance rate."""
    if getattr(u, "dtype", None) != np.complex128 or u.shape != (geom.n_bonds, group.n, group.n):
        raise ShapeMismatch(f"expected complex128 {(geom.n_bonds, group.n, group.n)} bonds, "
                            f"got {getattr(u, 'dtype', type(u).__name__)} {np.shape(u)}")
    table = dagger_table(u[None])
    amplitudes, directions, thresholds = _draws([rng], sum(c.size for c in geom.classes),
                                                group.n, 1)
    factors = _proposals(epsilon * amplitudes, directions, group.n)
    rate = _sweep(table, geom, np.array([beta]), factors[:, :, 0], thresholds[0])
    u[...] = np.moveaxis(table[:, :, :geom.n_bonds, 0], 2, 0)
    return float(rate[0])


@dataclass(frozen=True)
class Diagnostics:
    """How the chains of a replica batch behaved, under their report keys: the
    lowest measurement-phase acceptance rate, the largest end-of-chain
    ||U^dag U - 1||, and the lowest and highest tuned step size over replicas."""

    accept_min: float
    unitarity_defect: float
    epsilon_min: float
    epsilon_max: float

    def join(self, other: "Diagnostics") -> "Diagnostics":
        """The diagnostics of this slice of replicas and the next as one batch."""
        return Diagnostics(min(self.accept_min, other.accept_min),
                           max(self.unitarity_defect, other.unitarity_defect),
                           min(self.epsilon_min, other.epsilon_min),
                           max(self.epsilon_max, other.epsilon_max))


@dataclass(frozen=True)
class ChainSamples:
    """Measurement series of a replica batch, (R, measurements, ...) with one
    row per replica, and the sampler's `Diagnostics` over those replicas."""

    series: np.ndarray
    diagnostics: Diagnostics


def _block_sweeps(count, n, replicas):
    """Sweeps per block, a divisor of the 10-sweep window: the largest k of
    10, 5, 2 whose k n^2 count R proposal entries fit _PIECE_ENTRIES, else 1."""
    return next((k for k in (10, 5, 2) if k * n * n * count * replicas <= _PIECE_ENTRIES), 1)


def _run_replicas(geom, group, betas, seeds, params, measure) -> ChainSamples:
    """`_run_batch` in consecutive slices of near-equal size, the first here
    and one in a forked child per further worker (module docstring).  The
    first exception in replica order is raised here; a slice that cannot be
    forked runs here, and no child outlives the call."""
    workers = 1  # fork copies only the calling thread
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = max(1, min(usable_cores(), len(seeds) // 2))
    bounds = [k * len(seeds) // workers for k in range(workers + 1)]
    parts = [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def run(part):
        return _run_batch(geom, group, betas[part], seeds[part], params, measure)

    children, results = {}, []
    try:
        try:
            for k in range(1, workers):
                children[k] = _fork(run, parts[k])
        except OSError:
            pass  # the slices left unforked run here, in order
        for k, part in enumerate(parts):
            if k not in children:
                results.append(run(part))
                continue
            pid, pipe = children[k]
            data = b"".join(iter(lambda: os.read(pipe, 1 << 16), b""))
            del children[k]
            os.close(pipe)
            status = os.waitpid(pid, 0)[1]
            value = pickle.loads(data) if data else ChildProcessError(
                f"replica worker ended with wait status {status} and no result")
            if isinstance(value, BaseException):
                raise value
            results.append(value)
    finally:
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            os.close(pipe)
            os.waitpid(pid, 0)
    return ChainSamples(series=np.concatenate([r.series for r in results]),
                        diagnostics=reduce(Diagnostics.join, (r.diagnostics for r in results)))


def _fork(run, part):
    """Fork a child that pickles run(part), or the exception it raised, into
    a pipe and leaves by os._exit; returns its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            try:
                payload = run(part)
            except BaseException as exc:  # raised again by the parent
                payload = exc
            with os.fdopen(write, "wb") as out:
                out.write(pickle.dumps(payload))
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def _run_batch(geom, group, betas, seeds, params, measure) -> ChainSamples:
    """Thermalize R replicas from a cold start, tuning each step size from
    START_EPSILON, then measure after every sweep.

    Each phase runs from its own start in blocks of `_block_sweeps` sweeps,
    a divisor of 10, each drawn by one `_draws` and one `_proposals` call;
    only a phase's last block may be shorter.  After each full 10-sweep
    thermalization window, a replica's step size grows by 1.2 (at most pi)
    if its acceptance, summed sweep by sweep, exceeded 0.6 and shrinks by
    1.2 if it fell below 0.4.

    A measuring block copies the table after each sweep into an (n, n,
    2 n_bonds + 1, w, R) buffer and calls `measure` once per w sweeps, and
    once on the block's last few; w is as many copies as fit _PIECE_ENTRIES,
    as a gathered class piece does, at most the block.  At w = 1 `measure`
    sees the live table, never a copy.  It maps the buffer to (w, R, ...),
    one row per sweep and replica; every measurement is elementwise over
    the trailing axes, so the rows are those of one call per sweep.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    betas = np.asarray(betas, dtype=np.float64)
    table = dagger_table(np.repeat(cold_start(geom, group.n)[None], len(rngs), axis=0))
    n, count = group.n, sum(c.size for c in geom.classes)
    block = _block_sweeps(count, n, len(rngs))
    width = min(block, max(1, _PIECE_ENTRIES // table.size))
    states = (table[:, :, :, None] if width == 1 else
              np.empty(table.shape[:3] + (width,) + table.shape[3:], dtype=table.dtype))
    epsilon = np.full(len(rngs), START_EPSILON)
    n_meas = params.sweeps - params.thermalization
    samples = []
    for total, measuring in ((params.thermalization, False), (n_meas, True)):
        accepted = np.zeros(len(rngs))
        for first in range(0, total, block):
            k = min(block, total - first)
            amplitudes, directions, thresholds = _draws(rngs, count, n, k)
            factors = _proposals(epsilon * amplitudes, directions, n)
            for j in range(k):
                accepted += _sweep(table, geom, betas, factors[:, :, j], thresholds[j])
                if measuring:
                    if width > 1:
                        states[:, :, :, j % width] = table
                    if j % width == width - 1 or j == k - 1:
                        samples.append(measure(states[:, :, :, :j % width + 1]))
            if not measuring and (first + k) % 10 == 0:
                rate = accepted / 10
                epsilon = np.where(rate > 0.6, np.minimum(np.pi, epsilon * 1.2),
                                   np.where(rate < 0.4, epsilon / 1.2, epsilon))
                accepted[:] = 0.0
    series = np.ascontiguousarray(np.concatenate(samples).swapaxes(0, 1))
    return ChainSamples(series=series, diagnostics=Diagnostics(
        accept_min=float(np.min(accepted) / n_meas),
        unitarity_defect=leading_unitarity_defect(table[:, :, :geom.n_bonds]),
        epsilon_min=float(np.min(epsilon)), epsilon_max=float(np.max(epsilon))))


def _blocked_se(series):
    """Standard error of the mean of a real series from up to _N_BLOCKS block means."""
    n_blocks = min(_N_BLOCKS, max(2, series.size // 5))
    usable = (series.size // n_blocks) * n_blocks
    blocks = series[:usable].reshape(n_blocks, -1).mean(axis=1)
    return float(np.std(blocks, ddof=1) / np.sqrt(blocks.size))


def _chain_seeds(params, salt):
    root = np.random.SeedSequence(entropy=params.seed, spawn_key=(salt,))
    return root.spawn(params.chains)


def _chain_mean(series):
    """Mean over chains of per-chain means, with a blocked standard error.

    `series` is a (chains, meas) array, real or complex; the error of a
    chain is the hypot of the blocked errors of its real and imaginary
    parts.  Chains are compared pairwise; a discrepancy beyond 5 sigma
    (plus 1e-12 for rounding when every error is 0) raises UnconvergedChain
    rather than silently averaging over a stuck chain.  Returns a Python
    float or complex mean and a float error.
    """
    means = series.mean(axis=1)
    ses = np.array([np.hypot(_blocked_se(chain.real), _blocked_se(chain.imag))
                    for chain in series])
    if means.size > 1:
        spread = np.abs(means[:, None] - means[None, :])
        tol = 5.0 * np.sqrt(ses[:, None] ** 2 + ses[None, :] ** 2)
        if np.any(spread > tol + 1e-12):
            raise UnconvergedChain(
                f"chain means {means} disagree beyond 5 sigma (se {ses})")
    return means.mean().item(), float(np.sqrt(np.sum(ses**2)) / len(ses))


def estimate_mean_action(geom: LatticeGeometry, group: GroupSpec, beta: float,
                         params: MCParams):
    """<A^B> at inverse coupling beta, with a blocked standard error.

    The chains run as one replica batch; see `_chain_mean` for the
    cross-chain check.
    """
    samples = _run_replicas(geom, group, [beta] * params.chains,
                            _chain_seeds(params, salt=0), params,
                            lambda table: leading_action(table, geom))
    return _chain_mean(samples.series)


@dataclass(frozen=True)
class LogZEstimate:
    value: float
    error: float
    stat_error: float
    grid_error: float
    grid: tuple
    action_means: tuple
    action_errors: tuple
    diagnostics: Diagnostics


def estimate_log_z(geom: LatticeGeometry, coupling: CouplingSpec,
                   group: GroupSpec, params: MCParams) -> LogZEstimate:
    """ln Z(beta) by trapezoidal thermodynamic integration from beta = 0.

    The beta = 0 point is exact: with Haar normalization <A>_0 = 2n per
    plaquette.  The reported error combines the statistical term with a
    grid-refinement delta |T_h - T_2h| / 3.  Every (beta point i, chain c)
    pair is one replica of a single batch, seeded from
    `_chain_seeds(params, salt=i)[c]`.
    """
    beta = coupling.beta
    grid = np.linspace(0.0, beta, params.beta_grid_points)
    betas = np.repeat(grid[1:], params.chains)
    seeds = [seed for i in range(1, grid.size) for seed in _chain_seeds(params, salt=i)]
    samples = _run_replicas(geom, group, betas, seeds, params,
                            lambda table: leading_action(table, geom))
    per_point = samples.series.reshape(grid.size - 1, params.chains, -1)
    means = [2.0 * group.n * geom.n_plaquettes]
    errors = [0.0]
    for series in per_point:
        m, e = _chain_mean(series)
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
                        action_errors=tuple(errors), diagnostics=samples.diagnostics)


@dataclass(frozen=True)
class StabilityReport:
    """ln Z estimate against the factorized single-bond sandwich, with the
    `Diagnostics` of the chains behind the estimate."""

    mc_value: float
    mc_error: float
    lower: float
    upper: float
    lower_exponent: int
    upper_exponent: int
    diagnostics: Diagnostics

    @property
    def lower_margin_sigma(self) -> float:
        return (self.mc_value - self.lower) / self.mc_error

    @property
    def upper_margin_sigma(self) -> float:
        return (self.upper - self.mc_value) / self.mc_error

    @property
    def passed(self) -> bool:
        """Both 3-sigma margins hold and every replica accepted a move.

        A replica that never moved has a zero-width error bar, or one set by
        the beta grid alone, so its margins prove nothing.
        """
        return (self.diagnostics.accept_min > 0.0
                and self.lower_margin_sigma >= -3.0
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
    # the bounds come first, so an unresolved integral fails before any chain runs
    upper = upper_exp * log_z(log_zeta_upper(coupling, group, quad)[0], coupling, group)
    lower = lower_exp * log_z(log_zeta_lower(coupling, group, quad)[0], coupling, group)
    est = estimate_log_z(geom, coupling, group, params)
    return StabilityReport(mc_value=est.value, mc_error=est.error, lower=lower, upper=upper,
                           lower_exponent=lower_exp, upper_exponent=upper_exp,
                           diagnostics=est.diagnostics)


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


def sample_source_fields(geom: LatticeGeometry, coupling: CouplingSpec,
                         group: GroupSpec, plaquettes, params: MCParams) -> ChainSamples:
    """Samples of tr M over the given plaquettes: series of shape (chains, meas, r).

    Every index must lie in [0, n_plaquettes), else InvalidLattice.
    """
    outside = [p for p in plaquettes if not 0 <= p < geom.n_plaquettes]
    if outside:
        raise InvalidLattice(f"plaquette indices {outside} outside "
                             f"[0, {geom.n_plaquettes}) of this geometry")
    indices = np.asarray(plaquettes)
    return _run_replicas(
        geom, group, [coupling.beta] * params.chains, _chain_seeds(params, salt=101),
        params, lambda table: leading_field_traces(table, geom, coupling, indices))


def generating_function_from_samples(chains, strengths):
    """Mean and blocked error of exp(sum_j J_j t_j) over stored samples."""
    w = np.exp(np.asarray(chains) @ np.asarray(strengths, dtype=np.complex128))
    return _chain_mean(w)


def estimate_generating_function(geom: LatticeGeometry, coupling: CouplingSpec,
                                 group: GroupSpec, sources: SourceSpec,
                                 params: MCParams):
    """G(J) = <exp(sum_j J_j tr M(p_j))> with statistical error."""
    samples = sample_source_fields(geom, coupling, group, sources.plaquettes,
                                   params)
    return generating_function_from_samples(samples.series, sources.strengths)


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    error: float
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
                                params: MCParams) -> CorrelationEstimate:
    """d^r G / dJ_1..dJ_r at J = 0: the sample moment <t_1 ... t_r>.

    Any order r; a repeated plaquette index gives a coincident moment.
    """
    plaquettes = tuple(plaquettes)
    r = len(plaquettes)
    chains = sample_source_fields(geom, coupling, group, plaquettes, params).series
    value, error = _chain_mean(np.prod(chains, axis=-1))
    return CorrelationEstimate(value=value, error=error, order=r,
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
    log_zl = log_z(log_zeta_lower(coupling, group, quad)[0], coupling, group)
    log_rhs = 0.0  # summed in logarithms: each power alone can leave float range
    for j in sources.strengths:
        log_env = log_z(log_zeta_envelope(r * complex(j), coupling, group, quad)[0],
                        coupling, group)
        log_rhs += num_exp * log_env - den_exp * log_zl
    with np.errstate(over="ignore"):  # an inf ceiling is reported as non-finite
        return float(np.exp(log_rhs))
