"""Monte Carlo tests: sampler correctness, free energies, bound verdicts.

The d = 2 free-boundary model factorizes exactly, so its Bessel closed forms
serve as absolute oracles for the sampler + thermodynamic-integration stack:

    z(beta)   = e^{-2 beta} I_0(2 beta)
    <A_p>     = 2 (1 - I_1(2 beta) / I_0(2 beta))

Statistical assertions use 3-4 sigma windows on seeded chains, so they are
deterministic in practice.
"""

import os
import threading

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2

from latticeym import mc
from latticeym.errors import InvalidLattice, ResolutionTooLow, ShapeMismatch, UnconvergedChain
from latticeym.factorized import lattice_counts, plaquette_moment
from latticeym.groups import (GroupSpec, generator_basis, haar_sample_batch,
                              quadratic_bound_scan, quadratic_bound_sides, unitarity_defect)
from latticeym.lattice import (build_geometry, cold_start, dagger_table, leading_action,
                               leading_field_traces)
from latticeym.mc import (MCParams, SourceSpec, generating_function_from_samples,
                          correlation_from_generating, estimate_generating_function,
                          estimate_log_z, estimate_mean_action, metropolis_sweep,
                          generating_function_ceiling, sample_source_fields,
                          verify_stability, _chain_mean, _chain_seeds, _proposals,
                          _run_replicas)
from latticeym.quadrature import QuadratureSpec, weyl_integrate
from latticeym.single_bond import CouplingSpec, z_lower, z_upper

from conftest import per_sweep_replicas, serial_sweep

# ln z(1) for N = 1, d = 2 (beta = 1), from the Bessel series oracle in
# test_single_bond.py.
LOG_Z_N1_BETA1 = np.log(0.308508322553671)

# <A_p> = 2 (1 - I1(2)/I0(2)) on a single plaquette at beta = 1.
MEAN_ACTION_BETA1 = 0.6044506840719841


def test_mcparams_validation():
    with pytest.raises(ValueError):
        MCParams(sweeps=10, thermalization=20)
    with pytest.raises(ValueError):
        MCParams(sweeps=20, thermalization=20)  # no measurement sweeps
    with pytest.raises(ValueError, match="^sweeps: "):
        MCParams(sweeps=21, thermalization=20)  # one measurement: no blocked error
    assert MCParams(sweeps=22, thermalization=20).sweeps == 22
    with pytest.raises(ValueError, match="^thermalization: must be >= 0"):
        MCParams(sweeps=5, thermalization=-3, chains=1)  # would measure 8 sweeps
    assert MCParams(sweeps=2, thermalization=0).thermalization == 0
    with pytest.raises(ValueError):
        MCParams(chains=0)
    with pytest.raises(ValueError):
        MCParams(beta_grid_points=16)  # even grids break the half-grid check


def test_beta_zero_accepts_everything():
    geom = build_geometry(2, 4, "free")
    cfg = cold_start(geom, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert metropolis_sweep(cfg, geom, 0.0, 0.7, rng, GroupSpec(1)) == 1.0


def test_sweep_refuses_foreign_configurations():
    # The sweep writes into its argument, so it takes only a complex128
    # array of the exact shape; numpy would drop imaginary parts silently.
    geom = build_geometry(2, 2, "free")
    rng, group = np.random.default_rng(0), GroupSpec(2)
    cfg = cold_start(geom, 2)
    for bad in (cfg.real.copy(), cfg.astype(np.complex64), cfg.tolist()):
        with pytest.raises(ShapeMismatch, match="got (float64|complex64|list)"):
            metropolis_sweep(bad, geom, 1.0, 0.7, rng, group)
    for bad in (cfg[:-1], cfg[None], cold_start(geom, 1)):
        with pytest.raises(ShapeMismatch):
            metropolis_sweep(bad, geom, 1.0, 0.7, rng, group)
    assert np.all(cfg == cold_start(geom, 2))


def test_fixed_seed_reproducible():
    geom = build_geometry(2, 4, "free")
    params = MCParams(sweeps=80, thermalization=30, seed=42)
    first = estimate_mean_action(geom, GroupSpec(1), 1.0, params)
    second = estimate_mean_action(geom, GroupSpec(1), 1.0, params)
    assert first == second


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_preserves_unitarity(n):
    # n = 2 and n = 3 are the two closed-form proposals.
    geom = build_geometry(2, 2, "periodic")
    cfg = cold_start(geom, n)
    rng = np.random.default_rng(7)
    for _ in range(200):
        metropolis_sweep(cfg, geom, 0.8, 0.9, rng, GroupSpec(n))
    assert unitarity_defect(cfg) < 1e-12


def test_mean_action_matches_quadrature():
    # d = 2, L = 2, free: a single retained bond driving a single plaquette.
    geom = build_geometry(2, 2, "free")
    params = MCParams(sweeps=4000, thermalization=300, seed=3, chains=2)
    mean, se = estimate_mean_action(geom, GroupSpec(1), 1.0, params)
    assert abs(mean - MEAN_ACTION_BETA1) < 4 * se


def test_detailed_balance_chi_square():
    # Empirical stationary law of the single retained angle vs the Boltzmann
    # density exp(-2 beta (1 - cos theta)), 20 bins, 1% level.
    geom = build_geometry(2, 2, "free")
    bond = int(np.flatnonzero(~geom.fixed_mask)[0])
    beta, epsilon = 1.0, 1.8
    rng = np.random.default_rng(314)
    cfg = cold_start(geom, 1)
    group = GroupSpec(1)
    for _ in range(300):
        metropolis_sweep(cfg, geom, beta, epsilon, rng, group)
    angles = np.empty(15000)
    for k in range(angles.size):
        for _ in range(5):
            metropolis_sweep(cfg, geom, beta, epsilon, rng, group)
        angles[k] = np.angle(cfg[bond, 0, 0])
    edges = np.linspace(-np.pi, np.pi, 21)
    observed, _ = np.histogram(angles, bins=edges)
    theta = np.linspace(-np.pi, np.pi, 40001)
    density = np.exp(-2 * beta * (1 - np.cos(theta)))
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2)])
    cdf /= cdf[-1]
    expected = np.diff(np.interp(edges, theta, cdf)) * angles.size
    stat = np.sum((observed - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.99, df=edges.size - 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_replica_independent_of_its_batch(n, monkeypatch):
    # Each replica draws from its own generator a fixed number of times per
    # sweep, and the action adds its plaquettes in one order at every batch
    # size, so its series must not depend on which replicas run beside it.
    # d=2, L=2 free retains one bond, a class of one member: there every
    # class sum of a lone replica runs over a single trailing element.
    # One usable core keeps the four replicas in one table of one process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    params = MCParams(sweeps=50, thermalization=30, seed=4, chains=4)
    seeds = _chain_seeds(params, salt=1)
    betas = [0.3, 0.9, 1.4, 2.0]
    lone_bond = build_geometry(2, 2, "free")
    assert [c.size for c in lone_bond.classes] == [1]
    for geom in (build_geometry(3, 2, "periodic"), lone_bond):
        def run(which):
            return _run_replicas(geom, GroupSpec(n), [betas[i] for i in which],
                                 [seeds[i] for i in which], params,
                                 lambda table: leading_action(table, geom)).series
        batch = run([0, 1, 2, 3])
        for i in (0, 2):
            alone = run([i])
            np.testing.assert_array_equal(alone[0], batch[i])


def _forks(monkeypatch, fail=None):
    """Record the forks of the calling process; with `fail`, raise OSError
    instead of forking from the fork of that number on (1 = the first)."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        if fail is not None and len(calls) >= fail:
            raise OSError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _action_batch(geom, n, replicas):
    params = MCParams(sweeps=32, thermalization=20, seed=5, chains=replicas)
    betas = np.linspace(0.2, 2.0, replicas)
    return lambda: _run_replicas(geom, GroupSpec(n), betas, _chain_seeds(params, salt=2),
                                 params, lambda table: leading_action(table, geom))


@pytest.mark.parametrize("boundary", ["free", "periodic"])
@pytest.mark.parametrize("n,replicas,cores", [
    (1, 4, 2), (2, 4, 2), (3, 4, 2), (4, 4, 2), (1, 5, 2), (2, 5, 3), (3, 5, 2),
    (4, 5, 2), (1, 32, 2), (2, 32, 4), (3, 32, 3)])
def test_forked_batch_matches_one_process(n, replicas, cores, boundary, monkeypatch):
    # Every replica's series is independent of its batch, so the slices of
    # W = min(cores, R // 2) processes, joined in replica order, equal one
    # process bit for bit; R = 5 splits unevenly, n = 4 runs eigh in a child.
    run = _action_batch(build_geometry(3, 2, boundary), n, replicas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    forks = _forks(monkeypatch)
    forked = run()
    assert len(forks) == min(cores, replicas // 2) - 1 and _no_children()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = run()
    assert len(forks) == min(cores, replicas // 2) - 1
    np.testing.assert_array_equal(forked.series, alone.series)
    assert forked.diagnostics == alone.diagnostics
    assert forked.diagnostics.accept_min > 0.0


def test_refused_fork_runs_the_slice_here(monkeypatch):
    # The second of three forks fails: its slice and the next run in the
    # calling process, after the one child's, and the result is unchanged.
    run = _action_batch(build_geometry(3, 2, "periodic"), 2, 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = run()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forks = _forks(monkeypatch, fail=2)
    forked = run()
    assert len(forks) == 2 and _no_children()
    np.testing.assert_array_equal(forked.series, alone.series)
    assert forked.diagnostics == alone.diagnostics


@pytest.mark.parametrize("failing,raised", [
    ((1,), UnconvergedChain("slice 1")), ((2, 3), MemoryError("slice 2")),
    ((0, 1), InvalidLattice("slice 0")), ((3,), KeyError("slice 3"))])
def test_slice_exception_reaches_caller(failing, raised, monkeypatch):
    # Slices 1-3 of R = 8 at four workers run in children, slice 0 here.
    # The first failing slice in replica order gives the exception, with its
    # type and message; every child is reaped, including the ones still
    # running when the calling process's own slice raised.
    run, parent, batch = _action_batch(build_geometry(3, 2, "free"), 1, 8), os.getpid(), mc._run_batch
    starts = np.linspace(0.2, 2.0, 8)[::2]

    def failing_slice(geom, group, betas, seeds, *rest):
        k = int(np.flatnonzero(starts == betas[0])[0])
        assert (os.getpid() == parent) == (k == 0)
        if k in failing:
            raise type(raised)(f"slice {k}")
        return batch(geom, group, betas, seeds, *rest)

    monkeypatch.setattr(mc, "_run_batch", failing_slice)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forks = _forks(monkeypatch)
    with pytest.raises(type(raised)) as caught:
        run()
    assert str(caught.value) == str(raised)
    assert len(forks) == 3 and _no_children()


def test_child_dying_without_result_raises(monkeypatch):
    # A child killed before it reports (as by the kernel's out-of-memory
    # killer) leaves an empty pipe: ChildProcessError, and no zombie.
    run, parent, batch = _action_batch(build_geometry(3, 2, "free"), 1, 4), os.getpid(), mc._run_batch

    def killed(*args):
        if os.getpid() != parent:
            os._exit(9)
        return batch(*args)

    monkeypatch.setattr(mc, "_run_batch", killed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ChildProcessError, match="no result"):
        run()
    assert _no_children()


@pytest.mark.parametrize("replicas,cores", [(2, 4), (3, 4), (8, 1)])
def test_no_fork_below_two_workers(replicas, cores, monkeypatch):
    # R < 4, or one usable core, leaves a single worker: no fork.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    forks = _forks(monkeypatch, fail=1)
    _action_batch(build_geometry(3, 2, "free"), 2, replicas)()
    assert forks == [] and _no_children()


def test_no_fork_beside_another_thread_or_without_affinity(monkeypatch):
    # A fork copies only the calling thread, and a platform without CPU
    # affinity (macOS, Windows) runs one process.
    run = _action_batch(build_geometry(3, 2, "free"), 2, 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _forks(monkeypatch, fail=1)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        run()
    finally:
        release.set()
        waiting.join()
    monkeypatch.delattr(os, "sched_getaffinity")
    run()
    assert forks == [] and _no_children()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d,L,boundary", [(3, 4, "free"), (3, 4, "periodic"),
                                          (4, 2, "periodic"), (2, 4, "periodic"),
                                          (4, 2, "free")])
def test_sweep_matches_serial_reference(d, L, boundary, n):
    # Two batched sweeps from a Haar-random start against the bond-by-bond
    # reference of conftest on the same block of draws and factors: same
    # acceptances, same bond matrices after each.
    # Every replica accepts and rejects some move over the two sweeps.
    geom = build_geometry(d, L, boundary)
    group = GroupSpec(n)
    beta, epsilon = np.array([0.4, 1.0, 2.5]), np.array([1.2, 0.8, 0.5])
    start = haar_sample_batch(group, np.random.default_rng(9), 3 * geom.n_bonds)
    start = start.reshape(3, geom.n_bonds, n, n)
    table = dagger_table(start)
    u = start.copy()
    rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
    retained = np.count_nonzero(~geom.fixed_mask)
    amplitudes, directions, thresholds = mc._draws(rngs, retained, n, 2)
    factors = _proposals(epsilon * amplitudes, directions, n)
    total = 0
    for k in range(2):
        rates = mc._sweep(table, geom, beta, factors[:, :, k], thresholds[k])
        accepted = serial_sweep(u, geom, beta, factors[:, :, k], thresholds[k])
        assert np.array_equal(np.rint(rates * retained), accepted)
        batched = np.moveaxis(table[:, :, :geom.n_bonds], (0, 1, 2), (-2, -1, -3))
        assert np.max(np.abs(batched - u)) < 1e-13
        total = total + accepted
    assert np.all((0 < total) & (total < 2 * retained))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d,L", [(3, 4), (4, 2)])
def test_sweep_independent_of_pieces(d, L, n, monkeypatch):
    # Members of a class share no plaquette and no staple, so one bond per
    # piece gives the same table bit for bit as whole classes.
    geom = build_geometry(d, L, "periodic")
    group = GroupSpec(n)
    beta, epsilon = np.array([0.4, 1.0, 2.5]), np.array([1.2, 0.8, 0.5])
    start = haar_sample_batch(group, np.random.default_rng(9), 3 * geom.n_bonds)

    rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
    amplitudes, directions, thresholds = mc._draws(rngs, np.count_nonzero(~geom.fixed_mask), n, 5)
    factors = _proposals(epsilon * amplitudes, directions, n)

    def run():
        table = dagger_table(start.reshape(3, geom.n_bonds, n, n))
        rates = [mc._sweep(table, geom, beta, factors[:, :, k], thresholds[k])
                 for k in range(5)]
        return table, np.array(rates)

    whole = run()
    monkeypatch.setattr(mc, "_PIECE_ENTRIES", 1)
    monkeypatch.setattr(mc, "_PIECE_BONDS", 1)
    pieces = run()
    np.testing.assert_array_equal(pieces[0], whole[0])
    np.testing.assert_array_equal(pieces[1], whole[1])


@pytest.mark.parametrize("n,d,L,boundary", [(1, 3, 2, "periodic"), (2, 3, 2, "periodic"),
                                             (3, 3, 2, "periodic"), (4, 3, 2, "periodic"),
                                             (2, 3, 4, "periodic")])
def test_blocked_draws_match_per_sweep_reference(n, d, L, boundary):
    # The draws, proposals and measurements of a block of sweeps against one
    # _draws, one _proposals and one measure call per sweep (conftest):
    # every step is elementwise, so the chains agree bit for bit.  58/23
    # sweeps end both phases in a short block; 40/20 end both on a window
    # edge, so the last thermalization window retunes; 2/0 has no
    # thermalization.  n = 4 is the eigh route; at d=3, L=4 the entry budget
    # cuts the block below the 10-sweep window.  The copies of the table
    # measured at once fit the same budget: n = 3 and 4 and d=3, L=4 measure
    # a block in two or three calls.
    geom = build_geometry(d, L, boundary)
    block = mc._block_sweeps(np.count_nonzero(~geom.fixed_mask), n, 3)
    assert 1 < block < 10 if L == 4 else block == 10
    _assert_matches_per_sweep_reference(geom, GroupSpec(n))


def test_one_sweep_blocks_measure_the_live_table(monkeypatch):
    # An entry budget of 1 leaves one sweep per block, measured on the live
    # table rather than on a copy.
    monkeypatch.setattr(mc, "_PIECE_ENTRIES", 1)
    geom = build_geometry(3, 2, "periodic")
    assert mc._block_sweeps(np.count_nonzero(~geom.fixed_mask), 2, 3) == 1
    _assert_matches_per_sweep_reference(geom, GroupSpec(2))


def _assert_matches_per_sweep_reference(geom, group):
    """_run_replicas against conftest.per_sweep_replicas, bit for bit, for
    the action and for the field traces of two plaquettes, one repeated."""
    coupling = CouplingSpec(d=geom.d, a=1.0, g2=2.0)
    measures = (lambda table: leading_action(table, geom),
                lambda table: leading_field_traces(table, geom, coupling, np.array([5, 0, 5])))
    for sweeps, thermalization in ((58, 23), (40, 20), (2, 0)):
        params = MCParams(sweeps=sweeps, thermalization=thermalization, seed=6, chains=3)
        betas, seeds = [0.3, 1.0, 2.5], _chain_seeds(params, salt=0)
        for measure in measures:
            got, want = (run(geom, group, betas, seeds, params, measure)
                         for run in (_run_replicas, per_sweep_replicas))
            np.testing.assert_array_equal(got.series, want.series)
            assert got.diagnostics == want.diagnostics
        # untuned, the n = 3 replica at beta = 2.5 may not move in two sweeps
        assert got.diagnostics.accept_min > 0.0 or thermalization == 0


def test_block_falls_to_one_sweep_on_large_lattices():
    # d=4, L=8 periodic, N=3, 34 replicas: one sweep's proposal stack alone
    # passes the entry budget, so draws and factors come one sweep at a time.
    # Counted from the shape, without a geometry or a table.
    counts = lattice_counts(4, 8)
    assert mc._block_sweeps(counts.retained_bonds + counts.extra_bonds, 3, 34) == 1
    counts = lattice_counts(3, 4)  # the mc-genfun shape draws whole windows
    assert mc._block_sweeps(counts.retained_bonds + counts.extra_bonds, 2, 2) == 10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proposal_matches_expm(n):
    # n = 2 and n = 3 are the closed forms, n = 4 the eigh route.
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, np.pi, size=200)
    x = rng.standard_normal((200, n * n))
    x[0, :-1] = 0.0  # pure phase: identity direction only
    x[1, -1] = 0.0  # traceless direction
    got = np.moveaxis(_proposals(theta, x.T, n), -1, 0)  # entries first to a stack
    h = np.einsum("ca,aij->cij", x / np.linalg.norm(x, axis=1, keepdims=True),
                  generator_basis(n))
    for k in range(theta.size):
        assert np.max(np.abs(got[k] - expm(1j * theta[k] * h[k]))) < 1e-13
        assert unitarity_defect(got[k]) < 1e-13


def _mp_expm(h):
    """exp(i h) of a Hermitian matrix in 40-digit arithmetic."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix([[1j * complex(v) for v in row] for row in h]))
        return np.array([[complex(e[i, j]) for j in range(len(h))] for i in range(len(h))])


def test_u3_proposal_matches_mpmath():
    # The Cayley-Hamilton branch at Q = 0, at the degenerate spectrum
    # 0.3 (1, 1, -2), which has c0 = -c0_max, at c0 = +c0_max, and at random
    # directions with and without a trace part, across the amplitudes of a
    # tuned chain.
    rng = np.random.default_rng(11)
    basis = generator_basis(3)
    x = np.vstack([np.eye(9)[[0, 7, 7]], rng.standard_normal((12, 9))])
    x[3:6, 8] = 0.0
    theta = np.concatenate([[0.0, 0.3 * np.sqrt(6.0), -0.3 * np.sqrt(6.0)],
                            rng.uniform(0.0, 1.5 * np.pi, 12)])
    got = np.moveaxis(_proposals(theta, x.T, 3), -1, 0)
    h = np.einsum("ca,aij->cij", x / np.linalg.norm(x, axis=1, keepdims=True), basis)
    for k in range(theta.size):
        assert np.max(np.abs(got[k] - _mp_expm(theta[k] * h[k]))) < 1e-14
        assert unitarity_defect(got[k]) < 1e-14
    assert np.array_equal(got[0], np.eye(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_forms_call_no_eigensolver(n, monkeypatch):
    # Up to U(3) the quadratic-bound sides, its scan and the proposals are
    # closed forms.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called")

    rng = np.random.default_rng(n)
    us = haar_sample_batch(GroupSpec(n), rng, 40).reshape(10, 4, n, n)
    amplitudes = rng.uniform(0.0, np.pi, (2, 5))
    directions = rng.random((2, 5)) if n == 1 else rng.standard_normal((n * n, 2, 5))
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    lhs, rhs = quadratic_bound_sides(us, GroupSpec(n))
    assert np.all(lhs <= rhs)
    assert quadratic_bound_scan(GroupSpec(n), rng, 100)[0] == 0
    assert _proposals(amplitudes, directions, n).shape == (n, n, 2, 5)


def test_u2_single_plaquette_matches_heine_oracle():
    # d = 2, L = 2, free: one retained bond U driving one plaquette U_p = U,
    # so <Re tr U_p> is the Haar average of sum_j cos(lam_j) under
    # prod_j exp(2 beta cos lam_j), d/dt log Z(2 beta + t) at t = 0.
    geom = build_geometry(2, 2, "free")
    assert np.count_nonzero(~geom.fixed_mask) == 1 and geom.n_plaquettes == 1
    beta, group = 1.0, GroupSpec(2)
    params = MCParams(sweeps=4000, thermalization=300, seed=8, chains=2)
    mean_action, se = estimate_mean_action(geom, group, beta, params)
    quad, t = QuadratureSpec(), 1e-4

    def z(c):
        return weyl_integrate(lambda lam: np.exp(c * np.cos(lam)), group, quad)[0]

    oracle = (z(2 * beta + t) - z(2 * beta - t)) / (2 * t * z(2 * beta))
    sampled = group.n - mean_action / 2.0
    assert abs(sampled - oracle) < 4 * se / 2.0


def test_u3_chain_unitary_and_reproducible():
    geom = build_geometry(3, 2, "periodic")
    cp = CouplingSpec(d=3, a=1.0, g2=1.0)
    params = MCParams(sweeps=40, thermalization=20, seed=6, chains=2)
    first = sample_source_fields(geom, cp, GroupSpec(3), (0, 4), params)
    second = sample_source_fields(geom, cp, GroupSpec(3), (0, 4), params)
    assert first.series.shape == (2, 20, 2)
    assert np.array_equal(first.series, second.series)
    assert first.diagnostics.unitarity_defect == second.diagnostics.unitarity_defect < 1e-12
    assert 0.0 < first.diagnostics.accept_min <= 1.0
    assert np.any(first.series != 0.0)


def test_log_z_d2_exactness(quad):
    # Complete model equals the factorized model in d = 2 free b.c.
    geom = build_geometry(2, 4, "free")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=700, thermalization=200, seed=11, chains=2)
    est = estimate_log_z(geom, cp, GroupSpec(1), params)
    target = 9 * LOG_Z_N1_BETA1
    assert abs(est.value - target) < 3 * est.error
    assert est.error < 0.01 * abs(target)
    assert est.error >= est.stat_error  # refinement term included


def test_log_z_d3_inside_sandwich(quad):
    geom = build_geometry(3, 4, "free")
    cp = CouplingSpec(d=3, a=1.0, g2=1.0)
    params = MCParams(sweeps=450, thermalization=150, seed=17, chains=2)
    est = estimate_log_z(geom, cp, GroupSpec(1), params)
    r = lattice_counts(3, 4).retained_bonds
    lower = r * np.log(z_lower(cp, GroupSpec(1), quad))
    upper = r * np.log(z_upper(cp, GroupSpec(1), quad))
    assert lower - 3 * est.error <= est.value <= upper + 3 * est.error


def test_verify_stability_bounds_fail_before_chains(monkeypatch):
    # At 4 points per panel both single-bond integrals fail the two-resolution
    # check; the bounds are formed first, so no chain runs.
    def no_chains(*args, **kwargs):
        raise AssertionError("estimate_log_z ran before the bounds were formed")

    monkeypatch.setattr(mc, "estimate_log_z", no_chains)
    cp = CouplingSpec(d=3, a=1.0, g2=1.0)
    with pytest.raises(ResolutionTooLow):
        verify_stability(2, "free", cp, GroupSpec(2), MCParams(), QuadratureSpec(points=4))


def test_verify_stability_exponents(quad):
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=300, thermalization=100, seed=23, chains=2)
    free = verify_stability(4, "free", cp, GroupSpec(1), params, quad)
    per = verify_stability(4, "periodic", cp, GroupSpec(1), params, quad)
    counts = lattice_counts(2, 4)
    assert free.lower_exponent == free.upper_exponent == counts.retained_bonds
    assert per.upper_exponent == counts.retained_bonds
    assert per.lower_exponent == counts.retained_bonds + counts.extra_bonds
    assert free.passed and per.passed
    assert free.lower < free.mc_value < free.upper


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(plaquettes=(), strengths=())
    with pytest.raises(ValueError):
        SourceSpec(plaquettes=(0, 1), strengths=(0.5,))
    geom = build_geometry(2, 4, "periodic")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=30, thermalization=10)
    with pytest.raises(InvalidLattice):
        sample_source_fields(geom, cp, GroupSpec(1), (99,), params)


def test_plaquette_index_outside_geometry_raises():
    # A negative index would otherwise wrap to the last plaquette.
    geom = build_geometry(2, 4, "periodic")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=30, thermalization=10)
    for plaquette in (-1, geom.n_plaquettes):
        with pytest.raises(InvalidLattice):
            correlation_from_generating(geom, cp, GroupSpec(1), (plaquette,), params)
        src = SourceSpec(plaquettes=(plaquette,), strengths=(0.1,))
        with pytest.raises(InvalidLattice):
            estimate_generating_function(geom, cp, GroupSpec(1), src, params)


def test_generating_function_at_zero_sources():
    geom = build_geometry(2, 4, "periodic")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=200, thermalization=100, seed=9)
    src = SourceSpec(plaquettes=(3,), strengths=(0.0,))
    value, err = estimate_generating_function(geom, cp, GroupSpec(1), src, params)
    assert value == 1.0 + 0.0j
    assert err == 0.0


def test_single_source_mean_vanishes():
    geom = build_geometry(2, 4, "periodic")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=3000, thermalization=300, seed=9, chains=2)
    est = correlation_from_generating(geom, cp, GroupSpec(1), (3,), params)
    assert abs(est.value) < 4 * est.error


@pytest.mark.parametrize("r", [2, 3, 4])
def test_coincident_moment_matches_quadrature(r, quad):
    # Free b.c. d = 2: the coincident r-th moment is the single-bond ratio
    # exactly, so MC and quadrature must agree within error.
    geom = build_geometry(2, 4, "free")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=3000, thermalization=300, seed=29, chains=2)
    est = correlation_from_generating(geom, cp, GroupSpec(1), (3,) * r, params)
    oracle = plaquette_moment(r, cp, GroupSpec(1), quad)[0]
    assert abs(est.value - oracle) < 4 * est.error
    assert est.order == r


def test_moment_is_derivative_of_sampled_generating_function():
    # On the same chains, the mixed second derivative of the sampled G at
    # J = 0 is the sample moment <t_3 t_9>; a central difference with
    # h = 1e-4 reaches it up to O(h^2) and rounding.
    geom = build_geometry(2, 4, "periodic")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=600, thermalization=200, seed=41, chains=2)
    chains = sample_source_fields(geom, cp, GroupSpec(1), (3, 9), params).series
    h = 1e-4
    difference = sum(
        sign * generating_function_from_samples(chains, (s1 * h, s2 * h))[0]
        for s1, s2, sign in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    est = correlation_from_generating(geom, cp, GroupSpec(1), (3, 9), params)
    assert abs(difference.real / (4 * h * h) - est.value) < 1e-6
    assert abs(difference.imag) < 1e-12


def test_correlation_physical_scaling():
    geom = build_geometry(2, 4, "free")
    cp = CouplingSpec(d=2, a=0.5, g2=1.0)
    params = MCParams(sweeps=400, thermalization=150, seed=31, chains=2)
    est = correlation_from_generating(geom, cp, GroupSpec(1), (3, 3), params)
    assert est.physical == pytest.approx(0.5**-2 * est.value, rel=1e-14)
    assert est.physical_error == pytest.approx(0.5**-2 * est.error, rel=1e-14)


def test_generating_function_ceiling(quad):
    geom = build_geometry(2, 4, "periodic")
    cp = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=2000, thermalization=300, seed=37, chains=2)
    group = GroupSpec(1)
    for strengths in [(0.1,), (0.5,), (0.5, 0.5)]:
        plaqs = (3,) if len(strengths) == 1 else (3, 9)
        src = SourceSpec(plaquettes=plaqs, strengths=strengths)
        value, err = estimate_generating_function(geom, cp, group, src, params)
        rhs = generating_function_ceiling(4, cp, group, src, quad)
        assert abs(value) <= rhs + 3 * err
        assert rhs > 1.0  # the bound is loose but finite


def test_generating_function_ceiling_at_large_beta(quad):
    # At d=3, L=4, N=3, beta=1e4 the powers of z_lower alone underflow; the
    # ceiling is formed in logarithms and stays finite.  For real J Jensen's
    # inequality gives |G(J)| >= 1, so the ceiling must be at least 1.
    cp = CouplingSpec(d=3, a=1.0, g2=1e-4)
    for strength in (0.1, 0.5):
        src = SourceSpec(plaquettes=(0,), strengths=(strength,))
        rhs = generating_function_ceiling(4, cp, GroupSpec(3), src, quad)
        assert np.isfinite(rhs) and rhs >= 1.0


def test_unconverged_chains_detected():
    # Synthetic disagreement: two chains with disjoint support.
    chains = [np.zeros((200, 1)), np.full((200, 1), 2.0)]
    with pytest.raises(UnconvergedChain):
        generating_function_from_samples(chains, [1.0])
    # A real action-type series goes through the same check: two noisy
    # chains far beyond 5 sigma apart raise, two draws of one law pass.
    rng = np.random.default_rng(3)
    noise = rng.normal(0.0, 1.0, size=(2, 400))
    with pytest.raises(UnconvergedChain):
        _chain_mean(noise + np.array([[100.0], [101.0]]))
    mean, error = _chain_mean(noise + 100.0)
    assert isinstance(mean, float)
    assert abs(mean - 100.0) < 4 * error
