import itertools
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticeym import groups as groups_module
from latticeym.errors import NonUnitaryInput, ShapeMismatch
from latticeym.groups import (GroupSpec, generator_basis, haar_sample_batch, leading_sum,
                              quadratic_bound_scan, quadratic_bound_sides,
                              unitary_from_coefficients, unitarity_defect)
from latticeym.lattice import build_geometry, wilson_action

from conftest import angular_eigenvalues, qr_haar_sample, tensor_weyl


def test_group_rank_is_a_positive_int():
    # numpy integers are ranks too, stored as int so reports stay JSON
    g = GroupSpec(np.int64(2))
    assert g == GroupSpec(2) and type(g.n) is int
    assert json.dumps({"n": g.n}) == '{"n": 2}'
    for bad in (2.0, 0, np.int64(0), -1):
        with pytest.raises(ValueError, match="group rank must be a positive integer"):
            GroupSpec(bad)


def test_haar_sample_deterministic():
    g = GroupSpec(1)
    u1 = haar_sample_batch(g, np.random.default_rng(42), 1)[0]
    u2 = haar_sample_batch(g, np.random.default_rng(42), 1)[0]
    assert u1 == pytest.approx(u2, abs=0)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_sample_unitary(n, rng):
    us = haar_sample_batch(GroupSpec(n), rng, 200)
    for u in us:
        assert unitarity_defect(u) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_haar_sample_matches_qr_oracle(n):
    g = GroupSpec(n)
    fast, oracle = np.random.default_rng(17), np.random.default_rng(17)
    us = haar_sample_batch(g, fast, 20_000)
    assert np.max(np.abs(us - qr_haar_sample(g, oracle, 20_000))) <= 1e-12
    # Both consumed the same Ginibre draws.
    assert fast.standard_normal() == oracle.standard_normal()
    assert unitarity_defect(us) <= 1e-14


@pytest.mark.parametrize("dtype", [float, complex])
def test_leading_sum_adds_in_numpy_order(dtype):
    # Bit-identical to np.sum over a contiguous trailing axis, which keeps
    # the entries-leading sampler and measurements on the rounding of the
    # trailing layout.
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 4, 5, 8, 9, 16, 17, 64):
        terms = rng.standard_normal((m, 300)) * 10.0 ** rng.integers(-8, 9, (m, 300))
        if dtype is complex:
            terms = terms + 1j * rng.standard_normal((m, 300))
        assert np.array_equal(leading_sum(terms), np.sum(np.ascontiguousarray(terms.T), axis=-1))


def test_unitarity_defect_is_largest_per_matrix_norm(rng):
    us = haar_sample_batch(GroupSpec(2), rng, 5)
    us[1] *= 1.0 + 1e-6
    us[3] *= 1.0 + 3e-6
    norms = [np.linalg.norm(u.conj().T @ u - np.eye(2)) for u in us]
    assert unitarity_defect(us) == pytest.approx(max(norms), rel=1e-9)
    assert unitarity_defect(us.reshape(5, 1, 2, 2)) == unitarity_defect(us)


def test_haar_moments_match_weyl_oracle(rng):
    # Empirical Tr U and |Tr U|^2 against the same class functions integrated
    # on the tensor-grid oracle (0 and 1 by character orthogonality); neither
    # is a product over the angles, so the Heine route does not apply.
    g = GroupSpec(2)
    expect_tr = tensor_weyl(lambda lam: np.sum(np.exp(1j * lam), axis=-1), 2)
    expect_tr2 = tensor_weyl(
        lambda lam: np.abs(np.sum(np.exp(1j * lam), axis=-1)) ** 2, 2)
    assert abs(expect_tr) < 1e-12
    assert expect_tr2 == pytest.approx(1.0, abs=1e-10)

    us = haar_sample_batch(g, rng, 100_000)
    traces = np.einsum("bii->b", us)
    se_tr = np.std(traces) / np.sqrt(traces.size)
    se_tr2 = np.std(np.abs(traces) ** 2) / np.sqrt(traces.size)
    assert abs(traces.mean() - expect_tr) < 4 * se_tr
    assert abs((np.abs(traces) ** 2).mean() - expect_tr2) < 4 * se_tr2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_basis_orthonormal(n):
    basis = generator_basis(n)
    assert basis.shape == (n * n, n, n)
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert np.allclose(gram, np.eye(n * n), atol=1e-13)
    for t in basis:
        assert np.allclose(t, t.conj().T, atol=1e-13)


def test_generator_basis_n2_is_scaled_paulis():
    basis = generator_basis(2)
    s = 1.0 / np.sqrt(2.0)
    expected = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                np.array([[1, 0], [0, -1]]), np.eye(2)]
    for got, want in zip(basis, expected):
        assert np.allclose(got, s * want, atol=1e-15)


def test_angular_eigenvalues_examples():
    u = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)])
    assert angular_eigenvalues(u) == pytest.approx([-np.pi / 2, np.pi / 2], abs=1e-12)
    assert angular_eigenvalues(np.eye(3)) == pytest.approx([0.0, 0.0, 0.0], abs=0)


def test_angular_branch_is_half_open():
    # -1 sits at the branch point; the angle must come out +pi, never -pi.
    for u in (np.array([[-1.0 + 0j]]), np.diag([-1.0 + 0j, -1.0 + 0j])):
        angles = angular_eigenvalues(u)
        assert np.all(angles > np.pi - 1e-12)
        assert np.all(angles <= np.pi + 1e-12)


def test_unitary_from_coefficients_closed_form():
    # x = (0.3, 0, 0, 0) is X = 0.3 sigma_1 / sqrt(2), and sigma_1^2 = 1.
    theta = 0.3 / np.sqrt(2.0)
    sigma_1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * sigma_1
    u = unitary_from_coefficients(np.array([0.3, 0.0, 0.0, 0.0]), GroupSpec(2))
    assert np.max(np.abs(u - expected)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unitary_from_coefficients_spectrum(n):
    # exp(iX) has eigenvalues exp(i eigvalsh(X)); np.poly compares the
    # spectra as multisets, without pairing eigenvalues by order.
    g = GroupSpec(n)
    coeffs = np.random.default_rng(n).normal(scale=2.0, size=(5, g.dim))
    us = unitary_from_coefficients(coeffs, g)
    xs = np.einsum("...a,aij->...ij", coeffs, generator_basis(n))
    for u, x in zip(us, xs):
        assert np.max(np.abs(np.poly(u) - np.poly(np.exp(1j * np.linalg.eigvalsh(x))))) < 1e-12


def test_non_unitary_input_rejected():
    # The package's own guard, not the test helper's.
    with pytest.raises(NonUnitaryInput):
        quadratic_bound_sides(np.array([[[1.0, 0.5], [0.0, 1.0]]]), GroupSpec(2))
    with pytest.raises(ShapeMismatch):
        quadratic_bound_sides(np.ones((1, 2, 3)), GroupSpec(2))
    with pytest.raises(NonUnitaryInput):
        quadratic_bound_sides(2.0 * np.eye(2)[None], GroupSpec(2))
    with pytest.raises(ShapeMismatch, match="expected 4 coefficients"):
        unitary_from_coefficients(np.zeros(3), GroupSpec(2))


def plaquette_action(*us):
    """Wilson action of the one plaquette of the d=2, L=2 free lattice, whose
    legs U1 U2 U3^dag U4^dag are bonds plaq_legs[0]."""
    geom = build_geometry(2, 2, "free")
    u = np.empty((geom.n_bonds,) + np.shape(us[0]), dtype=complex)
    u[geom.plaq_legs[0]] = us
    return wilson_action(u, geom)


def test_plaquette_action_matches_hs_norm(rng):
    g = GroupSpec(3)
    us = haar_sample_batch(g, rng, 4)
    up = us[0] @ us[1] @ us[2].conj().T @ us[3].conj().T
    hs = np.linalg.norm(up - np.eye(3)) ** 2
    assert plaquette_action(*us) == pytest.approx(hs, rel=1e-12)
    assert plaquette_action(*us) >= 0.0


def test_plaquette_action_abelian_phases():
    us = [np.array([[np.exp(1j * t)]]) for t in (0.3, 0.2, 0.1, 0.1)]
    # Phases combine to 0.3 + 0.2 - 0.1 - 0.1 = 0.3 under the dagger pattern.
    assert plaquette_action(*us) == pytest.approx(2.0 * (1.0 - np.cos(0.3)), rel=1e-12)


def test_plaquette_action_ordering_invariance(rng):
    # Cyclic relabeling and orientation reversal leave the action unchanged
    # pointwise (trace cyclicity; reversal conjugate-transposes the holonomy).
    g = GroupSpec(2)
    u1, u2, u3, u4 = haar_sample_batch(g, rng, 4)
    a = plaquette_action(u1, u2, u3, u4)
    cyclic = u2 @ u3.conj().T @ u4.conj().T @ u1
    reversed_orientation = u4 @ u3 @ u2.conj().T @ u1.conj().T
    assert 2.0 * (2 - np.trace(cyclic).real) == pytest.approx(a, rel=1e-12)
    assert 2.0 * (2 - np.trace(reversed_orientation).real) == pytest.approx(a, rel=1e-12)


def test_quadratic_bound_abelian_example():
    us = np.array([[[np.exp(1j * t)]] for t in (0.3, 0.2, 0.1, 0.1)])
    lhs, rhs = quadratic_bound_sides(us, GroupSpec(1))
    assert lhs == pytest.approx(2.0 * (1.0 - np.cos(0.3)), rel=1e-12)
    assert lhs == pytest.approx(plaquette_action(*us), rel=1e-12)
    assert rhs == pytest.approx(4.0 * (0.09 + 0.04 + 0.01 + 0.01), rel=1e-12)
    assert lhs <= rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_quadratic_bound_random(n, k, seed):
    g = GroupSpec(n)
    local = np.random.default_rng(seed)
    us = haar_sample_batch(g, local, k)
    lhs, rhs = quadratic_bound_sides(us, g)
    assert lhs <= rhs + 1e-10
    # One tuple alone and inside a stack give the same sides.
    stacked = quadratic_bound_sides(np.stack([us, us]), g)
    assert np.all(stacked[0] == lhs) and np.all(stacked[1] == rhs)


def sum_squared_angles(us):
    """sum_j lambda_j**2 of each matrix of a stack (..., n, n): the rhs of
    quadratic_bound_sides for k = 1 is n times it."""
    n = us.shape[-1]
    return quadratic_bound_sides(us[..., None, :, :], GroupSpec(n))[1] / n


def with_angles(angles):
    """V diag(exp(i angles)) V^dag for a fixed Haar-random V."""
    v = haar_sample_batch(GroupSpec(len(angles)), np.random.default_rng(3), 1)[0]
    return (v * np.exp(1j * np.asarray(angles))) @ v.conj().T


MIRROR_AXES = (0.0, 0.4, np.arctan(1 / np.sqrt(2)), 1.0, np.pi / 2, 2.5)


@pytest.mark.parametrize(
    "angles,tol",
    [((c - h, c + h), 1e-12) for c in MIRROR_AXES for h in (0.3, 1e-8)]
    + [((c - 0.1, -0.9, c + 0.1), 1e-12) for c in MIRROR_AXES]
    + [
        ((-1.1, 1.1), 1e-12),               # conjugate pair
        ((0.7, 0.7, -1.2), 1e-12),          # repeated eigenvalue
        ((0.7, -2.0, 0.7, 0.7), 1e-12),
        ((1e-4, -2e-4, 3e-4), 1e-14),       # near the identity
        ((np.pi, 0.5), 2e-7),               # arccos conditioning at -1
        ((np.pi - 1e-6, -0.3), 1e-8),
        ((-1e-8, 0.5, 1e-8), 1e-14),        # cos-degenerate pair at mu = 1
        ((-2.98921484, -0.43159139, 2.98937057), 1e-12),  # and near pi
    ],
)
def test_sum_squared_angles_known_spectrum(angles, tol):
    assert abs(sum_squared_angles(with_angles(angles)) - np.sum(np.square(angles))) <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sum_squared_angles_matches_eigenvalue_oracle(n):
    # 300k Haar matrices per rank against the signed angles of angular_eigenvalues.
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        us = haar_sample_batch(GroupSpec(n), rng, 50_000)
        angles = angular_eigenvalues(us)
        err = np.abs(sum_squared_angles(us) - np.sum(angles**2, axis=-1))
        clear_of_pi = np.all(np.pi - np.abs(angles) >= 1e-3, axis=-1)
        assert np.max(err[clear_of_pi]) <= 2e-11
        assert np.max(err) <= 1e-8


def test_quadratic_bound_near_identity():
    # Small angles: lhs approaches |sum x|^2-type size, safely below k n sum.
    g = GroupSpec(2)
    eps = 1e-3
    u = unitary_from_coefficients(eps * np.array([1.0, 0.5, -0.25, 0.1]), g)
    lhs, rhs = quadratic_bound_sides(np.stack([u] * 4), g)
    assert lhs <= rhs
    assert lhs < 0.5 * rhs


def test_unitary_from_coefficients_batched(rng):
    g = GroupSpec(3)
    coeffs = rng.standard_normal((2, 5, g.dim))
    us = unitary_from_coefficients(coeffs, g)
    assert us.shape == (2, 5, 3, 3)
    assert unitarity_defect(us) < 1e-13
    assert np.allclose(us[1, 2], unitary_from_coefficients(coeffs[1, 2], g), rtol=0, atol=1e-13)
    angles = angular_eigenvalues(us)
    assert angles.shape == (2, 5, 3)
    assert np.allclose(angles[1, 2], angular_eigenvalues(us[1, 2]), rtol=0, atol=1e-13)


def test_quadratic_bound_scan_no_violations(rng):
    violations, max_ratio = quadratic_bound_scan(GroupSpec(2), rng, 20_000)
    assert violations == 0
    assert max_ratio <= 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_bound_scan_matches_oracle(n):
    # Each block of the scan draws the normals of haar_sample_batch, so the
    # QR oracle rebuilds the quadruples from the same seed, block by block in
    # scan order; np.matmul holonomies and the eigenvalue angles then give
    # both sides independently.
    g, count = GroupSpec(n), 20_000
    violations, max_ratio = quadratic_bound_scan(g, np.random.default_rng(31), count)
    rng, block = np.random.default_rng(31), groups_module._SCAN_BLOCK // (4 * n * n)
    us = np.concatenate([qr_haar_sample(g, rng, 4 * min(block, count - start))
                         for start in range(0, count, block)]).reshape(count, 4, n, n)
    u1, u2, u3, u4 = (us[:, j] for j in range(4))
    holonomy = u1 @ u2 @ np.conj(np.swapaxes(u3, -1, -2)) @ np.conj(np.swapaxes(u4, -1, -2))
    lhs = 2.0 * (n - np.trace(holonomy, axis1=-2, axis2=-1).real)
    rhs = 4 * n * np.sum(angular_eigenvalues(us) ** 2, axis=(-2, -1))
    assert violations == np.count_nonzero(lhs > rhs + 1e-12) == 0
    assert max_ratio == pytest.approx(np.max(lhs / np.maximum(rhs, 1e-30)), rel=1e-12, abs=0)


@pytest.mark.parametrize("n,count", [(1, 20_000), (2, 7_777), (3, 5_001), (4, 3_333)])
def test_quadratic_bound_scan_independent_of_blocks_and_workers(n, count, monkeypatch):
    # The blocks depend on count and n alone, the last one ragged here, and
    # every step after the serial draws works sample by sample, so however
    # the blocks fall on workers (every usable core, one core, more workers
    # than cores, no CPU affinity) the bits are the same.
    assert count % (groups_module._SCAN_BLOCK // (4 * n * n))

    def scan():
        return quadratic_bound_scan(GroupSpec(n), np.random.default_rng(23), count)

    all_cores = scan()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert scan() == all_cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert scan() == all_cores
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
    assert scan() == all_cores


def test_quadratic_bound_scan_memory_bounded(monkeypatch):
    # At most workers + 1 blocks are in flight, so the traced peak does not
    # grow with the number of quadruples (about 9.5 MB at N = 3 on two workers).
    import tracemalloc

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    peaks = []
    for count in (20_000, 100_000):
        tracemalloc.start()
        try:
            quadratic_bound_scan(GroupSpec(3), np.random.default_rng(5), count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]
    assert peaks[1] < 16e6


def test_quadratic_bound_scan_raises_from_worker(monkeypatch):
    # The second block turns non-unitary on its worker thread; the scan
    # raises and leaves no thread behind.
    orthonormalize, calls, workers = groups_module._orthonormalize, itertools.count(), []

    def spoiled(z):
        orthonormalize(z)
        workers.append(threading.current_thread() is not threading.main_thread())
        if next(calls) == 1:
            z[0, 0, 0, -1] *= 1.0 + 1e-6

    monkeypatch.setattr(groups_module, "_orthonormalize", spoiled)
    monkeypatch.setattr(groups_module, "_SCAN_BLOCK", 4 * 4 * 1000)
    threads = threading.active_count()
    with pytest.raises(NonUnitaryInput):
        quadratic_bound_scan(GroupSpec(2), np.random.default_rng(3), 5_000)
    assert len(workers) > 1 and all(workers)
    assert threading.active_count() == threads
