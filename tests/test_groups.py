import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticeym.errors import NonUnitaryInput, ShapeMismatch
from latticeym.groups import (GroupSpec, angular_eigenvalues, generator_basis,
                              haar_sample, haar_sample_batch, log_map,
                              plaquette_action, plaquette_product,
                              quadratic_bound_check, quadratic_bound_scan,
                              unitary_from_coefficients, unitarity_defect)

from conftest import tensor_weyl


def test_haar_sample_deterministic():
    g = GroupSpec(1)
    u1 = haar_sample(g, np.random.default_rng(42))
    u2 = haar_sample(g, np.random.default_rng(42))
    assert u1 == pytest.approx(u2, abs=0)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_sample_unitary(n, rng):
    us = haar_sample_batch(GroupSpec(n), rng, 200)
    for u in us:
        assert unitarity_defect(u) < 1e-12


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


def test_log_map_basis_direction():
    g = GroupSpec(2)
    coeffs = np.array([0.3, 0.0, 0.0, 0.0])
    u = unitary_from_coefficients(coeffs, g)
    assert log_map(u) == pytest.approx(coeffs, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_log_map_round_trip(n, seed):
    g = GroupSpec(n)
    u = haar_sample(g, np.random.default_rng(seed))
    coeffs = log_map(u)
    assert np.linalg.norm(unitary_from_coefficients(coeffs, g) - u) < 1e-10
    # Coefficient norm equals the angular norm and respects the branch cap.
    angles = angular_eigenvalues(u)
    assert np.sum(coeffs**2) == pytest.approx(np.sum(angles**2), rel=1e-10)
    assert np.sum(coeffs**2) <= n * np.pi**2 + 1e-9


def test_non_unitary_input_rejected():
    with pytest.raises(NonUnitaryInput):
        angular_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NonUnitaryInput):
        log_map(2.0 * np.eye(2))
    with pytest.raises(ShapeMismatch):
        angular_eigenvalues(np.ones((2, 3)))


def test_plaquette_action_matches_hs_norm(rng):
    g = GroupSpec(3)
    us = haar_sample_batch(g, rng, 4)
    up = plaquette_product(*us)
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
    us = [np.array([[np.exp(1j * t)]]) for t in (0.3, 0.2, 0.1, 0.1)]
    check = quadratic_bound_check(us, GroupSpec(1))
    assert check.lhs == pytest.approx(2.0 * (1.0 - np.cos(0.3)), rel=1e-12)
    assert check.rhs == pytest.approx(4.0 * (0.09 + 0.04 + 0.01 + 0.01), rel=1e-12)
    assert check.holds


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_quadratic_bound_random(n, k, seed):
    g = GroupSpec(n)
    local = np.random.default_rng(seed)
    us = list(haar_sample_batch(g, local, k))
    check = quadratic_bound_check(us, g)
    assert check.lhs <= check.rhs + 1e-10


def test_quadratic_bound_near_identity():
    # Small angles: lhs approaches |sum x|^2-type size, safely below k n sum.
    g = GroupSpec(2)
    eps = 1e-3
    us = [unitary_from_coefficients(eps * np.array([1.0, 0.5, -0.25, 0.1]), g)
          for _ in range(4)]
    check = quadratic_bound_check(us, g)
    assert check.holds
    assert check.lhs < 0.5 * check.rhs


def test_quadratic_bound_scan_no_violations(rng):
    violations, max_ratio = quadratic_bound_scan(GroupSpec(2), rng, 20_000)
    assert violations == 0
    assert max_ratio <= 1.0
