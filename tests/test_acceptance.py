"""Acceptance gate: the fourteen headline checks, one printed line each,
and a determinism check of the group-check reports next to C14.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. Each check prints ``[acceptance] C<n> PASS/FAIL: detail`` and then
asserts, so the suite fails loudly if any criterion regresses. Stated
runtime budgets are asserted alongside the numerical tolerances.
"""

import math
import time

import numpy as np
from scipy import special

from latticeym.cli import main as cli_main
from latticeym.factorized import plaquette_moment
from latticeym.groups import GroupSpec, quadratic_bound_scan
from latticeym.lattice import build_geometry
from latticeym.mc import (
    MCParams,
    SourceSpec,
    correlation_from_generating,
    estimate_generating_function,
    estimate_log_z,
    generating_function_ceiling,
    verify_stability,
)
from latticeym.quadrature import QuadratureSpec, ensemble_constants, i_beta, weyl_integrate
from latticeym.scalar import ScalarSpec, derivative_correlation, fit_decay_rate, mass_gap
from latticeym.single_bond import (
    CouplingSpec,
    bound_constants,
    log_zeta_lower,
    log_zeta_upper,
    z_upper,
)

QUAD = QuadratureSpec()

# d=2, beta=1 normalized single-bond integral (oracle: exp(-2) I_0(2) for
# U(1), frozen in the single-bond tests).
Z_BOND_D2_BETA1 = 0.308508322553671


def _line(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] C{criterion} {status}: {detail}")
    assert passed, f"C{criterion} {detail}"


def test_c01_weyl_normalization():
    started = time.perf_counter()
    deviations = []
    for n in (1, 2, 3):
        value = weyl_integrate(lambda lam: np.ones(lam.shape[0]), GroupSpec(n), QUAD)[0]
        deviations.append(abs(value - 1.0))
    elapsed = time.perf_counter() - started
    worst = max(deviations)
    _line(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"max |weyl_integrate(1) - 1| = {worst:.2e} over N=1..3 "
        f"(tol 1e-9), {elapsed:.1f}s of 10s budget",
    )


def test_c02_ensemble_constant_oracles():
    worst = 0.0
    for n in (1, 2):
        group = GroupSpec(n)
        consts = ensemble_constants(group)
        gue_dev = abs(i_beta(2, np.inf, group, QUAD) / consts.gue - 1.0)
        gse_dev = abs(i_beta(4, np.inf, group, QUAD) / consts.gse - 1.0)
        worst = max(worst, gue_dev, gse_dev)
    _line(
        2,
        worst <= 1e-6,
        f"max relative defect of I2(inf)/N_G, I4(inf)/N_S = {worst:.2e} "
        f"for N=1,2 (tol 1e-6)",
    )


def test_c03_u1_single_bond_oracle():
    group = GroupSpec(1)
    worst = 0.0
    for beta in (0.1, 1.0, 10.0):
        coupling = CouplingSpec(d=4, a=1.0, g2=1.0 / beta)
        value = z_upper(coupling, group, QUAD)
        oracle = float(special.ive(0, 2.0 * beta))  # e^{-2 beta} I_0(2 beta)
        worst = max(worst, abs(value / oracle - 1.0))
    _line(
        3,
        worst <= 1e-8,
        f"max relative error of z_u vs Bessel closed form = {worst:.2e} "
        f"for beta in {{0.1, 1, 10}} (tol 1e-8)",
    )


def test_c04_sandwich_grid():
    started = time.perf_counter()
    cases = 0
    violations = 0
    min_margin = math.inf
    for d in (2, 3, 4):
        for n in (1, 2):
            group = GroupSpec(n)
            for a in (1.0, 0.5, 0.1, 0.01):
                for g2 in (0.1, 1.0):
                    coupling = CouplingSpec(d=d, a=a, g2=g2, g0_sq=4.0)
                    consts = bound_constants(coupling, group, QUAD)
                    log_zu = log_zeta_upper(coupling, group, QUAD)[0]
                    log_zl = log_zeta_lower(coupling, group, QUAD)[0]
                    upper_margin = consts.c_upper - log_zu
                    lower_margin = log_zl - consts.c_lower
                    min_margin = min(min_margin, upper_margin, lower_margin)
                    violations += int(upper_margin < -1e-12) + int(lower_margin < -1e-12)
                    cases += 1
    elapsed = time.perf_counter() - started
    _line(
        4,
        violations == 0 and elapsed < 120.0,
        f"{violations} violations over {cases} grid points "
        f"(min log-margin {min_margin:.3e}), {elapsed:.1f}s of 120s budget",
    )


def test_c05_quadratic_action_bound():
    started = time.perf_counter()
    total_violations = 0
    worst_ratio = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(n,)))
        violations, max_ratio = quadratic_bound_scan(GroupSpec(n), rng, 100_000)
        total_violations += violations
        worst_ratio = max(worst_ratio, max_ratio)
    elapsed = time.perf_counter() - started
    _line(
        5,
        total_violations == 0,
        f"{total_violations} violations over 3x100000 random quadruples "
        f"(max lhs/rhs = {worst_ratio:.3f}), {elapsed:.1f}s",
    )


def test_c06_d2_log_partition_exactness():
    started = time.perf_counter()
    geom = build_geometry(2, 4, "free")
    coupling = CouplingSpec(d=2, a=1.0, g2=1.0)
    params = MCParams(sweeps=700, thermalization=200, chains=2, seed=11)
    estimate = estimate_log_z(geom, coupling, GroupSpec(1), params)
    target = 9.0 * math.log(Z_BOND_D2_BETA1)
    pull = abs(estimate.value - target) / estimate.error
    elapsed = time.perf_counter() - started
    _line(
        6,
        pull <= 3.0 and estimate.error < 0.01 * abs(target) and elapsed < 300.0,
        f"ln Z = {estimate.value:.4f} vs exact {target:.4f} "
        f"({pull:.2f} sigma, sigma/|target| = {estimate.error / abs(target):.4f}), "
        f"{elapsed:.1f}s of 300s budget",
    )


def test_c07_stability_sandwich_mc():
    started = time.perf_counter()
    # Longer chains than the unit tests use: at beta = 1 the sweep-to-sweep
    # autocorrelation approaches the block length for short runs, which
    # makes the blocked errors optimistic and trips the cross-chain check.
    params = MCParams(sweeps=1500, thermalization=500, chains=2, seed=17)
    all_pass = True
    min_sigma = math.inf
    cases = 0
    for n in (1, 2):
        group = GroupSpec(n)
        for beta in (0.5, 1.0):
            coupling = CouplingSpec(d=3, a=1.0, g2=1.0 / beta, g0_sq=4.0)
            for boundary in ("free", "periodic"):
                report = verify_stability(4, boundary, coupling, group, params, QUAD)
                all_pass = all_pass and report.passed
                min_sigma = min(
                    min_sigma, report.lower_margin_sigma, report.upper_margin_sigma
                )
                cases += 1
    elapsed = time.perf_counter() - started
    _line(
        7,
        all_pass and elapsed < 1800.0,
        f"{cases} sandwich verdicts pass (min margin {min_sigma:.0f} sigma), "
        f"{elapsed:.0f}s of 1800s budget",
    )


def test_c08_coincident_moment_limit():
    group = GroupSpec(1)
    results = {}
    for d, k in ((2, 9), (3, 18)):
        coupling = CouplingSpec(d=d, a=2.0**-k, g2=1.0)
        results[d] = plaquette_moment(2, coupling, group, QUAD)[0]
    worst = max(abs(v - 0.5) for v in results.values())
    _line(
        8,
        worst <= 1e-6,
        f"<M^2> at the sequence tail: d=2 -> {results[2]:.8f}, "
        f"d=3 -> {results[3]:.8f} (target 0.5 within 1e-6)",
    )


def test_c09_u2_weak_coupling_gaussianity():
    # beta = 1e10: the 1/beta corrections to the Gaussian limit are ~1e-11.
    coupling = CouplingSpec(d=4, a=1.0, g2=1e-10)
    t2, t4 = (plaquette_moment(k, coupling, GroupSpec(2), QUAD)[0] for k in (2, 4))
    wick_gap = t4 - 3.0 * t2**2
    _line(
        9,
        abs(t2 - 1.0) <= 1e-6 and abs(t4 - 3.0) <= 1e-6 and abs(wick_gap) <= 1e-8,
        f"T2 = {t2:.8f}, T4 = {t4:.8f}, "
        f"T4 - 3 T2^2 = {wick_gap:.2e} (tols 1e-6, 1e-6, 1e-8)",
    )


def test_c10_generating_function_bound_mc():
    started = time.perf_counter()
    geom = build_geometry(2, 4, "periodic")
    coupling = CouplingSpec(d=2, a=1.0, g2=1.0)
    group = GroupSpec(1)
    params = MCParams(sweeps=2000, thermalization=300, chains=2, seed=37)
    all_hold = True
    min_gap_sigma = math.inf
    for strength in (0.1, 0.5):
        for plaquettes in ((3,), (3, 9)):
            sources = SourceSpec(
                plaquettes=plaquettes, strengths=(strength,) * len(plaquettes)
            )
            value, error = estimate_generating_function(
                geom, coupling, group, sources, params
            )
            ceiling = generating_function_ceiling(4, coupling, group, sources, QUAD)
            gap_sigma = (ceiling - abs(value)) / error
            min_gap_sigma = min(min_gap_sigma, gap_sigma)
            all_hold = all_hold and abs(value) + 3.0 * error <= ceiling

    mean_params = MCParams(sweeps=3000, thermalization=300, chains=2, seed=9)
    mean_est = correlation_from_generating(geom, coupling, group, (3,), mean_params)
    mean_ok = abs(mean_est.value) <= 3.0 * mean_est.error
    elapsed = time.perf_counter() - started
    _line(
        10,
        all_hold and mean_ok,
        f"|G| below ceiling for r in {{1,2}}, J in {{0.1,0.5}} "
        f"(min gap {min_gap_sigma:.0f} sigma); <tr M> = {mean_est.value:.4f} "
        f"+- {mean_est.error:.4f}; {elapsed:.0f}s",
    )


def test_c11_scalar_derivative_identity():
    worst_identity = 0.0
    worst_scaled = 0.0
    for d in (2, 3, 4):
        for a in (1.0, 0.5, 0.25):
            spec = ScalarSpec(d=d, a=a, m_u=0.0, kappa_u=1.0)
            value = derivative_correlation(spec, 0, 0, (0,) * d)[0]
            target = 1.0 / (d * a**d)
            worst_identity = max(worst_identity, abs(value / target - 1.0))
            scaled = spec.a**2 * spec.s2 * value
            worst_scaled = max(worst_scaled, abs(scaled - 2.0))
    _line(
        11,
        worst_identity <= 1e-8 and worst_scaled <= 2e-8,
        f"massless coincident derivative: max rel error vs 1/(d kappa^2 a^d) "
        f"= {worst_identity:.2e}, max |a^2 s^2 G - 2| = {worst_scaled:.2e}",
    )


def test_c12_mass_gap_fit():
    worst = 0.0
    for d, a, m_u in ((2, 1.0, 1.0), (3, 0.5, 2.0), (3, 1.0, 1.0), (4, 1.0, 1.0)):
        spec = ScalarSpec(d=d, a=a, m_u=m_u, kappa_u=1.0)
        fit = fit_decay_rate(spec)
        worst = max(worst, abs(fit.rate / mass_gap(spec) - 1.0))
    _line(
        12,
        worst <= 0.01,
        f"fitted decay rate vs closed form: max relative gap = {worst:.2e} "
        f"over 4 (d, a, m_u) combinations (tol 1%)",
    )


def test_c13_d4_spacing_invariance():
    worst = 0.0
    quantities = 0
    for n in (1, 2):
        group = GroupSpec(n)
        columns = []
        for a in (1.0, 0.5, 0.1):
            coupling = CouplingSpec(d=4, a=a, g2=1.0)
            columns.append(
                (
                    log_zeta_upper(coupling, group, QUAD)[0],
                    plaquette_moment(2, coupling, group, QUAD)[0],
                    plaquette_moment(4, coupling, group, QUAD)[0],
                )
            )
        for values in zip(*columns):
            spread = max(values) - min(values)
            scale = max(1.0, max(abs(v) for v in values))
            worst = max(worst, spread / scale)
            quantities += 1
    _line(
        13,
        worst <= 1e-12,
        f"max relative spread of {quantities} scaled quantities across "
        f"a in {{1, 0.5, 0.1}} at d=4: {worst:.2e} (tol 1e-12)",
    )


def test_c14_deterministic_reports(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    codes = [
        cli_main(["single-bond", "--N", "1,2", "--seed", "3", "--out", str(out_a)]),
        cli_main(["single-bond", "--N", "1,2", "--seed", "3", "--out", str(out_b)]),
    ]
    bytes_a = (out_a / "single-bond.jsonl").read_bytes()
    bytes_b = (out_b / "single-bond.jsonl").read_bytes()
    _line(
        14,
        codes == [0, 0] and bytes_a == bytes_b and len(bytes_a) > 0,
        f"two single-bond runs wrote byte-identical JSONL "
        f"({len(bytes_a)} bytes, exit codes {codes})",
    )


def test_group_check_reports_deterministic(tmp_path):
    # N <= 3 samples take the closed-form last column, N = 4 Gram-Schmidt.
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli_main(["group-check", "--N", "1,2,3,4", "--seed", "7", "--out", str(out)]) == 0
    bytes_a, bytes_b = ((out / "group-check.jsonl").read_bytes() for out in outs)
    assert bytes_a == bytes_b
    assert len(bytes_a.splitlines()) == 4
