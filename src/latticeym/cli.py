"""Command-line suite runner.

Each subcommand evaluates one verification suite over the configured grid
and writes reproducible report files (see ``reporting``).  Configuration
comes from an optional JSON file plus flag overrides; flags win.  Exit
status is 0 only when every record's verdict passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, LatticeYMError, NonFiniteResult, SuiteFailed
from .factorized import normalized_free_energy, plaquette_moment
from .groups import GroupSpec, haar_sample_batch, quadratic_bound_scan, unitarity_defect
from .lattice import build_geometry
from .mc import (
    SourceSpec,
    generating_function_ceiling,
    generating_function_from_samples,
    sample_source_fields,
    verify_stability,
)
from .quadrature import ensemble_constants, i_beta, weyl_integrate
from .reporting import (
    CONFIG_FIELDS,
    RUN_CONFIG_SCHEMA,
    SUITE_NAMES,
    ReportRecord,
    RunConfig,
    write_reports,
)
from .scalar import ScalarSpec, derivative_correlation, fit_decay_rate, mass_gap
from .single_bond import CouplingSpec, bound_constants, log_zeta_lower, log_zeta_upper

__all__ = ["main", "run_suite", "build_parser"]

_TINY = 1e-12


def _record(config, inputs, values, errors, lhs, rhs, passed) -> ReportRecord:
    for key, value in [*values.items(), *((f"err_{k}", v) for k, v in errors.items()),
                       ("lhs", lhs), ("rhs", rhs)]:
        if not np.isfinite(value):
            raise NonFiniteResult(f"{config.suite} at {inputs}: {key} is {value}")
    return ReportRecord(
        suite=config.suite,
        inputs=inputs,
        values=values,
        errors=errors,
        lhs=lhs,
        rhs=rhs,
        verdict="pass" if passed else "fail",
        seed=config.seed,
    )


def _suite_group_check(config: RunConfig):
    """Haar sampling sanity and the quadratic plaquette-action bound."""
    records = []
    for n in config.n_values:
        group = GroupSpec(n)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(n,)))
        max_defect = unitarity_defect(haar_sample_batch(group, rng, 200))
        violations, max_ratio = quadratic_bound_scan(group, rng, 20_000)
        passed = max_defect < 1e-10 and violations == 0
        records.append(
            _record(
                config,
                inputs={"n": n},
                values={"max_defect": max_defect, "violations": float(violations)},
                errors={},
                lhs=max_ratio,
                rhs=1.0,
                passed=passed,
            )
        )
    return records


def _suite_weyl_check(config: RunConfig):
    """Weyl normalization and the two ensemble-constant oracles."""
    records = []
    for n in config.n_values:
        group = GroupSpec(n)
        one, one_error = weyl_integrate(np.ones_like, group, config.quadrature)
        consts = ensemble_constants(group)
        gue_ratio = i_beta(2, np.inf, group, config.quadrature) / consts.gue
        gse_ratio = i_beta(4, np.inf, group, config.quadrature) / consts.gse
        deviation = abs(one - 1.0)
        passed = deviation <= 1e-9 and abs(gue_ratio - 1) < 1e-6 and abs(gse_ratio - 1) < 1e-6
        records.append(
            _record(
                config,
                inputs={"n": n},
                values={"haar_volume": one, "gue_ratio": gue_ratio, "gse_ratio": gse_ratio},
                errors={"haar_volume": one_error},
                lhs=deviation,
                rhs=1e-9,
                passed=passed,
            )
        )
    return records


def _grid(config: RunConfig):
    """Every (group, coupling) pair of the configured (N, a, g2) grid."""
    for n in config.n_values:
        for a in config.a_values:
            for g2 in config.g2_values:
                yield GroupSpec(n), CouplingSpec(d=config.d, a=a, g2=g2, g0_sq=config.g0_sq)


def _suite_single_bond(config: RunConfig):
    """Normalized single-bond integrals against their closed-form sandwich."""
    records = []
    for group, coupling in _grid(config):
        constants = bound_constants(coupling, group, config.quadrature)
        log_zu, err_zu = log_zeta_upper(coupling, group, config.quadrature)
        log_zl, err_zl = log_zeta_lower(coupling, group, config.quadrature)
        upper_ok = log_zu <= constants.c_upper + _TINY
        lower_ok = log_zl >= constants.c_lower - _TINY
        records.append(
            _record(
                config,
                inputs={"n": group.n, "d": config.d, "a": coupling.a, "g2": coupling.g2,
                        "g0_sq": config.g0_sq},
                values={
                    "beta": coupling.beta,
                    "log_z_upper": log_zu,
                    "log_z_lower": log_zl,
                    "c_upper": constants.c_upper,
                    "c_lower": constants.c_lower,
                },
                errors={"log_z_upper": err_zu, "log_z_lower": err_zl},
                lhs=log_zu,
                rhs=constants.c_upper,
                passed=upper_ok and lower_ok,
            )
        )
    return records


def _suite_approx(config: RunConfig):
    """Exactly solvable model: free energy and coincident second moment."""
    records = []
    for group, coupling in _grid(config):
        n = group.n
        constants = bound_constants(coupling, group, config.quadrature)
        log_z, err_z = log_zeta_upper(coupling, group, config.quadrature)
        free_energy = normalized_free_energy(log_z, group)
        m2, err_m2 = plaquette_moment(2, coupling, group, config.quadrature)
        sandwich_ok = constants.c_lower - _TINY <= log_z <= constants.c_upper + _TINY
        moment_ok = 0.0 < m2 <= 0.5 * n + _TINY
        records.append(
            _record(
                config,
                inputs={"n": n, "d": config.d, "a": coupling.a, "g2": coupling.g2},
                values={
                    "beta": coupling.beta,
                    "log_z_bond": log_z,
                    "free_energy": free_energy,
                    "m2": m2,
                },
                errors={"log_z_bond": err_z, "m2": err_m2},
                lhs=m2,
                rhs=0.5 * n,
                passed=sandwich_ok and moment_ok,
            )
        )
    return records


def _suite_stability(config: RunConfig):
    """Monte Carlo log-partition against the two-sided product bound."""
    records = []
    for group, coupling in _grid(config):
        report = verify_stability(
            config.L, config.boundary, coupling, group, config.mc, config.quadrature
        )
        records.append(
            _record(
                config,
                inputs={
                    "n": group.n,
                    "d": config.d,
                    "L": config.L,
                    "boundary": config.boundary,
                    "beta": coupling.beta,
                },
                values={
                    "log_z_mc": report.mc_value,
                    "lower": report.lower,
                    "upper": report.upper,
                    "lower_exponent": float(report.lower_exponent),
                    "upper_exponent": float(report.upper_exponent),
                    **dataclasses.asdict(report.diagnostics),
                },
                errors={"log_z_mc": report.mc_error},
                lhs=report.lower,
                rhs=report.upper,
                passed=report.passed,
            )
        )
    return records


def _suite_genfun(config: RunConfig):
    """Sampled generating function against the product-bound ceiling."""
    records = []
    geom = build_geometry(config.d, config.L, config.boundary)
    plaquette = geom.n_plaquettes // 2
    for group, coupling in _grid(config):
        # One set of chains serves every source strength.
        samples = sample_source_fields(geom, coupling, group, (plaquette,), config.mc)
        for strength in (0.1, 0.5):
            sources = SourceSpec(plaquettes=(plaquette,), strengths=(strength,))
            value, error = generating_function_from_samples(samples.series, sources.strengths)
            ceiling = generating_function_ceiling(
                config.L, coupling, group, sources, config.quadrature)
            abs_g = abs(value)
            # A frozen chain measures its cold start with error 0.
            passed = samples.diagnostics.accept_min > 0.0 and abs_g <= ceiling + 3.0 * error
            records.append(
                _record(
                    config,
                    inputs={
                        "n": group.n,
                        "d": config.d,
                        "L": config.L,
                        "boundary": config.boundary,
                        "beta": coupling.beta,
                        "strength": strength,
                        "plaquette": plaquette,
                    },
                    values={
                        "abs_g": abs_g,
                        "ceiling": ceiling,
                        **dataclasses.asdict(samples.diagnostics),
                    },
                    errors={"abs_g": error},
                    lhs=abs_g,
                    rhs=ceiling,
                    passed=passed,
                )
            )
    return records


def _suite_scalar(config: RunConfig):
    """Free-field exact values: derivative identity and decay-rate fit."""
    records = []
    for a in config.a_values:
        massless = ScalarSpec(d=config.d, a=a, m_u=0.0, kappa_u=1.0)
        derivative, err_derivative = derivative_correlation(massless, 0, 0, (0,) * config.d)
        target = 1.0 / (config.d * a**config.d)
        identity_gap = abs(derivative - target) / target

        massive = ScalarSpec(d=config.d, a=a, m_u=1.0, kappa_u=1.0)
        fit = fit_decay_rate(massive)
        gap = mass_gap(massive)
        rate_gap = abs(fit.rate - gap) / gap

        passed = identity_gap <= 1e-8 and rate_gap <= 0.01
        records.append(
            _record(
                config,
                inputs={"d": config.d, "a": a},
                values={
                    "derivative": derivative,
                    "derivative_target": target,
                    "decay_rate": fit.rate,
                    "mass_gap": gap,
                    "fit_residual": fit.residual,
                },
                errors={"derivative": err_derivative, "window": fit.window_error},
                lhs=rate_gap,
                rhs=0.01,
                passed=passed,
            )
        )
    return records


_SUITE_RUNNERS = {
    "group-check": _suite_group_check,
    "weyl-check": _suite_weyl_check,
    "single-bond": _suite_single_bond,
    "approx": _suite_approx,
    "stability": _suite_stability,
    "genfun": _suite_genfun,
    "scalar": _suite_scalar,
}


def run_suite(config: RunConfig) -> dict:
    """Run the configured suite(s), write report files, return the records.

    Returns a mapping of suite name to its record list.  Raises
    ConfigInvalid before any suite runs if the report directory cannot be
    created, SuiteFailed after all files are written if any verdict failed,
    and a MemoryError naming the suite, which writes no files, if it runs
    out of memory.
    """
    try:
        Path(config.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(
            f"out: cannot create report directory {config.out!r}: {exc}") from exc
    names = list(_SUITE_RUNNERS) if config.suite == "all" else [config.suite]
    results = {}
    failures = []
    for name in names:
        suite_config = dataclasses.replace(config, suite=name)
        started = time.perf_counter()
        try:
            records = _SUITE_RUNNERS[name](suite_config)
        except MemoryError as exc:
            raise MemoryError(f"{name}: {str(exc) or 'allocation failed'}") from None
        elapsed = time.perf_counter() - started
        write_reports(config.out, name, records, elapsed)
        results[name] = records
        failures.extend(
            f"{name}[{i}]" for i, r in enumerate(records) if r.verdict != "pass"
        )
    if failures:
        raise SuiteFailed("failing records: " + ", ".join(failures))
    return results


def _comma_separated(item):
    """argparse type of a list flag: comma-separated entries, each converted by `item`."""
    def parse(text):
        return [item(v) for v in text.split(",")]
    parse.__name__ = f"{item.__name__} list"  # argparse names it on a bad value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeym",
        description="Verification suites for lattice gauge bounds and free fields.",
    )
    # Unset flags stay out of the namespace, so they override nothing.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", type=Path, help="JSON run-configuration file")
    for entry in CONFIG_FIELDS:
        if entry.flag is not None:
            common.add_argument(
                entry.flag, dest=entry.key, help=entry.help,
                type=_comma_separated(entry.item) if entry.many else entry.item,
                choices=RUN_CONFIG_SCHEMA["properties"][entry.key].get("enum"))
    subparsers = parser.add_subparsers(dest="suite", required=True)
    for name in SUITE_NAMES:
        subparsers.add_parser(name, parents=[common], help=f"run the {name} suite")
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = dict(vars(args))  # the suite and every flag given
    path = overrides.pop("config", None)
    mapping = {}
    if path is not None:
        try:
            mapping = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"config: cannot read {str(path)!r}: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ConfigInvalid("<root>: config file must hold a JSON object")
    return RunConfig.from_mapping({**mapping, **overrides})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        results = run_suite(_config_from_args(args))
    except ConfigInvalid as exc:
        print(f"invalid configuration -- {exc}", file=sys.stderr)
        return 2
    except SuiteFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (LatticeYMError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for name, records in results.items():
        print(f"{name}: {len(records)} record(s), all pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
