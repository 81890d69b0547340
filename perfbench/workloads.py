"""The benchmark's four workloads and the checks on what they produce.

A workload is a list of jobs.  A job either runs one CLI suite through
``latticeym.cli.run_suite`` or calls package functions directly and writes
its records with ``latticeym.reporting.write_reports``, so every job leaves a
``<stem>.jsonl`` report that the harness reads back and compares between
passes.  Package functions are always looked up as module attributes at call
time, so a traced pass sees them through the tracer's wrappers.

Why each workload exists, and which layer change it is meant to show or to
leave alone, is written up in README.md next to this file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special

WORKLOADS = ("mc-thermo", "mc-genfun", "bounds-grid", "scalar-fields")

# Share of the reference kernel's slowdown (calibrate.py) that each
# workload's pass time follows when the host slows down.  The Monte Carlo
# workloads spend their time in the interpreter and in numpy calls on
# arrays of a few dozen elements, as the kernel's first part does, and
# follow most of it.  bounds-grid and scalar-fields spend more of it in
# vectorized work on arrays of 10^4 to 10^7 elements and follow about half.
# Each value is the one among 0, 0.25, 0.35, 0.5, 0.6, 0.75, 0.9 and 1 whose
# largest run-to-run spread of wall_s, over the three to five sets of five
# or ten seeds measured, was lowest (README.md, "Baseline").
SENSITIVITY = {"mc-thermo": 0.75, "mc-genfun": 0.75, "bounds-grid": 0.5, "scalar-fields": 0.5}

# Both Monte Carlo workloads run at g2 = 2 (beta = 0.5).  At beta = 1 the
# N = 2 chains still drift from their cold start after several hundred
# sweeps, and the cross-chain check raises UnconvergedChain on some seeds
# (README.md, "Known defects"); a workload whose verdicts depend on the seed
# cannot give steady timings.
THERMO_MC = {"sweeps": 300, "thermalization": 100, "beta_grid_points": 3, "chains": 2}
GENFUN_MC = {"sweeps": 300, "thermalization": 100, "chains": 2}
TINY_THERMO_MC = {"sweeps": 30, "thermalization": 10, "beta_grid_points": 3, "chains": 2}
TINY_GENFUN_MC = {"sweeps": 40, "thermalization": 10, "chains": 2}

SPACINGS = [1.0, 0.5, 0.1, 0.01]
SCALAR_SPACING = 0.5
SOURCES_PER_DIMENSION = 12
SITES_PER_SOURCE = 4


@dataclass(frozen=True)
class Job:
    """One unit of a workload.

    ``label`` names the job's own report directory; ``stem`` is the name of
    the report file it writes there.  A job has either a RunConfig mapping
    for ``run_suite`` or a ``call(pkg, out_dir)`` that writes its reports.
    """

    label: str
    stem: str
    mapping: Optional[dict] = None
    call: Optional[Callable] = None


def _suite(label: str, seed: int, **fields) -> Job:
    return Job(label=label, stem=fields["suite"], mapping={"seed": seed, **fields})


def _record(pkg, suite, seed, inputs, values, lhs, rhs, passed):
    return pkg["reporting"].ReportRecord(
        suite=suite, inputs=inputs, values=values, errors={}, lhs=lhs, rhs=rhs,
        verdict="pass" if passed else "fail", seed=seed)


def _ceiling_job(rank: int, seed: int) -> Job:
    """generating_function_ceiling at d=3, L=4, beta=1 for two source strengths.

    For real J, Jensen's inequality and <tr M> = 0 give |G(J)| >= 1, so a
    ceiling below 1 would be a false bound.
    """

    def call(pkg, out_dir):
        coupling = pkg["single_bond"].CouplingSpec(d=3, a=1.0, g2=1.0)
        group = pkg["groups"].GroupSpec(rank)
        quad = pkg["quadrature"].QuadratureSpec()
        records = []
        for strength in (0.1, 0.5):
            sources = pkg["mc"].SourceSpec(plaquettes=(0,), strengths=(strength,))
            ceiling = pkg["mc"].generating_function_ceiling(4, coupling, group, sources, quad)
            records.append(_record(
                pkg, "ceiling", seed, {"n": rank, "d": 3, "L": 4, "strength": strength},
                {"ceiling": ceiling}, 1.0, ceiling, math.isfinite(ceiling) and ceiling >= 1.0))
        pkg["reporting"].write_reports(out_dir, "ceiling", records, 0.0)

    return Job(label="ceiling", stem="ceiling", call=call)


def scalar_sources(d: int, rng: np.random.Generator) -> list:
    """Twelve random sources of four sites each in the box {0, 1, 2}^d.

    Each nonzero separation class of the box (a sorted vector of absolute
    offsets) is placed against the origin in one source, so the set of
    distinct propagator values the sources need is the same for every seed
    (10 in d=3, 15 in d=4) and only the sites' order, the other sites and
    the strengths are random.
    """
    classes = [c for c in itertools.combinations_with_replacement(range(3), d) if any(c)]
    order = rng.permutation(len(classes))
    sites = [[(0,) * d] for _ in range(SOURCES_PER_DIMENSION)]
    for slot, index in enumerate(order):
        sites[slot % SOURCES_PER_DIMENSION].append(
            tuple(int(v) for v in rng.permutation(classes[index])))
    sources = []
    for members in sites:
        while len(members) < SITES_PER_SOURCE:
            members.append(tuple(int(v) for v in rng.integers(0, 3, size=d)))
        strengths = rng.uniform(-0.5, 0.5, size=len(members))
        sources.append([(site, float(j)) for site, j in zip(members, strengths)])
    return sources


def _scalar_genfun_job(seed: int) -> Job:
    """Gaussian generating function against its ceiling, massive and massless."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    sources = {d: scalar_sources(d, rng) for d in (3, 4)}

    def call(pkg, out_dir):
        scalar = pkg["scalar"]
        records = []
        for d in (3, 4):
            for m_u in (1.0, 0.0):
                spec = scalar.ScalarSpec(d=d, a=SCALAR_SPACING, m_u=m_u, kappa_u=1.0)
                for index, source in enumerate(sources[d]):
                    value = scalar.gaussian_generating_function(spec, source)
                    ceiling = scalar.generating_function_bound(spec, source)
                    records.append(_record(
                        pkg, "scalar-genfun", seed,
                        {"d": d, "a": SCALAR_SPACING, "m_u": m_u, "source": index},
                        {"g": value, "ceiling": ceiling}, value, ceiling, value <= ceiling))
        pkg["reporting"].write_reports(out_dir, "scalar-genfun", records, 0.0)

    return Job(label="scalar-genfun", stem="scalar-genfun", call=call)


def build(workload: str, seed: int, tiny: bool = False) -> list:
    """Jobs of one workload; the seed fixes every random input."""
    if workload == "mc-thermo":
        mc = TINY_THERMO_MC if tiny else THERMO_MC
        return [
            _suite(f"stability-N{n}-{boundary}", seed, suite="stability", d=3, L=4, n=[n],
                   boundary=boundary, a=[1.0], g2=[2.0], mc=dict(mc))
            for n in (1, 2) for boundary in ("free", "periodic")
        ]
    if workload == "mc-genfun":
        mc = TINY_GENFUN_MC if tiny else GENFUN_MC
        return [
            _suite(f"genfun-N{n}", seed, suite="genfun", d=3, L=4, n=[n],
                   boundary="periodic", a=[1.0], g2=[2.0], mc=dict(mc))
            for n in (1, 2)
        ]
    if workload == "bounds-grid":
        ranks = [1, 2] if tiny else [1, 2, 3]
        return [
            _suite("group-check", seed, suite="group-check", n=ranks),
            _suite("weyl-check", seed, suite="weyl-check", n=ranks),
            _suite("single-bond", seed, suite="single-bond", d=3, n=ranks, a=SPACINGS,
                   g2=[0.5, 1.0]),
            _suite("approx-d4", seed, suite="approx", d=4, n=[ranks[-1]], a=[1.0],
                   g2=[0.25, 0.5, 1.0, 2.0]),
            _suite("approx-d2", seed, suite="approx", d=2, n=[2], a=SPACINGS, g2=[0.5, 1.0]),
            _ceiling_job(ranks[-1], seed),
        ]
    if workload == "scalar-fields":
        jobs = [_suite(f"scalar-d{d}", seed, suite="scalar", d=d, a=[1.0, 0.5, 0.25])
                for d in (2, 3, 4)]
        jobs.append(_scalar_genfun_job(seed))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks against values computed here, independently of the package.

def _mehta(beta: int, n: int) -> float:
    """int over R^n of exp(-(beta/2) sum y^2) |Delta(y)|^beta (Mehta's integral)."""
    gamma = beta / 2.0
    log_value = (0.5 * n * math.log(2.0 * math.pi)
                 - 0.5 * n * (1 + gamma * (n - 1)) * math.log(beta))
    for j in range(1, n + 1):
        log_value += math.lgamma(1.0 + j * gamma) - math.lgamma(1.0 + gamma)
    return math.exp(log_value)


def _u1_log_z_upper(beta: float) -> float:
    """log(beta^(1/2) z_upper) for U(1): z_upper = e^(-2 beta) I_0(2 beta)."""
    return 0.5 * math.log(beta) + math.log(special.i0e(2.0 * beta))


# Bond counts of the d=3, L=4 lattice both MC workloads use: 144 bonds minus
# a 63-bond spanning tree are retained; periodic closure adds 3 * 4^2 wraps.
SITES, RETAINED, WRAPS = 64, 81, 48


def _u1_ceiling(beta: float, strength: float) -> float:
    """U(1) generating-function ceiling at d=3, L=4 by one-dimensional quadrature."""
    root = math.sqrt(beta)

    def weight(t):
        return math.exp(strength * root * abs(math.sin(t)) - 4.0 * beta * math.sin(t / 2) ** 2)

    envelope = integrate.quad(weight, -math.pi, math.pi, points=[0.0], epsabs=0.0,
                              epsrel=1e-13)[0] / (2 * math.pi)
    rate = 2.0 * 4.0 * 2 * beta  # 2 C^2 (d - 1) beta with C^2 = 4
    z_low = math.sqrt(math.pi / rate) * math.erf(math.pi * math.sqrt(rate)) / (2 * math.pi)
    return envelope ** (8.0 * RETAINED / SITES) / z_low ** (8.0 * (RETAINED + WRAPS) / SITES)


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def check_outputs(workload: str, pkg: dict, records: Callable) -> list:
    """Compare a pass's records with independent values; returns the failures.

    ``records(stem)`` gives every record the pass wrote under that report stem.
    """
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    if workload == "bounds-grid":
        for rec in records("single-bond"):
            if rec["inputs"]["n"] == 1:
                beta = rec["values"]["beta"]
                expect(abs(rec["values"]["log_z_upper"] - _u1_log_z_upper(beta)) <= 1e-9,
                       f"U(1) z_upper at beta={beta}")
        quad = pkg["quadrature"].QuadratureSpec()
        for n in (1, 2):
            for beta in (2, 4):
                value = pkg["quadrature"].i_beta(beta, np.inf, pkg["groups"].GroupSpec(n), quad)
                expect(_close(value, _mehta(beta, n), 1e-9), f"i_beta({beta}, inf) at N={n}")
    elif workload == "scalar-fields":
        for rec in records("scalar"):
            d, a = rec["inputs"]["d"], rec["inputs"]["a"]
            expect(_close(rec["values"]["derivative"], 1.0 / (d * a**d), 1e-8),
                   f"massless derivative identity at d={d}, a={a}")
            expect(_close(rec["values"]["mass_gap"], (2.0 / a) * math.asinh(a / 2.0), 1e-12),
                   f"mass gap at d={d}, a={a}")
    elif workload == "mc-thermo":
        for rec in records("stability"):
            inputs, values = rec["inputs"], rec["values"]
            periodic = inputs["boundary"] == "periodic"
            expect(values["upper_exponent"] == RETAINED
                   and values["lower_exponent"] == RETAINED + (WRAPS if periodic else 0),
                   f"bond counts for {inputs}")
            if inputs["n"] == 1:
                expect(_close(values["upper"], RETAINED * math.log(
                    special.i0e(2.0 * inputs["beta"])), 1e-9), f"U(1) upper bound for {inputs}")
    elif workload == "mc-genfun":
        for rec in records("genfun"):
            inputs = rec["inputs"]
            if inputs["n"] == 1:
                expected = _u1_ceiling(inputs["beta"], inputs["strength"])
                expect(_close(rec["values"]["ceiling"], expected, 1e-7),
                       f"U(1) generating-function ceiling for {inputs}")
    return problems
