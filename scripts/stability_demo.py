#!/usr/bin/env python3
"""Monte-Carlo check of the free-energy sandwich on a small lattice.

Runs the plaquette Metropolis chain at the requested point, estimates
log Z by thermodynamic integration over the beta grid, and compares it
against the deterministic single-bond bounds

    (R + E) log z_l  <=  log Z  <=  R log z_u

with R the retained and E the wrap bonds of the gauge-fixed lattice.
Margins are quoted in units of the blocked standard error.
"""

import argparse
import sys
import time

from latticeym.groups import GroupSpec
from latticeym.mc import MCParams, verify_stability
from latticeym.quadrature import QuadratureSpec
from latticeym.single_bond import CouplingSpec


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--d", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--g2", type=float, default=1.0)
    p.add_argument("--boundary", choices=("free", "periodic"), default="free")
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--therm", type=int, default=300)
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    coupling = CouplingSpec(d=args.d, a=args.a, g2=args.g2)
    group = GroupSpec(args.N)
    params = MCParams(sweeps=args.sweeps, thermalization=args.therm,
                      chains=args.chains, seed=args.seed)
    quad = QuadratureSpec()

    print(f"d={args.d} L={args.L} N={args.N} a={args.a} g2={args.g2} "
          f"beta={coupling.beta:g} boundary={args.boundary}")
    t0 = time.perf_counter()
    report = verify_stability(args.L, args.boundary, coupling, group,
                              params, quad)
    dt = time.perf_counter() - t0

    print(f"  lower bound   {report.lower:14.6f}  ({report.lower_exponent} bonds)")
    print(f"  log Z (MC)    {report.mc_value:14.6f}  +- {report.mc_error:.4f}")
    print(f"  upper bound   {report.upper:14.6f}  ({report.upper_exponent} bonds)")
    print(f"  margins       {report.lower_margin_sigma:8.1f} sigma above lower, "
          f"{report.upper_margin_sigma:8.1f} sigma below upper")
    diag = report.diagnostics
    print(f"  sampler       acceptance >= {diag.accept_min:.3f}, "
          f"eps in [{diag.epsilon_min:.3f}, {diag.epsilon_max:.3f}], "
          f"unitarity defect {diag.unitarity_defect:.1e}")
    print(f"  verdict       {'PASS' if report.passed else 'FAIL'}   ({dt:.1f}s)")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
