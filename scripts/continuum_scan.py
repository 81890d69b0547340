#!/usr/bin/env python3
"""Spacing scans: factorized-model limits and the scalar decay rate.

Part 1 walks the factorized gauge model down the spacing sequence
a_k = 2**-k and prints the normalized free energy and the second scaled
moment together with consecutive differences, so the Cauchy behaviour
is visible by eye.

Part 2 fits the exponential decay rate of the free scalar two-point
function at each spacing and compares it with the closed-form lattice
mass gap (2/a) asinh(m_u a / (2 kappa_u)); both converge to m_u/kappa_u
as a -> 0.
Exits 0, or 1 when a Cauchy or rate check fails, or 3 on a computational
error (``Type: message`` on stderr), as the `latticeym` console script does.
"""

import argparse
import sys

from latticeym.errors import LatticeYMError
from latticeym.factorized import free_energy_limit, moment_limit
from latticeym.groups import GroupSpec
from latticeym.quadrature import QuadratureSpec
from latticeym.scalar import ScalarSpec, fit_decay_rate, mass_gap


def gauge_part(args):
    group = GroupSpec(args.N)
    quad = QuadratureSpec()
    fe = free_energy_limit(args.d, args.g2, group, quad, k_max=args.k_max,
                           tolerance=args.tol)
    m2 = moment_limit(2, args.d, args.g2, group, quad, k_max=args.k_max,
                      tolerance=args.tol)

    print(f"factorized model: d={args.d} N={args.N} g2={args.g2}")
    print(f"{'a':>12} {'free energy':>16} {'delta':>10} {'<(tr M)^2>':>14} {'delta':>10}")
    for k, a in enumerate(fe.spacings):
        dfe = "" if k == 0 else f"{abs(fe.values[k] - fe.values[k-1]):.2e}"
        dm2 = "" if k == 0 else f"{abs(m2.values[k] - m2.values[k-1]):.2e}"
        print(f"{a:>12.6g} {fe.values[k]:>16.10f} {dfe:>10} "
              f"{m2.values[k]:>14.10f} {dm2:>10}")
    print(f"  free energy: final delta {fe.final_delta:.2e}, "
          f"cauchy_ok={fe.cauchy_ok}")
    print(f"  2nd moment:  final delta {m2.final_delta:.2e}, "
          f"cauchy_ok={m2.cauchy_ok}  (N/2 = {args.N / 2})")
    return fe.cauchy_ok and m2.cauchy_ok


def scalar_part(args):
    print(f"\nscalar decay rate: d={args.d} m_u={args.m_u} kappa_u={args.kappa_u}")
    print(f"{'a':>8} {'fitted rate':>14} {'mass gap':>14} {'rel diff':>10} {'m_u/kappa_u':>12}")
    ok = True
    for a in args.a:
        spec = ScalarSpec(d=args.d, a=a, m_u=args.m_u, kappa_u=args.kappa_u)
        gap = mass_gap(spec)
        fit = fit_decay_rate(spec)
        rel = abs(fit.rate - gap) / gap
        ok = ok and rel < 0.02
        print(f"{a:>8g} {fit.rate:>14.8f} {gap:>14.8f} {rel:>10.2e} "
              f"{args.m_u / args.kappa_u:>12.6f}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--d", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--g2", type=float, default=1.0)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="Cauchy tolerance for the final delta")
    p.add_argument("--a", type=float, nargs="+", default=[1.0, 0.5, 0.25])
    p.add_argument("--m-u", type=float, default=1.0)
    p.add_argument("--kappa-u", type=float, default=1.0)
    args = p.parse_args(argv)

    try:
        ok = gauge_part(args)
        ok = scalar_part(args) and ok
    except (LatticeYMError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
