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
Exits 0, or 1 when a Cauchy or rate check fails, 2 on an invalid argument
value (before any integral), or 3 on a computational error (``Type:
message`` on stderr), as the `latticeym` console script does.
"""

import argparse
import math
import sys

import numpy as np

from latticeym.errors import LatticeYMError
from latticeym.factorized import normalized_free_energy, plaquette_moment
from latticeym.groups import GroupSpec
from latticeym.quadrature import QuadratureSpec
from latticeym.scalar import ScalarSpec, fit_decay_rate, mass_gap
from latticeym.single_bond import CouplingSpec, log_zeta_upper


def cauchy(values, tolerance):
    """(final delta, ok): differences shrink below `tolerance`, not growing at the tail."""
    deltas = np.abs(np.diff(np.asarray(values)))
    ok = deltas[-1] < tolerance and np.all(np.diff(deltas[-3:]) <= tolerance)
    return float(deltas[-1]), bool(ok)


def gauge_part(args, group, couplings):
    quad = QuadratureSpec()
    fe = [normalized_free_energy(log_zeta_upper(c, group, quad)[0], group) for c in couplings]
    m2 = [plaquette_moment(2, c, group, quad)[0] for c in couplings]
    (fe_delta, fe_ok), (m2_delta, m2_ok) = cauchy(fe, args.tol), cauchy(m2, args.tol)

    print(f"factorized model: d={args.d} N={args.N} g2={args.g2}")
    print(f"{'a':>12} {'free energy':>16} {'delta':>10} {'<(tr M)^2>':>14} {'delta':>10}")
    for k, c in enumerate(couplings):
        dfe = "" if k == 0 else f"{abs(fe[k] - fe[k-1]):.2e}"
        dm2 = "" if k == 0 else f"{abs(m2[k] - m2[k-1]):.2e}"
        print(f"{c.a:>12.6g} {fe[k]:>16.10f} {dfe:>10} {m2[k]:>14.10f} {dm2:>10}")
    print(f"  free energy: final delta {fe_delta:.2e}, cauchy_ok={fe_ok}")
    print(f"  2nd moment:  final delta {m2_delta:.2e}, "
          f"cauchy_ok={m2_ok}  (N/2 = {args.N / 2})")
    return fe_ok and m2_ok


def scalar_part(args, specs):
    print(f"\nscalar decay rate: d={args.d} m_u={args.m_u} kappa_u={args.kappa_u}")
    print(f"{'a':>8} {'fitted rate':>14} {'mass gap':>14} {'rel diff':>10} {'m_u/kappa_u':>12}")
    ok = True
    for spec in specs:
        gap = mass_gap(spec)
        fit = fit_decay_rate(spec)
        rel = abs(fit.rate - gap) / gap
        ok = ok and rel < 0.02
        print(f"{spec.a:>8g} {fit.rate:>14.8f} {gap:>14.8f} {rel:>10.2e} "
              f"{args.m_u / args.kappa_u:>12.6f}")
    return ok


def checked(parser, flag, build):
    """build(), or exit 2 naming `flag` when it rejects its value."""
    try:
        return build()
    except ValueError as exc:
        parser.error(f"argument {flag}: {exc}")


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
    if not 1 <= args.k_max <= 1074:  # a Cauchy check needs two spacings; 2**-1075 is 0.0
        p.error(f"argument --k-max: must lie in [1, 1074], got {args.k_max}")
    if not 0.0 < args.m_u < math.inf:
        p.error(f"argument --m-u: the decay-rate fit needs a finite m_u > 0, got {args.m_u}")
    group = checked(p, "--N", lambda: GroupSpec(args.N))
    couplings = checked(p, "--g2", lambda: [CouplingSpec(d=args.d, a=2.0**-k, g2=args.g2)
                                            for k in range(args.k_max + 1)])
    checked(p, "--kappa-u", lambda: ScalarSpec(d=args.d, a=1.0, m_u=args.m_u, kappa_u=args.kappa_u))
    specs = checked(p, "--a", lambda: [ScalarSpec(d=args.d, a=a, m_u=args.m_u, kappa_u=args.kappa_u)
                                       for a in args.a])

    try:
        ok = gauge_part(args, group, couplings)
        ok = scalar_part(args, specs) and ok
    except (LatticeYMError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
