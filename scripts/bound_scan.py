#!/usr/bin/env python3
"""Scan the single-bond sandwich over a spacing/coupling grid.

For each (N, a, g2) evaluate the logarithms of the normalized bond integrals
z_u, z_l and the coupling-independent constants c_u, c_l, then print the
two margins

    c_u - log z_u   (should be >= 0)
    log z_l - c_l   (should be >= 0)

together with the sandwich width c_u - c_l.  A negative margin anywhere
means the uniform bounds are violated; the exit code reflects that.

Example:
    python scripts/bound_scan.py --d 4 --N 1 2 --a 1.0 0.5 0.1 --g2 0.5 1.0
"""

import argparse
import csv
import sys

import numpy as np

from latticeym.groups import GroupSpec
from latticeym.quadrature import QuadratureSpec
from latticeym.single_bond import CouplingSpec, bound_constants, log_zeta_lower, log_zeta_upper


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--d", type=int, default=4, choices=(2, 3, 4))
    p.add_argument("--N", type=int, nargs="+", default=[1, 2])
    p.add_argument("--a", type=float, nargs="+", default=[1.0, 0.5, 0.1, 0.01])
    p.add_argument("--g2", type=float, nargs="+", default=[0.1, 0.5, 1.0])
    p.add_argument("--g0-sq", type=float, default=4.0,
                   help="coupling ceiling entering c_l (must be >= max g2)")
    p.add_argument("--points", type=int, default=160)
    p.add_argument("--csv", type=str, default=None,
                   help="optional path for the raw numbers")
    args = p.parse_args(argv)

    if args.g0_sq < max(args.g2):
        p.error("--g0-sq must be >= every value in --g2")

    quad = QuadratureSpec(points=args.points)
    rows = []
    worst = np.inf
    header = (f"{'N':>2} {'a':>7} {'g2':>6} {'log z_u':>12} {'log z_l':>12} "
              f"{'c_u':>12} {'c_l':>12} {'up margin':>11} {'low margin':>11}")
    print(header)
    print("-" * len(header))
    for n in args.N:
        group = GroupSpec(n)
        # constants depend on (d, N, g0) only; compute once per group
        ref = CouplingSpec(d=args.d, a=1.0, g2=min(args.g2), g0_sq=args.g0_sq)
        cons = bound_constants(ref, group, quad)
        for a in args.a:
            for g2 in args.g2:
                cp = CouplingSpec(d=args.d, a=a, g2=g2, g0_sq=args.g0_sq)
                lu = log_zeta_upper(cp, group, quad)[0]
                ll = log_zeta_lower(cp, group, quad)[0]
                m_up = cons.c_upper - lu
                m_low = ll - cons.c_lower
                worst = min(worst, m_up, m_low)
                rows.append({"N": n, "a": a, "g2": g2, "log_z_u": lu,
                             "log_z_l": ll, "c_u": cons.c_upper,
                             "c_l": cons.c_lower, "margin_up": m_up,
                             "margin_low": m_low})
                print(f"{n:>2} {a:>7g} {g2:>6g} {lu:>12.6f} {ll:>12.6f} "
                      f"{cons.c_upper:>12.6f} {cons.c_lower:>12.6f} "
                      f"{m_up:>11.3e} {m_low:>11.3e}")

    print(f"\n{len(rows)} points, worst margin {worst:.3e}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0 if worst >= -1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())
