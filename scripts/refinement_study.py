#!/usr/bin/env python3
"""Grid-refinement study: free-boundary census and trace regularity.

Solves the same plasma problem on a ladder of grids and reports, per
grid: solver residual, plasma mass, free-boundary cell count (should
scale like 1/h for a one-dimensional boundary), singular/unresolved
census counts (should be stable), and the largest thin second
difference |D2 u|/h^2 (should stay bounded for s > 1/2).

Example:
    python3 scripts/refinement_study.py --nodes 25,35,49 --s 0.75
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from fracplasma import (build_domain, build_ymesh, census_reach,
                        constraint_mass, eigendecompose, extend_semianalytic,
                        singular_census, solve_fixed_lambda)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--domain", choices=("interval", "square"),
                   default="square")
    p.add_argument("--nodes", default="25,35,49",
                   help="comma-separated grid sizes (default 25,35,49)")
    p.add_argument("--s", type=float, default=0.75)
    p.add_argument("--lam-factor", type=float, default=4.0)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--modes", type=int, default=0,
                   help="eigenmodes to keep (0 = complete basis)")
    p.add_argument("--out", type=pathlib.Path,
                   default=pathlib.Path("refinement_out"))
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    sizes = [int(tok) for tok in args.nodes.split(",") if tok]
    s = args.s

    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"{'n':>4} {'h':>8} {'residual':>9} {'mass':>8} {'fb cells':>8} "
          f"{'singular':>8} {'unresolved':>10} {'max|D2|/h^2':>12}")
    for n in sizes:
        if args.domain == "interval":
            dom = build_domain("interval", n, bounds=(0.0, np.pi))
        else:
            dom = build_domain("rectangle", n,
                               bounds=((0.0, np.pi), (0.0, np.pi)))
        k = args.modes if args.modes > 0 else dom.n_interior
        basis = eigendecompose(dom, min(k, dom.n_interior))
        lam1 = float(basis.eigenvalues[0])
        lam = args.lam_factor * lam1**s
        sol = solve_fixed_lambda(basis, lam, args.gamma, s)
        if sol.status != "converged":
            print(f"{n:>4}  solver status: {sol.status}; skipped")
            continue
        mass = constraint_mass(dom, sol.field.nodal, args.gamma)
        # the census reads the extension only up to its largest radius
        ym = build_ymesh(s, lam1)
        reach = census_reach(dom, sol.trace, args.gamma, ym.Y)
        w = extend_semianalytic(sol.field, s, ym.prefix(reach))
        cen = singular_census(w, args.gamma, lam, ym.Y)
        u = sol.trace
        d2 = max(float(np.abs(np.diff(u, 2, axis=ax)).max()) / dom.h**2
                 for ax in range(dom.dim))
        print(f"{n:>4} {dom.h:>8.4f} {sol.residual:>9.1e} {mass:>8.4f} "
              f"{cen.n_cells:>8d} {cen.singular_count:>8d} "
              f"{len(cen.unresolved_locations):>10d} {d2:>12.4f}")
        rows.append([n, dom.h, sol.residual, mass, cen.n_cells,
                     cen.singular_count, len(cen.unresolved_locations), d2])

    path = args.out / "refinement_study.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "h", "residual", "mass", "fb_cells",
                         "singular", "unresolved", "max_d2"])
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
