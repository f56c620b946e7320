#!/usr/bin/env python3
"""Sweep the operator order s and trace the frequency along the free boundary.

For each requested s the script solves the plasma problem at
lam = factor * lam_1^s, extends the solution, picks the free-boundary
point farthest from the domain walls, and records the Almgren frequency,
the flux-adjusted frequency, and the drift-corrected functional along a
radius ladder.  Output: one CSV row per (s, radius) plus a per-s summary
table on stdout; its `raw dec.` and `corr dec.` columns count the
profile's `monotone_violations` and `corrected_violations`, the steps the
`frequency` subcommand counts too.

Example:
    python3 scripts/frequency_sweep.py --domain square --n 49 --out /tmp/sweep
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from fracplasma import (build_domain, build_ymesh, eigendecompose,
                        extend_semianalytic, extract_free_boundary,
                        frequency_profile, solve_fixed_lambda)
from fracplasma import halfball


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--domain", choices=("interval", "square"),
                   default="interval")
    p.add_argument("--n", type=int, default=257,
                   help="grid nodes per axis (default 257)")
    p.add_argument("--s", default="0.3,0.5,0.75",
                   help="comma-separated operator orders in (0,1)")
    p.add_argument("--lam-factor", type=float, default=4.0,
                   help="lambda as a multiple of lam_1^s (default 4)")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--modes", type=int, default=0,
                   help="eigenmodes to keep (0 = complete basis)")
    p.add_argument("--radii", type=int, default=10,
                   help="number of ladder radii (default 10)")
    p.add_argument("--out", type=pathlib.Path, default=pathlib.Path("sweep_out"))
    return p.parse_args(argv)


def farthest_boundary_point(dom, trace, level):
    fb = extract_free_boundary(dom, trace, level)
    if not len(fb.locations):
        raise SystemExit("no free boundary at this level; raise --lam-factor")
    k = int(np.argmax([halfball.room(dom, x) for x in fb.locations]))
    return fb.locations[k]


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    orders = [float(tok) for tok in args.s.split(",") if tok]
    if args.domain == "interval":
        dom = build_domain("interval", args.n, bounds=(0.0, np.pi))
    else:
        dom = build_domain("rectangle", args.n,
                           bounds=((0.0, np.pi), (0.0, np.pi)))
    k = args.modes if args.modes > 0 else dom.n_interior
    basis = eigendecompose(dom, min(k, dom.n_interior))
    lam1 = float(basis.eigenvalues[0])

    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"{'s':>5} {'lam':>8} {'N(0+)':>8} {'sandwich':>9} "
          f"{'raw dec.':>8} {'corr dec.':>9}")
    for s in orders:
        lam = args.lam_factor * lam1**s
        sol = solve_fixed_lambda(basis, lam, args.gamma, s)
        if sol.status != "converged":
            print(f"{s:>5.2f}  solver status: {sol.status}; skipped")
            continue
        w = extend_semianalytic(sol.field, s, build_ymesh(s, lam1)).shifted(args.gamma)
        x0 = farthest_boundary_point(dom, w.trace, 0.0)
        rmin = halfball.MIN_CELLS * dom.h
        rmax = halfball.room(dom, x0, w.ymesh.Y) / 2
        if rmax <= rmin:
            print(f"{s:>5.2f}  no room for a radius ladder; skipped")
            continue
        radii = np.linspace(rmin, rmax, args.radii)
        prof = frequency_profile(w, x0, radii, lam)
        print(f"{s:>5.2f} {lam:>8.4f} {prof.n_zero_plus:>8.4f} "
              f"{prof.sandwich_constant:>9.4f} "
              f"{len(prof.monotone_violations):>8d} "
              f"{len(prof.corrected_violations):>9d}")
        for i, r in enumerate(prof.radii):
            rows.append([s, lam] + [float(c) for c in x0]
                        + [float(r), float(prof.frequency[i]),
                           float(prof.adjusted[i]), float(prof.corrected[i])])

    coord_names = [f"x{d}" for d in range(dom.dim)]
    path = args.out / "frequency_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "lam"] + coord_names
                        + ["r", "frequency", "adjusted", "corrected"])
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
