#!/usr/bin/env python3
"""Compare the plasma solves of two source trees on a grid of problems.

Every fixed-lambda case is one ``solve_fixed_lambda`` call, gamma = 0.1:

    domains  on complete bases: squares [0, pi]^2 of 17/25/33/49/65 nodes
             per axis, intervals [0, pi] of 65/129/257/513 nodes and the
             33-node disk of radius 1.4 in [-1.5, 1.5]^2; on truncated
             bases: the 49-node square with 400 modes and the 81-node
             square with 700
    s        0.3, 0.5, 0.75, 0.9
    lam      0.9, 1.05, 1.5, 2, 3.2, 3.3, 4, 4.4, 5, 6.5, 8 times lam_1^s

that is 528 cases.  On the same domains and orders, at the masses 0.01
and 0.025, ``solve_constrained`` and ``minimize_energy`` each make 96 more
cases.  ``--quick`` runs only the fixed-lambda cases of the 17-node square
and the 65-node interval, 88 cases.  Each tree runs the whole grid in one
fresh Python process with that tree first on PYTHONPATH.

Of a fixed-lambda case the script compares status, method, the plasma-set
size |A| = #{u > gamma}, the Newton update count and the step mix (direct
and MINRES steps) exactly, and sup u to within 1e-10.  Of a constrained or
energy case it compares status and |A| exactly and lam to 1e-10 relative;
a SolverError is a status carrying its message.  It prints every mismatch
and then, for each compared field, the number of cases in which it
differs, and exits 1 if there is a mismatch and 0 if not.
Each side's Newton updates and MINRES iterations summed over its
fixed-lambda cases, with the MINRES steps and iterations split into loose
ones (stopped at a forcing term above the package's tight tolerance) and
tight ones, its Green matrix builds (counted by wrapping
``fracplasma.plasma._green_matrix``) and solve times per route, the
inner ``solve_fixed_lambda`` calls of its constrained route (counted by
wrapping ``fracplasma.plasma.solve_fixed_lambda``, which the grid's own
fixed-lambda cases do not call through), the
largest relative lam difference between the two sides in each route, and
each problem of the change side whose energy-route lam differs from its
constrained lam by more than 1e-6 relative, are printed for information
only.  A tree whose solutions carry no ``forcing`` counts every MINRES
step as tight.

Example (a second checkout of the parent commit in ../parent):
    python3 scripts/solver_grid.py --parent ../parent/src --change src
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import time

SQUARES = (17, 25, 33, 49, 65)
INTERVALS = (65, 129, 257, 513)
# (nodes per axis, modes) of the squares on truncated bases
TRUNCATED = ((49, 400), (81, 700))
DISK = {"bounds": ((-1.5, 1.5),) * 2, "radius": 1.4, "center": (0.0, 0.0)}
ORDERS = (0.3, 0.5, 0.75, 0.9)
FACTORS = (0.9, 1.05, 1.5, 2.0, 3.2, 3.3, 4.0, 4.4, 5.0, 6.5, 8.0)
MASSES = (0.01, 0.025)
ROUTES = ("constrained", "energy")
GAMMA = 0.1
SUP_TOL = 1e-10
LAM_RTOL = 1e-10
# relative distance of the two routes' lam printed as a disagreement
ROUTE_RTOL = 1e-6
# the fields compared exactly; a constrained or energy case has only
# status and active of them
EXACT = ("status", "method", "active", "iterations", "direct", "minres_steps")
FIELDS = EXACT + ("sup u", "lam")


def domains(quick: bool):
    """(label, kind, nodes, keywords of ``build_domain``, modes; None for a
    complete basis) of every domain of the grid."""
    square, interval = {"bounds": ((0.0, math.pi),) * 2}, {"bounds": (0.0, math.pi)}
    squares = SQUARES[:1] if quick else SQUARES
    intervals = INTERVALS[:1] if quick else INTERVALS
    grid = ([(f"square-{n}", "rectangle", n, square, None) for n in squares]
            + [(f"interval-{n}", "interval", n, interval, None) for n in intervals])
    if quick:
        return grid
    return (grid + [(f"square-{n}-K{K}", "rectangle", n, square, K)
                    for n, K in TRUNCATED]
            + [("disk-33", "disk", 33, DISK, None)])


def count_calls(name: str) -> list:
    """Wrap the function ``name`` of ``fracplasma.plasma`` in a counter: the
    one-element list it increments."""
    from fracplasma import plasma

    count, call = [0], getattr(plasma, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return call(*args, **kwargs)

    setattr(plasma, name, counted)
    return count


def mass_case(solve, basis, mass: float, s: float) -> dict:
    """Status, |A|, lam and solve time of one constrained or energy solve;
    a SolverError is a status carrying its message."""
    import numpy as np
    from fracplasma import SolverError

    start = time.perf_counter()
    try:
        sol = solve(basis, mass, GAMMA, s)
    except SolverError as exc:
        case = {"status": f"SolverError: {exc}", "active": None, "lam": None}
    else:
        case = {"status": sol.status,
                "active": int(np.count_nonzero(sol.field.nodal > GAMMA)),
                "lam": sol.lam}
    case["seconds"] = time.perf_counter() - start
    return case


def solve_grid(quick: bool) -> dict:
    """Every case under the fracplasma that imports first: case label ->
    the compared fields, solve time and Green matrix builds, and a
    fixed-lambda case's MINRES iterations, and its loose MINRES steps and
    their iterations."""
    import numpy as np
    from fracplasma import (build_domain, eigendecompose, minimize_energy,
                            solve_constrained, solve_fixed_lambda)
    from fracplasma.plasma import _MINRES_RTOL

    builds = count_calls("_green_matrix")
    inner = count_calls("solve_fixed_lambda")
    out = {}
    for label, kind, n, keywords, modes in domains(quick):
        dom = build_domain(kind, n, **keywords)
        basis = eigendecompose(dom, modes or dom.n_interior)
        for s in ORDERS:
            lam1s = float(basis.eigenvalues[0] ** s)
            for f in FACTORS:
                before = builds[0]
                start = time.perf_counter()
                sol = solve_fixed_lambda(basis, f * lam1s, GAMMA, s)
                seconds = time.perf_counter() - start
                u = sol.field.nodal
                minres = np.asarray(sol.minres_iterations, dtype=int)
                # a tree without forcing takes every MINRES step tight
                forcing = getattr(sol, "forcing", None) or np.zeros(minres.size)
                loose = np.asarray(forcing) > _MINRES_RTOL
                out[f"{label} s={s} f={f}"] = {
                    "status": sol.status, "method": sol.method,
                    "active": int(np.count_nonzero(u > GAMMA)),
                    "iterations": sol.iterations,
                    "direct": int(np.count_nonzero(minres == 0)),
                    "minres_steps": int(np.count_nonzero(minres)),
                    "sup_u": float(u.max()),
                    "minres_total": int(minres.sum()),
                    "loose_steps": int(np.count_nonzero(loose)),
                    "loose_minres": int(minres[loose].sum()), "seconds": seconds,
                    "green_builds": builds[0] - before,
                }
            if quick:
                continue
            for m in MASSES:
                for route, solve in zip(ROUTES, (solve_constrained, minimize_energy)):
                    before, solves = builds[0], inner[0]
                    case = mass_case(solve, basis, m, s)
                    case["green_builds"] = builds[0] - before
                    case["inner_solves"] = inner[0] - solves
                    out[f"{label} s={s} m={m} {route}"] = case
    return out


def run_tree(src: pathlib.Path, quick: bool) -> dict:
    """The grid under one tree, in a fresh process (its errors go to our
    standard error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, __file__, "--worker"] + (["--quick"] if quick else [])
    done = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def route(case: str) -> str:
    """'constrained', 'energy' or 'fixed-lambda': the solver of a case."""
    last = case.rsplit(" ", 1)[-1]
    return last if last in ROUTES else "fixed-lambda"


def _lam_differs(x, y) -> bool:
    if x is None or y is None:
        return x is not y
    return abs(x - y) > LAM_RTOL * abs(x)


def differing(a: dict, b: dict) -> list:
    """The compared fields in which two results of one case differ."""
    keys = [key for key in EXACT if a.get(key) != b.get(key)]
    if "sup_u" in a and abs(a["sup_u"] - b["sup_u"]) > SUP_TOL:
        keys.append("sup u")
    if "lam" in a and _lam_differs(a["lam"], b["lam"]):
        keys.append("lam")
    return keys


def mismatches(parent: dict, change: dict) -> list:
    """One line per compared field that differs in a case."""
    lines = []
    for case in parent.keys() | change.keys():
        a, b = parent.get(case), change.get(case)
        if a is None or b is None:
            lines.append(f"{case}: only on the {'change' if a is None else 'parent'} side")
            continue
        for key in differing(a, b):
            field = "sup_u" if key == "sup u" else key
            lines.append(f"{case}: {key} {a[field]} -> {b[field]}" if key in EXACT
                         else f"{case}: {key} {a[field]!r} -> {b[field]!r}")
    return sorted(lines)


def tally(parent: dict, change: dict) -> str:
    """The number of cases on both sides in which each compared field
    differs."""
    counts = dict.fromkeys(FIELDS, 0)
    for case in parent.keys() & change.keys():
        for key in differing(parent[case], change[case]):
            counts[key] += 1
    return "differing cases by field: " + ", ".join(f"{k} {n}" for k, n in counts.items())


def lam_gaps(parent: dict, change: dict) -> str:
    """The largest relative lam difference between the two sides in each
    route's cases that have a lam on both sides; empty without such cases."""
    worst = {}
    for case in parent.keys() & change.keys():
        a, b = parent[case].get("lam"), change[case].get("lam")
        if a is not None and b is not None:
            worst[route(case)] = max(worst.get(route(case), 0.0), abs(b - a) / abs(a))
    return "" if not worst else "largest relative lam difference: " + ", ".join(
        f"{kind} {worst[kind]:.3g}" for kind in ROUTES if kind in worst)


def route_gaps(cases: dict) -> list:
    """One line per problem whose energy-route lam differs from its
    constrained lam by more than ROUTE_RTOL relative."""
    lines = []
    for case, con in cases.items():
        problem = case.removesuffix(" constrained")
        energy = cases.get(f"{problem} energy")
        if (problem == case or energy is None or con["lam"] is None
                or energy["lam"] is None):
            continue
        if abs(energy["lam"] - con["lam"]) > ROUTE_RTOL * abs(con["lam"]):
            lines.append(f"{problem}: energy lam {energy['lam']:.6g} against "
                         f"constrained {con['lam']:.6g}")
    return sorted(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=pathlib.Path,
                   help="directory holding the parent's fracplasma package")
    p.add_argument("--change", type=pathlib.Path,
                   help="directory holding the changed fracplasma package")
    p.add_argument("--quick", action="store_true",
                   help="only the 17-node square and the 65-node interval")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        print(json.dumps(solve_grid(args.quick)))
        return 0
    if args.parent is None or args.change is None:
        p.error("--parent and --change are required")
    sides = {name: run_tree(src, args.quick)
             for name, src in (("parent", args.parent), ("change", args.change))}
    for name, cases in sides.items():
        fixed = [c for case, c in cases.items() if route(case) == "fixed-lambda"]
        total = {key: sum(c[key] for c in fixed) for key in (
            "iterations", "minres_steps", "minres_total", "loose_steps", "loose_minres",
            "green_builds")}
        print(f"{name}: {len(fixed)} cases, {total['iterations']} Newton updates, "
              f"{total['minres_total']} MINRES iterations "
              f"({total['loose_minres']} in {total['loose_steps']} loose steps, "
              f"{total['minres_total'] - total['loose_minres']} in "
              f"{total['minres_steps'] - total['loose_steps']} tight), "
              f"{total['green_builds']} Green matrix builds, "
              f"solves {sum(c['seconds'] for c in fixed):.2f} s")
        for kind in ROUTES:
            runs = [c for case, c in cases.items() if route(case) == kind]
            if runs:
                inner = (f"{sum(c['inner_solves'] for c in runs)} inner solves, "
                         if kind == "constrained" else "")
                print(f"{name}: {len(runs)} {kind} cases, "
                      f"{sum(c['green_builds'] for c in runs)} Green matrix builds, "
                      f"{inner}solves {sum(c['seconds'] for c in runs):.2f} s")
    for line in route_gaps(sides["change"]):
        print(f"ROUTES {line}")
    lines = mismatches(sides["parent"], sides["change"])
    for line in lines:
        print(f"DIFFERS {line}")
    print(tally(sides["parent"], sides["change"]))
    if gaps := lam_gaps(sides["parent"], sides["change"]):
        print(gaps)
    print(f"{len(sides['change'])} cases match" if not lines
          else f"{len(lines)} mismatches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
