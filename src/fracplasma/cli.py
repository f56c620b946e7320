"""Command-line entry points.

Subcommands::

    fracplasma solve      --config cfg.json [--out DIR] [--refine F]
    fracplasma frequency  --config cfg.json ...
    fracplasma blowup     --config cfg.json ...
    fracplasma symmetrize --config cfg.json [--axis K] ...
    fracplasma verify     --config cfg.json ...

Every subcommand runs one pipeline: build the domain and its eigenbasis,
solve in the configured mode, extend the solution (only where the
subcommand reads the extension), do the subcommand's own work, and write
``report.json`` with named pass/fail checks next to its CSV/JSON
artefacts.  A failed solve, one that raises or returns status
``failed``, writes only ``report.json`` (``passed`` false, with the
error).  Exit codes: 0 success, 1 a solver or check failed or the
run ran out of memory, 2 configuration or usage errors.  All numeric CSV
values are printed with '%.17g', so repeated runs of the same
configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import freeboundary as fb, halfball
from .config import (CheckResult, ConfigError, ExperimentConfig, RunReport,
                     load_config)
from .domains import build_domain, eigendecompose
from .extension import (YMesh, build_ymesh, check_uy_sign, dtn,
                        extend_semianalytic, fd_energy)
from .plasma import (SolverError, SolverOptions, _release_green, constraint_mass,
                     minimize_energy, solve_constrained, solve_fixed_lambda,
                     steiner_symmetrize)
from .spectral import apply_fractional

__all__ = ["main", "run_solve", "run_frequency", "run_blowup",
           "run_symmetrize", "run_verify"]

_FMT = "%.17g"
_CSV_BLOCK = 4096
_FD_MAX_LAYERS = 120

_COMMANDS = {
    "solve": "solve the plasma problem and write the solution",
    "frequency": "frequency profiles around configured centres",
    "blowup": "rescaled field around one centre",
    "symmetrize": "Steiner symmetrization of the solution",
    "verify": "bundle of structural checks",
}


def _write_csv(path: Path, header: list, blocks) -> None:
    """Write an iterable of 2-D blocks of rows, one '%.17g' value per cell.

    In a block each column formats each of its distinct values once
    (distinct bit patterns, so 0.0 and -0.0 stay apart), and one
    %-operation over a repeated '%s' row template places the strings.
    Only one block is held at a time.
    """
    row = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            block = np.asarray(block, dtype=float).reshape(-1, len(header))
            cells = np.empty(block.shape, dtype=object)
            for k, col in enumerate(block.T):
                bits, where = np.unique(np.ascontiguousarray(col).view(np.int64),
                                        return_inverse=True)
                text = np.array([_FMT % v for v in bits.view(float).tolist()],
                                dtype=object)
                cells[:, k] = text[where]
            fh.write((row * len(block)) % tuple(cells.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _domain(cfg: ExperimentConfig):
    d = cfg.domain
    return build_domain(d.kind, d.n, bounds=d.bounds, radius=d.radius,
                        center=d.center)


class _Run:
    """One configuration run through domain, eigenbasis and plasma solve.

    A solve that ends with status ``failed`` raises ``SolverError``, so no
    subcommand analyses an unconverged field.  Extensions are built only
    when a subcommand asks for them, so it pays only for the stages it
    reads.
    """

    def __init__(self, cfg: ExperimentConfig, dom=None):
        self.cfg = cfg
        self.dom = _domain(cfg) if dom is None else dom
        n = self.dom.n_interior
        self.basis = eigendecompose(self.dom, min(cfg.basis_size or n, n))
        self.lam1 = float(self.basis.eigenvalues[0])
        if cfg.mode == "fixed_lambda":
            lam = cfg.lambda_value if cfg.lambda_value is not None \
                else cfg.lambda_factor * self.lam1**cfg.s
            self.sol = solve_fixed_lambda(self.basis, lam, cfg.gamma, cfg.s,
                                          options=cfg.solver)
        else:
            solver = solve_constrained if cfg.mode == "constrained" \
                else minimize_energy
            self.sol = solver(self.basis, cfg.constraint_target, cfg.gamma,
                              cfg.s, options=cfg.solver)
        # one solve per run, so the Green matrix it built is not kept
        _release_green()
        if self.sol.status == "failed":
            raise SolverError(f"{self.sol.method} solve failed (residual "
                              f"{self.sol.residual:.3e})", history=self.sol.history,
                              minres_iterations=self.sol.minres_iterations,
                              forcing=self.sol.forcing)

    def ymesh(self, layers: int = None):
        """The configured y-mesh, or one with that many layers."""
        ext = self.cfg.extension
        return build_ymesh(self.cfg.s, self.lam1, span_factor=ext.span_factor,
                           layers=layers or ext.layers, grading=ext.grading)

    def extension(self, ymesh=None):
        """Semianalytic extension of the solution on the configured y-mesh,
        or on ``ymesh`` (some of its nodes)."""
        return extend_semianalytic(self.sol.field, self.cfg.s,
                                   self.ymesh() if ymesh is None else ymesh)

    @cached_property
    def complete_basis(self):
        """The run's basis when it is complete, else the complete basis,
        built on first use and kept."""
        if self.basis.size == self.dom.n_interior:
            return self.basis
        return eigendecompose(self.dom, self.dom.n_interior)

    def fd_energy(self, values) -> float:
        """Finite-volume extension energy E_h of ``values``."""
        ym = self.ymesh(min(self.cfg.extension.layers, _FD_MAX_LAYERS))
        return fd_energy(self.complete_basis, values, self.cfg.s, ym)


def _pipeline(name: str, cfg: ExperimentConfig, out: Path, work, *,
              extends: bool = True, dom=None) -> int:
    """Solve ``cfg``, call ``work(run) -> checks`` and write the report.

    A subcommand that ``extends`` the solution is refused at s = 1, where
    there is no extension, before anything is solved or written.  The
    domain (unless ``dom`` is given) is built before the output directory
    is made, so a refused domain leaves none.
    """
    if extends and cfg.s == 1:
        raise ConfigError(f"{name} needs the extension, which requires s in (0, 1)")
    dom = _domain(cfg) if dom is None else dom
    out.mkdir(parents=True, exist_ok=True)
    try:
        run = _Run(cfg, dom)
    except SolverError as exc:
        _write_json(out / "report.json", {
            "name": name, "passed": False, "error": str(exc),
            "history": [float(x) for x in exc.history],
            "minres_iterations": list(exc.minres_iterations),
            "forcing": list(exc.forcing),
        })
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    report = RunReport(name=name, checks=tuple(work(run)))
    _write_json(out / "report.json", report.to_dict())
    print(report.table())
    return 0 if report.passed else 1


def _grid_rows(axes, arrays, columns=None):
    """Rows of node coordinates followed by the given full-grid arrays
    (the first axis slowest), in blocks of at most ``_CSV_BLOCK`` rows.

    ``columns`` orders the columns by their index in axes + arrays
    (default: that order).  Each block gathers its values from the axes
    and the arrays, which may be views, by the multi-index of a range of
    flat indices, so no table of the whole grid is built.
    """
    shape = tuple(len(ax) for ax in axes)
    sources = [*axes, *arrays]
    columns = range(len(sources)) if columns is None else columns
    n = int(np.prod(shape))
    for start in range(0, n, _CSV_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _CSV_BLOCK, n)), shape)
        block = np.empty((len(index[0]), len(columns)))
        for j, c in enumerate(columns):
            block[:, j] = sources[c][index[c] if c < len(axes) else index]
        yield block


def _coord_header(dom):
    return [f"x{k + 1}" for k in range(dom.dim)]


def _at(dom, index) -> str:
    """Coordinates of a grid position given in index units."""
    return ", ".join(f"{ax[0] + i * dom.h:.6g}" for ax, i in zip(dom.axes, index))


def _points(locations) -> str:
    """Points given by their coordinates, as "(x1, x2), ..." ("none" if empty)."""
    return ", ".join("(" + ", ".join(f"{c:.6g}" for c in p) + ")"
                     for p in locations) or "none"


def run_solve(cfg: ExperimentConfig, out: Path) -> int:
    def work(run):
        dom, basis, sol = run.dom, run.basis, run.sol
        _write_csv(out / "u.csv", _coord_header(dom) + ["u"],
                   _grid_rows(dom.axes, [sol.trace]))
        if cfg.s < 1:
            # only the written layers are extended
            ym = run.ymesh()
            M = ym.M
            picks = sorted({0, 1, 2, 4, M // 8, M // 4, M // 2, M})
            w = run.extension(YMesh(nodes=ym.nodes[picks], grading=ym.grading))
            # layer by layer (y slowest), thin nodes row-major
            _write_csv(out / "extension_slices.csv",
                       ["y"] + _coord_header(dom) + ["w"],
                       _grid_rows((w.ymesh.nodes,) + dom.axes,
                                  [np.moveaxis(w.values, -1, 0)]))
        _write_json(out / "solution.json", {
            "config": cfg.to_dict(), "lam": sol.lam, "lam1": run.lam1,
            "gamma": sol.gamma, "s": sol.s, "status": sol.status,
            "method": sol.method, "iterations": sol.iterations,
            "residual": sol.residual, "basis_size": basis.size,
            "n_interior": dom.n_interior, "sup_u": float(sol.trace.max()),
            "constraint_target": sol.constraint_target,
            "constraint_value": sol.constraint_value,
            "minres_iterations": sol.minres_iterations, "forcing": sol.forcing,
        })
        value, tol = sol.residual, cfg.solver.tolerance
        if sol.method == "energy":
            # judged by stationarity relative to |L^s u|
            value /= float(np.linalg.norm(basis.eigenvalues**sol.s * sol.field.coeffs))
            tol = SolverOptions.stationarity_rtol
        return [CheckResult(name="solver converged",
                            passed=sol.status in ("converged", "trivial"),
                            value=value, tolerance=tol, note=sol.status)]
    return _pipeline("solve", cfg, out, work, extends=False)


def _frequency_radii(cfg, dom, ym, center):
    rmax = cfg.frequency.r_max_fraction * halfball.room(dom, center, ym.Y)
    rmin = halfball.MIN_CELLS * dom.h
    if rmax <= rmin:
        return None
    return np.linspace(rmin, rmax, cfg.frequency.n_radii)


def run_frequency(cfg: ExperimentConfig, out: Path) -> int:
    def work(run):
        sol = run.sol
        # ladders and room come from the full mesh; the extension reaches
        # only up to the largest radius
        ym = run.ymesh()
        ladders = [_frequency_radii(cfg, run.dom, ym, center)
                   for center in cfg.frequency.centers]
        reach = max((radii[-1] for radii in ladders if radii is not None),
                    default=None)
        if reach is not None:
            w = run.extension(ym.prefix(reach)).shifted(sol.gamma)
        header = ["center_index", "r", "energy", "boundary", "thin_mass",
                  "frequency", "adjusted", "corrected"]
        rows, summaries = [], []
        for ci, (center, radii) in enumerate(zip(cfg.frequency.centers, ladders)):
            if radii is None:
                summaries.append({"center": list(center),
                                  "skipped": "no room for a radius ladder"})
                continue
            prof = fb.frequency_profile(w, center, radii, sol.lam)
            for k in range(len(prof.radii)):
                rows.append((ci, prof.radii[k], prof.energy[k], prof.boundary[k],
                             prof.thin_mass[k], prof.frequency[k],
                             prof.adjusted[k], prof.corrected[k]))
            summaries.append({
                "center": list(center), "n_zero_plus": prof.n_zero_plus,
                "sandwich_constant": prof.sandwich_constant,
                "monotone_violations": prof.monotone_violations,
                "corrected_violations": prof.corrected_violations,
                "n_truncated": prof.n_truncated, "note": prof.note,
            })
        _write_csv(out / "profiles.csv", header, [rows])
        _write_json(out / "frequency.json", {
            "lam": sol.lam, "gamma": sol.gamma, "s": sol.s, "centers": summaries,
        })
        n_raw = sum(len(s.get("monotone_violations", [])) for s in summaries)
        n_viol = sum(len(s.get("corrected_violations", [])) for s in summaries)
        return [CheckResult(name="corrected frequency monotone",
                            passed=n_viol == 0, value=float(n_viol),
                            tolerance=0.0,
                            note=f"raw adjusted-frequency decreases at {n_raw} steps")]
    return _pipeline("frequency", cfg, out, work)


def run_blowup(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.blowup.center is None or cfg.blowup.radius is None:
        raise ConfigError("blowup requires blowup.center and blowup.radius in "
                          "the configuration")
    # no y-mesh before the solve: the room here is the thin domain's
    dom = _domain(cfg)
    try:
        halfball.check_radii(dom, cfg.blowup.center, cfg.blowup.radius,
                             what="blow-up ball")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def work(run):
        ym = run.ymesh().prefix(cfg.blowup.radius)
        w = run.extension(ym).shifted(run.sol.gamma)
        bl = fb.blowup(w, cfg.blowup.center, cfg.blowup.radius,
                       ref_nodes=cfg.blowup.ref_nodes,
                       ref_layers=cfg.blowup.ref_layers)
        ref = bl.field
        d = ref.domain.dim
        # layer by layer (y slowest), thin nodes row-major; columns x..., y, value
        _write_csv(out / "blowup.csv", _coord_header(ref.domain) + ["y", "value"],
                   _grid_rows((ref.ymesh.nodes,) + ref.domain.axes,
                              [np.moveaxis(ref.values, -1, 0)],
                              columns=[*range(1, d + 1), 0, d + 1]))
        _write_json(out / "blowup.json", {
            "center": list(bl.center), "source_radius": bl.source_radius,
            "normalization": bl.normalization, "boundary_mass": bl.boundary_mass,
            "lam": run.sol.lam,
        })
        return [CheckResult(name="unit boundary mass",
                            passed=abs(bl.boundary_mass - 1) < 1e-6,
                            value=bl.boundary_mass, tolerance=1e-6)]
    return _pipeline("blowup", cfg, out, work, dom=dom)


def _steiner_check(name: str, e_before: float, e_after: float) -> CheckResult:
    """Steiner symmetrization may not raise the extension energy beyond
    rounding."""
    return CheckResult(name=name, passed=e_after <= e_before * (1 + 1e-10) + 1e-12,
                       value=e_after - e_before, tolerance=0.0)


def run_symmetrize(cfg: ExperimentConfig, out: Path, axis: int = 0) -> int:
    def work(run):
        dom, u = run.dom, run.sol.trace
        v = steiner_symmetrize(dom, u, axis)
        _write_csv(out / "symmetrized.csv",
                   _coord_header(dom) + ["u", "u_symmetrized"],
                   _grid_rows(dom.axes, [u, v]))
        e_before, e_after = run.fd_energy(u), run.fd_energy(v)
        g_before = constraint_mass(dom, u, cfg.gamma)
        g_after = constraint_mass(dom, v, cfg.gamma)
        _write_json(out / "symmetrize.json", {
            "axis": axis, "energy_before": e_before, "energy_after": e_after,
            "mass_before": g_before, "mass_after": g_after,
        })
        return [
            _steiner_check("energy does not increase", e_before, e_after),
            CheckResult(name="overshoot mass preserved",
                        passed=abs(g_after - g_before) <= 1e-12 * max(1.0, g_before),
                        value=abs(g_after - g_before), tolerance=1e-12),
        ]
    return _pipeline("symmetrize", cfg, out, work)


def run_verify(cfg: ExperimentConfig, out: Path) -> int:
    """Bundle of structural checks on one solved configuration."""
    def work(run):
        dom, sol, s, w = run.dom, run.sol, cfg.s, run.extension()
        u = sol.trace
        checks = []

        # 1. the two operator routes agree on the solution
        op_spec = apply_fractional(sol.field, s).nodal
        op_ext = dtn(w, lam1=run.lam1)[dom.interior]
        scale = max(float(np.abs(op_spec).max()), 1e-300)
        diff = np.abs(op_ext - op_spec)
        val = float(diff.max() / scale)
        checks.append(CheckResult(
            name="extension matches spectral operator", passed=val <= 1e-5,
            value=val, tolerance=1e-5, note="" if val <= 1e-5 else
            f"largest at ({_at(dom, np.argwhere(dom.interior)[np.argmax(diff)])})"))

        # 2. extension is monotone away from the trace
        rep = check_uy_sign(w)
        *node, k = rep.worst_location
        checks.append(CheckResult(
            name="extension nonincreasing in y", passed=rep.passed,
            value=rep.max_derivative, tolerance=0.0,
            note="" if rep.passed else f"u_y > 0 at {rep.n_violations} node-layer "
            f"pairs; largest at ({_at(dom, node)}) above layer {k}"))

        # 3. level-set transitions match across the free boundary
        inc = fb.check_boundary_inclusion(dom, u, sol.gamma)
        checks.append(CheckResult(
            name="level transitions within one cell", passed=inc.passed,
            value=inc.max_gap_cells, tolerance=1.0,
            note=inc.note if not inc.violations else
            f"{len(inc.violations)} unmatched transitions; first at "
            f"({_at(dom, inc.violations[0])})"))

        # 4. thin subharmonicity near the free boundary (s > 1/2 only)
        if s > 0.5:
            try:
                strip = fb.check_subharmonic_strip(dom, u, sol.gamma, s)
                checks.append(CheckResult(
                    name="subharmonic strip", passed=strip.passed,
                    value=strip.min_laplacian, tolerance=0.0,
                    note=f"minimum at {_points([strip.location])} of "
                         f"{strip.n_nodes} strip nodes"))
            except ValueError as exc:
                checks.append(CheckResult(name="subharmonic strip", passed=True,
                                          note=f"skipped: {exc}"))
        else:
            checks.append(CheckResult(name="subharmonic strip", passed=True,
                                      note="skipped (requires s > 1/2)"))

        # 5. solution inherits the domain symmetries
        sym_val, worst = 0.0, ""
        for axis in dom.symmetry_axes:
            gap = np.abs(u - dom.reflect(u, axis))
            if gap.max() > sym_val:
                sym_val, node = float(gap.max()), np.unravel_index(np.argmax(gap), u.shape)
                worst = f"largest for the mirror in x{axis + 1}, at ({_at(dom, node)})"
        checks.append(CheckResult(name="solution symmetric", passed=sym_val <= 1e-6,
                                  value=sym_val, tolerance=1e-6,
                                  note="" if sym_val <= 1e-6 else worst))

        # 6. Steiner symmetrization does not increase the extension energy
        if dom.symmetry_axes:
            v = steiner_symmetrize(dom, u, dom.symmetry_axes[0])
            checks.append(_steiner_check("Steiner energy non-increasing",
                                         run.fd_energy(u), run.fd_energy(v)))

        # 7. census is stable under one refinement; the refined solution is
        # extended only up to the census's largest radius
        try:
            c0 = fb.singular_census(w, sol.gamma, sol.lam)
            del w       # nothing reads the base slab past here
            fine = _Run(cfg.refine(2.0))
            ym = fine.ymesh()
            reach = fb.census_reach(fine.dom, fine.sol.trace, fine.sol.gamma, ym.Y)
            c2 = fb.singular_census(fine.extension(ym.prefix(reach)),
                                    fine.sol.gamma, fine.sol.lam, ym.Y)
            stable = c0.singular_count == c2.singular_count
            checks.append(CheckResult(
                name="census stable under refinement", passed=stable,
                value=float(c2.singular_count - c0.singular_count), tolerance=0.0,
                note=f"{c0.singular_count} singular at base, "
                     f"{c2.singular_count} refined" + ("" if stable else
                     f"; base at {_points(c0.singular_locations)}, "
                     f"refined at {_points(c2.singular_locations)}")))
        except (ValueError, SolverError) as exc:
            checks.append(CheckResult(name="census stable under refinement",
                                      passed=False, note=str(exc)))
        return checks
    return _pipeline("verify", cfg, out, work)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fracplasma",
                                description="fractional plasma laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name, blurb in _COMMANDS.items():
        q = sub.add_parser(name, help=blurb)
        q.add_argument("--config", required=True, help="JSON configuration file")
        q.add_argument("--out", default=None, help="output directory")
        q.add_argument("--refine", type=float, default=None,
                       help="scale grid resolution by this factor")
        if name == "symmetrize":
            q.add_argument("--axis", type=int, default=0,
                           help="axis to symmetrize along")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a wrapper set on the module attribute runs
    command = globals()[f"run_{args.command}"]
    kwargs = {"axis": args.axis} if args.command == "symmetrize" else {}
    try:
        cfg = load_config(args.config)
        if args.refine is not None:
            cfg = cfg.refine(args.refine)
        return command(cfg, Path(args.out or cfg.out_dir), **kwargs)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, SystemError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"linear algebra failure: {args.command} stopped: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"out of memory: {args.command} needs more memory than is "
              "available; try a coarser grid or fewer basis modes",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
