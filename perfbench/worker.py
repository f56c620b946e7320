"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --t0 MONOTONIC --work DIR --result FILE [--setup-only]

The run imports the package from ``src/`` of the checkout, generates its
inputs from the seed (JSON configs for the command line, parameters for
the Python API), and records ``setup_s`` when it is ready to make its
first call into a layer.  It then runs the workload's tasks, checks every
output, and writes one JSON result file.  ``run.py`` starts these
processes and aggregates their results.

A task is one CLI subcommand or one API call.  Each task contributes
named checks: the ``checks`` of the ``report.json`` a subcommand writes,
plus a ``completed`` check (no traceback, exit code 0 or 1); for API
calls, invariants the benchmark recomputes itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Checks that fail because of open defects in the program, listed in
# ROADMAP.md.  They stay in the count; run.py names them as known failures.
KNOWN_DEFECTS = {
    "nontrivial branch": "the default solver returns the trivial branch "
                         "although a nontrivial one exists above lam_1^s",
    "subharmonic strip": "the thin Laplacian is negative near the free "
                         "boundary on the 25-node square",
}

SQUARE = [[0.0, math.pi], [0.0, math.pi]]


# -- input generation -------------------------------------------------------------


def _square_analysis(rng) -> dict:
    centres = rng.uniform(0.8, 2.35, size=(16, 2))
    cfg = {
        "domain": {"kind": "rectangle", "n": 49, "bounds": SQUARE},
        "s": 0.75, "gamma": 0.1, "lambda_factor": 4.0,
        "frequency": {"centers": centres.tolist()},
        "blowup": {"center": rng.uniform(0.8, 2.35, size=2).tolist(),
                   "radius": 0.4},
    }
    return {"config": cfg, "cli": [["solve"], ["frequency"], ["blowup"]]}


def _slab_fd(rng) -> dict:
    cfg = {
        "domain": {"kind": "rectangle", "n": 25, "bounds": SQUARE},
        "s": 0.75, "gamma": 0.1, "lambda_factor": 4.0,
        "extension": {"layers": 64},
    }
    # the square is symmetric in both axes, so either axis costs the same
    axis = str(int(rng.integers(2)))
    return {"config": cfg, "cli": [["symmetrize", "--axis", axis], ["verify"]]}


# lam_1^s multiples per s: two where the default solver returns the trivial
# branch today, two above that.  They are fixed, not drawn: the solver's
# path (trivial, active set, continuation) and so its cost change with lam
# at a scale below 0.1% (near 4.4 lam_1^s and s=0.5 on the 25-node square,
# a move of less than 0.1% turned a 1.6 s continuation solve into a solve
# under 0.3 s), which would make the run time depend on the seed more than
# on the code.  The seed draws the target masses instead, whose solves
# average over dozens of inner solves.
LAMBDA_FACTORS = {0.3: (1.5, 2.0, 3.3, 6.5), 0.5: (1.5, 2.0, 3.2, 4.4),
                  0.75: (1.5, 2.0, 4.0, 5.0)}
MASS_RANGE = (0.0245, 0.0255)


def _solver_sweep(rng) -> dict:
    masses = {s: float(rng.uniform(*MASS_RANGE)) for s in (0.5, 0.75)}
    return {"domains": [("interval", 257, [0.0, math.pi]),
                        ("rectangle", 25, SQUARE)],
            "gamma": 0.1, "factors": LAMBDA_FACTORS, "masses": masses}


WORKLOADS = {
    "square-analysis": _square_analysis,
    "solver-sweep": _solver_sweep,
    "slab-fd": _slab_fd,
}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Seeded inputs; CLI workloads also get their config written to disk."""
    import numpy as np

    spec = WORKLOADS[workload](np.random.default_rng(seed))
    if "config" in spec:
        path = work / "config.json"
        path.write_text(json.dumps(spec["config"], indent=2))
        spec["config_path"] = str(path)
    return spec


# -- tasks ---------------------------------------------------------------------------


class Run:
    """Tasks of one run with their wall times and checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tasks = []

    @contextlib.contextmanager
    def task(self, name: str):
        record = {"name": name, "seconds": None, "checks": []}
        self.tasks.append(record)
        if self.tracer is not None:
            self.tracer.task = name
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["seconds"] = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.task = None

    @staticmethod
    def check(record: dict, name: str, passed: bool, value=None, note=""):
        record["checks"].append({"name": f"{record['name']}: {name}",
                                 "passed": bool(passed), "value": value,
                                 "note": note})


def _tail(text: str, lines: int = 3) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def _check_outputs(run: Run, rec: dict, command: str, out: Path,
                   cfg: dict) -> None:
    """The benchmark's own checks on what a subcommand wrote."""
    if command == "solve" and (out / "solution.json").is_file():
        sol = json.loads((out / "solution.json").read_text())
        if sol["lam"] > sol["lam1"] ** sol["s"]:
            run.check(rec, "nontrivial branch", sol["sup_u"] > sol["gamma"],
                      value=sol["sup_u"], note=sol["status"])
    elif command == "frequency" and (out / "frequency.json").is_file():
        centres = json.loads((out / "frequency.json").read_text())["centers"]
        profiled = sum(1 for c in centres if "skipped" not in c)
        run.check(rec, "every centre profiled",
                  profiled == len(cfg["frequency"]["centers"]),
                  value=profiled)


def run_cli(run: Run, spec: dict, work: Path) -> int:
    """Run each subcommand in-process; return the number of CSV rows written."""
    from fracplasma import cli

    rows = 0
    for argv in spec["cli"]:
        out = work / argv[0]
        with run.task(argv[0]) as rec:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv + ["--config", spec["config_path"],
                                            "--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # any escaping error is a failed task
                    code = None
                    err.write(traceback.format_exc())
        completed = code in (0, 1)
        run.check(rec, "completed", completed, value=code,
                  note="" if completed else _tail(err.getvalue()))
        report = out / "report.json"
        run.check(rec, "report written", report.is_file())
        if report.is_file():
            for c in json.loads(report.read_text()).get("checks", []):
                run.check(rec, c["name"], c["passed"], value=c.get("value"),
                          note=c.get("note", ""))
        _check_outputs(run, rec, argv[0], out, spec["config"])
        if run.tracer is not None:
            for csv in sorted(out.glob("*.csv")):
                with open(csv, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
    return rows


def _residual(basis, coeffs, lam, gamma, s) -> float:
    """Coefficient-space residual of L^s u = lam (u - gamma)_+, recomputed here."""
    import numpy as np

    u = basis.vectors @ coeffs
    proj = basis.weight * (basis.vectors.T @ np.maximum(u - gamma, 0.0))
    return float(np.linalg.norm(basis.eigenvalues**s * coeffs - lam * proj))


def _mass(basis, coeffs, gamma) -> float:
    """Quadratic overshoot mass h^dim * sum (u - gamma)_+^2 over the interior."""
    import numpy as np

    dom = basis.domain
    u = basis.vectors @ coeffs
    return float(dom.h**dom.dim * np.sum(np.maximum(u - gamma, 0.0) ** 2))


def _complete_basis(kind: str, n: int, bounds):
    from fracplasma import domains

    dom = domains.build_domain(kind, n, bounds=bounds)
    return domains.eigendecompose(dom, dom.n_interior)


def _api_call(run: Run, name: str, fn, *args):
    """Call fn as one task; return (record, result or None)."""
    note = ""
    with run.task(name) as rec:
        try:
            result = fn(*args)
        except Exception as exc:  # an exception is a failed task
            result = None
            note = f"{type(exc).__name__}: {exc}"
    run.check(rec, "completed", result is not None, note=note)
    return rec, result


def run_api(run: Run, spec: dict) -> None:
    """The Python API, one basis per domain shared by many solves."""
    from fracplasma import plasma

    gamma = spec["gamma"]
    tol = plasma.SolverOptions().tolerance
    rtol = plasma.SolverOptions().constraint_rtol
    for kind, n, bounds in spec["domains"]:
        label = f"{'square' if kind == 'rectangle' else kind}-{n}"
        rec, basis = _api_call(run, f"basis {label}", _complete_basis,
                               kind, n, bounds)
        if basis is None:
            continue
        for s, factors in spec["factors"].items():
            lam1s = float(basis.eigenvalues[0] ** s)
            for f in factors:
                lam = f * lam1s
                rec, sol = _api_call(run, f"fixed {label} s={s} f={f:.4f}",
                                     plasma.solve_fixed_lambda,
                                     basis, lam, gamma, s)
                if sol is None:
                    continue
                res = _residual(basis, sol.field.coeffs, lam, gamma, s)
                run.check(rec, "residual", res <= tol, value=res,
                          note=sol.status)
                if lam > lam1s:
                    sup = float(sol.trace.max())
                    run.check(rec, "nontrivial branch", sup > gamma, value=sup,
                              note=sol.method)
        for s, mass in spec["masses"].items():
            pair = {}
            for kind_name, fn in (("constrained", plasma.solve_constrained),
                                  ("energy", plasma.minimize_energy)):
                rec, sol = _api_call(run, f"{kind_name} {label} s={s} m={mass:.5f}",
                                     fn, basis, mass, gamma, s)
                if sol is None:
                    continue
                pair[kind_name] = sol.lam
                got = _mass(basis, sol.field.coeffs, gamma)
                run.check(rec, "mass on target", abs(got - mass) <= rtol * mass,
                          value=abs(got - mass) / mass)
                if kind_name == "constrained":
                    res = _residual(basis, sol.field.coeffs, sol.lam, gamma, s)
                    run.check(rec, "residual", res <= tol, value=res)
            if len(pair) == 2:
                rel = abs(pair["constrained"] - pair["energy"]) / pair["constrained"]
                run.check(rec, "lambda matches solve_constrained", rel <= 1e-6,
                          value=rel)


def _versions() -> str:
    import numpy
    import scipy

    def blas(info: dict) -> str:
        dep = info.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return (f"numpy {numpy.__version__} ({blas(numpy.show_config(mode='dicts'))}), "
            f"scipy {scipy.__version__} ({blas(scipy.show_config(mode='dicts'))})")


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent when it started this process")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    from fracplasma import cli, domains, plasma  # noqa: F401  (set-up imports)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    args.work.mkdir(parents=True, exist_ok=True)
    spec = generate(args.workload, args.seed, args.work)
    ready = time.monotonic()
    result = {"setup_s": ready - args.t0}
    if not args.setup_only:
        run = Run(tracer)
        csv_rows = run_cli(run, spec, args.work) if "cli" in spec else 0
        if "domains" in spec:
            run_api(run, spec)
        result["run_s"] = time.monotonic() - ready
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["tasks"] = run.tasks
        result["env"] = _versions()
        if tracer is not None:
            tracer.dump(args.work / "spans.json")
            result["layers"] = tracing.layer_metrics(tracer.spans, csv_rows)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
