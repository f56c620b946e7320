"""Span recorder for traced benchmark runs.

Wrappers are installed from outside the package: every public function
listed in ``LAYERS`` is replaced by a timing wrapper on *every* module
attribute that refers to it (``fracplasma.cli.eigendecompose`` as well as
``fracplasma.domains.eigendecompose``), so calls made through imported
names and calls made inside a module both open a span.  Classes are
replaced by a subclass whose constructor opens the span.

Spans are kept in memory and written out when the run ends; the
per-layer metrics are derived from them by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

# (module, public names) traced as spans named "<module>.<name>"
LAYERS = {
    "domains": ("build_domain", "eigendecompose"),
    "plasma": ("solve_fixed_lambda", "solve_constrained", "minimize_energy",
               "steiner_symmetrize"),
    "extension": ("build_ymesh", "extend_semianalytic", "extend_fd", "dtn",
                  "weighted_energy", "check_uy_sign"),
    "halfball": ("HalfBallQuadrature",),
    "freeboundary": ("extract_free_boundary", "frequency_profile", "blowup",
                     "classify_point", "singular_census",
                     "check_boundary_inclusion", "check_subharmonic_strip"),
    "cli": ("run_solve", "run_frequency", "run_blowup", "run_symmetrize",
            "run_verify"),
}

# per-layer metrics that are counts: two traced runs of one seed must agree
EXACT = ("domains.eigendecompose.calls", "domains.eigendecompose.matrix_mb",
         "cli.basis_builds_per_domain",
         "plasma.solve_fixed_lambda.calls", "plasma.solve_fixed_lambda.iterations",
         "plasma.solve_fixed_lambda.continuation_frac",
         "plasma.solve_fixed_lambda.trivial_above_threshold",
         "plasma.solve_constrained.inner_solves",
         "extension.extend_fd.calls", "extension.extend_fd.unknowns",
         "halfball.HalfBallQuadrature.calls",
         "freeboundary.singular_census.clusters", "cli.csv_rows")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.spans = []          # dicts: id, name, start, end, parent, task, attrs
        self._stack = []
        self.task = None

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "task": self.task, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _annotate(name: str, call: dict, result, attrs: dict) -> None:
    """Record the counts a span carries, read from its arguments and result."""
    if name == "domains.eigendecompose":
        dom = call["domain"]
        attrs["domain"] = repr((dom.shape, dom.grid_shape, dom.n_interior,
                                [round(float(ax[0]), 12) for ax in dom.axes],
                                [round(float(ax[-1]), 12) for ax in dom.axes]))
        attrs["matrix_bytes"] = int(result.vectors.nbytes)
    elif name == "plasma.solve_fixed_lambda":
        basis, lam, s = call["basis"], call["lam"], call["s"]
        lam1s = float(basis.eigenvalues[0] ** s)
        attrs["iterations"] = int(result.iterations)
        attrs["continuation"] = "continuation" in result.method
        attrs["trivial_above"] = bool(result.status == "trivial"
                                      and lam > lam1s * (1 + 1e-9))
    elif name == "extension.extend_fd":
        dom, ymesh = call["domain"], call["ymesh"]
        attrs["unknowns"] = int(dom.n_interior * (ymesh.M - 1))
    elif name == "freeboundary.singular_census":
        attrs["clusters"] = int(result.n_clusters)


_ANNOTATED = ("domains.eigendecompose", "plasma.solve_fixed_lambda",
              "extension.extend_fd", "freeboundary.singular_census")


def _wrap_function(tracer: Tracer, name: str, fn):
    measure_rss = name == "extension.extend_fd"
    signature = inspect.signature(fn) if name in _ANNOTATED else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        rss0 = _maxrss_mb() if measure_rss else 0.0
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if measure_rss:
            span["attrs"]["rss_growth_mb"] = _maxrss_mb() - rss0
        if signature is not None:
            call = signature.bind(*args, **kwargs).arguments
            _annotate(name, call, result, span["attrs"])
        return result

    return traced


def _wrap_class(tracer: Tracer, name: str, cls):
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        span = tracer.open(name)
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.close(span)

    return type(cls.__name__, (cls,), {"__init__": __init__,
                                       "__doc__": cls.__doc__,
                                       "__module__": cls.__module__})


def install(tracer: Tracer) -> None:
    """Replace every module attribute bound to a traced object."""
    for short in LAYERS:
        importlib.import_module(f"fracplasma.{short}")
    modules = [m for key, m in sys.modules.items()
               if key == "fracplasma" or key.startswith("fracplasma.")]
    for short, names in LAYERS.items():
        home = sys.modules[f"fracplasma.{short}"]
        for attr in names:
            orig = getattr(home, attr)
            span_name = f"{short}.{attr}"
            wrapped = (_wrap_class(tracer, span_name, orig)
                       if isinstance(orig, type)
                       else _wrap_function(tracer, span_name, orig))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)


def layer_metrics(spans: list, csv_rows: int) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name."""
    by_id = {sp["id"]: sp for sp in spans}
    child_time = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] = (child_time.get(sp["parent"], 0.0)
                                        + sp["end"] - sp["start"])

    def ancestors(sp):
        while sp["parent"] is not None:
            sp = by_id[sp["parent"]]
            yield sp

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def busy(name):
        # outermost spans only, so recursion is not counted twice
        return sum(sp["end"] - sp["start"] for sp in named(name)
                   if all(a["name"] != name for a in ancestors(sp)))

    def self_time(name):
        return sum(sp["end"] - sp["start"] - child_time.get(sp["id"], 0.0)
                   for sp in named(name))

    eig = named("domains.eigendecompose")
    fixed = named("plasma.solve_fixed_lambda")
    fd = named("extension.extend_fd")
    domains_seen = {sp["attrs"].get("domain") for sp in eig}
    cli_self = sum(self_time(f"cli.{n}") for n in LAYERS["cli"])
    inner = sum(1 for sp in fixed
                if any(a["name"] == "plasma.solve_constrained"
                       for a in ancestors(sp)))
    return {
        "domains.eigendecompose.busy_s": busy("domains.eigendecompose"),
        "domains.eigendecompose.calls": len(eig),
        "domains.eigendecompose.matrix_mb":
            sum(sp["attrs"].get("matrix_bytes", 0) for sp in eig) / 1e6,
        "cli.basis_builds_per_domain":
            len(eig) / len(domains_seen) if domains_seen else 0.0,
        "plasma.solve_fixed_lambda.busy_s": busy("plasma.solve_fixed_lambda"),
        "plasma.solve_fixed_lambda.calls": len(fixed),
        "plasma.solve_fixed_lambda.iterations":
            sum(sp["attrs"].get("iterations", 0) for sp in fixed),
        "plasma.solve_fixed_lambda.continuation_frac":
            (sum(sp["attrs"].get("continuation", 0) for sp in fixed) / len(fixed)
             if fixed else 0.0),
        "plasma.solve_fixed_lambda.trivial_above_threshold":
            sum(sp["attrs"].get("trivial_above", 0) for sp in fixed),
        "plasma.solve_constrained.busy_s": busy("plasma.solve_constrained"),
        "plasma.solve_constrained.inner_solves": inner,
        "plasma.minimize_energy.busy_s": busy("plasma.minimize_energy"),
        "extension.extend_fd.busy_s": busy("extension.extend_fd"),
        "extension.extend_fd.calls": len(fd),
        "extension.extend_fd.unknowns":
            max((sp["attrs"].get("unknowns", 0) for sp in fd), default=0),
        "extension.extend_fd.rss_growth_mb":
            sum(sp["attrs"].get("rss_growth_mb", 0) for sp in fd),
        "extension.extend_semianalytic.busy_s":
            busy("extension.extend_semianalytic"),
        "extension.dtn.busy_s": busy("extension.dtn"),
        "extension.weighted_energy.busy_s": busy("extension.weighted_energy"),
        "halfball.HalfBallQuadrature.busy_s": busy("halfball.HalfBallQuadrature"),
        "halfball.HalfBallQuadrature.calls":
            len(named("halfball.HalfBallQuadrature")),
        "freeboundary.frequency_profile.self_s":
            self_time("freeboundary.frequency_profile"),
        "freeboundary.blowup.self_s": self_time("freeboundary.blowup"),
        "freeboundary.singular_census.busy_s":
            busy("freeboundary.singular_census"),
        "freeboundary.singular_census.clusters":
            sum(sp["attrs"].get("clusters", 0)
                for sp in named("freeboundary.singular_census")),
        "freeboundary.check_subharmonic_strip.busy_s":
            busy("freeboundary.check_subharmonic_strip"),
        "freeboundary.check_boundary_inclusion.busy_s":
            busy("freeboundary.check_boundary_inclusion"),
        "cli.self_s": cli_self,
        "cli.csv_rows": csv_rows,
    }
