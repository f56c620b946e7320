"""What the benchmark's span tracer (perfbench/tracing.py) needs of the package.

The tracer wraps package functions by name and reads their arguments by
parameter name, so a refactor can break ``perfbench/run.py --trace 1``
while every other test passes.  The module is loaded from its file and
left as it is; nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from fracplasma import (EigenBasis, build_domain, build_ymesh, eigendecompose,
                        extend_fd, solve_fixed_lambda)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the parameters _annotate reads from each annotated call
BOUND = {
    "domains.eigendecompose": ("domain",),
    "plasma.solve_fixed_lambda": ("basis", "lam", "s"),
    "extension.extend_fd": ("domain", "ymesh"),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(name):
    short, attr = name.split(".")
    return getattr(importlib.import_module(f"fracplasma.{short}"), attr)


def test_every_traced_name_exists(tracing):
    for short, names in tracing.LAYERS.items():
        module = importlib.import_module(f"fracplasma.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fracplasma.{short}.{name}"


def test_annotated_calls_keep_the_parameters_they_are_read_by(tracing):
    assert set(BOUND) <= set(tracing._ANNOTATED)
    for name, params in BOUND.items():
        have = inspect.signature(_traced(name)).parameters
        assert set(params) <= set(have), name
    # matrix_bytes of an eigendecompose span
    assert hasattr(EigenBasis, "vectors")


def test_annotate_reads_real_calls(tracing):
    dom = build_domain("rectangle", 9, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, 10)
    ym = build_ymesh(0.75, float(basis.eigenvalues[0]), layers=8)
    lam = 4.0 * float(basis.eigenvalues[0]) ** 0.75
    calls = [
        ("domains.eigendecompose", (dom, 10), basis),
        ("plasma.solve_fixed_lambda", (basis, lam, 0.1, 0.75),
         solve_fixed_lambda(basis, lam, 0.1, 0.75)),
        ("extension.extend_fd", (dom, np.zeros(dom.grid_shape), 0.75, ym),
         extend_fd(dom, np.zeros(dom.grid_shape), 0.75, ym)),
    ]
    for name, args, result in calls:
        bound = inspect.signature(_traced(name)).bind(*args).arguments
        attrs = {}
        tracing._annotate(name, bound, result, attrs)
        assert attrs, name
    assert attrs["unknowns"] == dom.n_interior * (ym.M - 1)
