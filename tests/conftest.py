import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import acceptance
from fracplasma import (build_domain, build_ymesh, eigendecompose,
                        extend_semianalytic, plasma, solve_fixed_lambda)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in acceptance.RESULTS:
        verdict = "PASS" if passed else "FAIL"
        line = f"[{verdict}] {criterion}"
        if detail:
            line += f" — {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _empty_green_slot():
    """Every test starts with no Green matrix kept from an earlier one, so
    counts of Green matrix builds do not depend on the order of tests."""
    plasma._release_green()


# -- session-scoped problem instances -------------------------------------------------
#
# The expensive objects (eigendecompositions, plasma solves, extensions)
# are shared across tests; everything downstream treats them as immutable.

GAMMA = 0.1


@pytest.fixture(scope="session")
def interval257():
    dom = build_domain("interval", 257, bounds=(0.0, np.pi))
    return dom, eigendecompose(dom, dom.n_interior)


@pytest.fixture(scope="session")
def interval129():
    dom = build_domain("interval", 129, bounds=(0.0, np.pi))
    return dom, eigendecompose(dom, dom.n_interior)


@pytest.fixture(scope="session")
def square49():
    dom = build_domain("rectangle", 49, bounds=((0.0, np.pi), (0.0, np.pi)))
    return dom, eigendecompose(dom, 400)


@pytest.fixture(scope="session")
def square25():
    dom = build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi)))
    return dom, eigendecompose(dom, dom.n_interior)


@pytest.fixture(scope="session")
def square81():
    dom = build_domain("rectangle", 81, bounds=((0.0, np.pi), (0.0, np.pi)))
    return dom, eigendecompose(dom, 700)


def _solve(basis, s, factor=4.0):
    lam = factor * float(basis.eigenvalues[0] ** s)
    return solve_fixed_lambda(basis, lam, GAMMA, s)


@pytest.fixture(scope="session")
def plasma_suite(interval257, square49):
    """Converged solutions on interval and square for s in {0.3, 0.5, 0.75} (+ 1D s=1)."""
    out = {}
    for label, (dom, basis) in (("interval", interval257), ("square", square49)):
        for s in (0.3, 0.5, 0.75):
            out[(label, s)] = _solve(basis, s)
        if label == "interval":
            out[(label, 1.0)] = _solve(basis, 1.0)
    return out


@pytest.fixture(scope="session")
def plasma_extensions(plasma_suite, interval257, square49):
    """Semianalytic extensions of every converged suite solution with s < 1."""
    bases = {"interval": interval257[1], "square": square49[1]}
    out = {}
    for (label, s), sol in plasma_suite.items():
        if s >= 1.0 or sol.status != "converged":
            continue
        basis = bases[label]
        ym = build_ymesh(s, float(basis.eigenvalues[0]))
        out[(label, s)] = extend_semianalytic(sol.field, s, ym)
    return out
