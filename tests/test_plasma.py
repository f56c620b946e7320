from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

import oracles
import fracplasma.plasma as plasma
from fracplasma import (Domain, SolverOptions, apply_fractional, build_domain,
                        constraint_mass, eigendecompose, minimize_energy,
                        solve_constrained, solve_fixed_lambda,
                        steiner_symmetrize)
from fracplasma.plasma import (_DIRECT_MAX, _GREEN_MAX, _MINRES_RTOL,
                               _NEWTON_UPDATES, _Log, _active_set_step,
                               _brentq, _lbfgs, _minres, _plasma_rhs,
                               _reduced_energy, _scale_onto_mass)

GAMMA = 0.1


def _residual(basis, coeffs, lam, s):
    dom = basis.domain
    return oracles.plasma_residual(dom.grid_shape, dom.h, coeffs, lam, GAMMA, s)


@pytest.fixture(scope="module")
def basis1d():
    dom = build_domain("interval", 129, bounds=(0.0, np.pi))
    return eigendecompose(dom, dom.n_interior)


@pytest.fixture(scope="module")
def basis2d():
    dom = build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi)))
    return eigendecompose(dom, dom.n_interior)


def test_rhs_is_positive_part():
    u = np.array([-1.0, 0.0, 0.05, 0.1, 0.4])
    np.testing.assert_allclose(_plasma_rhs(u, 0.1),
                               [0.0, 0.0, 0.0, 0.0, 0.3])


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 1.0])
def test_fixed_lambda_converges_supercritical_1d(basis1d, s):
    lam = 4.0 * float(basis1d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis1d, lam, GAMMA, s)
    assert sol.status == "converged"
    assert sol.residual <= 1e-10
    assert sol.field.nodal.max() > GAMMA


@pytest.mark.parametrize("s", [0.3, 0.75])
def test_fixed_lambda_converges_supercritical_2d(basis2d, s):
    lam = 4.0 * float(basis2d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    assert sol.status == "converged"
    assert sol.residual <= 1e-10
    assert sol.field.nodal.max() > GAMMA


# sup u of the two continuation solves on the 25-node square, computed with
# the explicitly assembled K x K modal step; the plasma-set step must reach
# the same solutions
@pytest.mark.parametrize("s, factor, sup_u", [(0.3, 3.3, 0.5356446684272194),
                                              (0.5, 4.4, 0.3140615373467747)])
def test_continuation_solves_keep_their_solutions_2d(basis2d, s, factor, sup_u):
    lam = factor * float(basis2d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    assert sol.status == "converged"
    assert sol.residual <= SolverOptions().tolerance
    assert sol.field.nodal.max() == pytest.approx(sup_u, rel=1e-8)


@pytest.fixture(scope="module")
def basis257():
    dom = build_domain("interval", 257, bounds=(0.0, np.pi))
    return eigendecompose(dom, dom.n_interior)


@pytest.fixture(scope="module")
def basis49():
    dom = build_domain("rectangle", 49, bounds=((0.0, np.pi), (0.0, np.pi)))
    return eigendecompose(dom, dom.n_interior)


# LAMBDA_FACTORS of perfbench/worker.py: the lam_1^s multiples per s of the
# solver-sweep's fixed-lambda solves on the 257-node interval and the
# 25-node square
SWEEP_LAMBDA_FACTORS = {0.3: (1.5, 2.0, 3.3, 6.5), 0.5: (1.5, 2.0, 3.2, 4.4),
                        0.75: (1.5, 2.0, 4.0, 5.0)}
# method, |A| = #{u > gamma} and sup u of each of those solves and of the
# README's 49-node square at 4 lam_1^s, all converged, as computed when every
# sine transform went through scipy.fft's DST-I
PINNED_ANSWERS = {
    "interval": {
        (0.3, 1.5): ("active-set", 167, 0.43698112986614784),
        (0.3, 2.0): ("active-set", 109, 0.31754441760587193),
        (0.3, 3.3): ("active-set+continuation", 47, 0.25070350309809436),
        (0.3, 6.5): ("active-set+continuation", 15, 0.21877998484783423),
        (0.5, 1.5): ("active-set", 195, 0.4016801192334988),
        (0.5, 2.0): ("active-set", 153, 0.27474835082740134),
        (0.5, 3.2): ("active-set", 99, 0.20412916234108403),
        (0.5, 4.4): ("active-set", 73, 0.18212079704369777),
        (0.75, 1.5): ("active-set", 205, 0.38851432376416917),
        (0.75, 2.0): ("active-set", 173, 0.25949176935085766),
        (0.75, 4.0): ("active-set", 113, 0.16996235392645062),
        (0.75, 5.0): ("active-set", 97, 0.15781994699450932),
    },
    "square25": {
        (0.3, 1.5): ("active-set", 185, 0.6951532635257353),
        (0.3, 2.0): ("active-set", 69, 0.5691055934586092),
        (0.3, 3.3): ("active-set+continuation", 9, 0.5356446684272204),
        (0.3, 6.5): ("active-set", 201, 0.1558063263002505),
        (0.5, 1.5): ("active-set", 285, 0.5677756706649303),
        (0.5, 2.0): ("active-set", 169, 0.41414488244356207),
        (0.5, 3.2): ("active-set", 69, 0.3333873216910761),
        (0.5, 4.4): ("active-set+continuation", 37, 0.31406153734677467),
        (0.75, 1.5): ("active-set", 329, 0.5194983499504116),
        (0.75, 2.0): ("active-set", 241, 0.35576041768450356),
        (0.75, 4.0): ("active-set", 97, 0.2433808015923822),
        (0.75, 5.0): ("active-set", 69, 0.2279131088238336),
    },
    "square49": {
        (0.3, 4.0): ("active-set+continuation", 25, 0.5176027915965036),
        (0.5, 4.0): ("active-set+continuation", 177, 0.31436299231238657),
        (0.75, 4.0): ("active-set", 373, 0.24278041170293224),
    },
}


@pytest.mark.parametrize("kind, s, factor", [
    (kind, s, f) for kind in ("interval", "square25")
    for s, factors in SWEEP_LAMBDA_FACTORS.items() for f in factors
] + [("square49", s, 4.0) for s in (0.3, 0.5, 0.75)])
def test_fixed_lambda_answers_are_pinned(basis257, basis2d, basis49, kind, s, factor):
    basis = {"interval": basis257, "square25": basis2d, "square49": basis49}[kind]
    method, active, sup_u = PINNED_ANSWERS[kind][s, factor]
    sol = solve_fixed_lambda(basis, factor * float(basis.eigenvalues[0] ** s), GAMMA, s)
    assert (sol.status, sol.method) == ("converged", method)
    assert np.count_nonzero(sol.field.nodal > GAMMA) == active
    assert abs(sol.field.nodal.max() - sup_u) <= 1e-10


def _mirror_asymmetry(sol):
    U = sol.trace
    return max(float(np.abs(U - np.flip(U, axis=ax)).max()) for ax in range(U.ndim))


# above lam_1^s the solver must return the nontrivial branch, never u = 0;
# at 1.01 lam_1^s only the continuation from the fully active state finds it
@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("factor", [1.01, 1.5, 2.5])
@pytest.mark.parametrize("kind", ["interval", "square"])
def test_nontrivial_branch_above_threshold(basis257, basis2d, kind, factor, s):
    basis = basis257 if kind == "interval" else basis2d
    lam = factor * float(basis.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis, lam, GAMMA, s)
    assert sol.status == "converged"
    assert sol.field.nodal.max() > GAMMA
    assert sol.residual <= SolverOptions().tolerance
    assert _mirror_asymmetry(sol) <= 1e-10


# the solver returns the branch that an independent walk up from the
# threshold follows.  No square case at s = 0.3, where the bump-started run
# at lam lands on a different branch from the walk's one-node plasma set
@pytest.mark.parametrize("factor", [2.0, 4.4, 8.0])
@pytest.mark.parametrize("kind, s", [("square", 0.5), ("square", 0.75),
                                     ("square", 0.9), ("interval", 0.3),
                                     ("interval", 0.5), ("interval", 0.75)])
def test_solver_lands_on_the_threshold_branch(kind, s, factor):
    if kind == "interval":
        dom = build_domain("interval", 65, bounds=(0.0, np.pi))
    else:
        dom = build_domain("rectangle", 17, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, dom.n_interior)
    lam = factor * float(basis.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis, lam, GAMMA, s)
    ref = oracles.threshold_branch(dom.grid_shape, dom.h, lam, GAMMA, s)
    assert sol.status == "converged"
    assert np.count_nonzero(sol.field.nodal > GAMMA) == np.count_nonzero(ref > GAMMA)
    assert abs(sol.field.nodal.max() - ref.max()) <= 1e-10


# points where the square's answer used to depend on rounding in the basis
@pytest.mark.parametrize("s, factor", [(0.3, 6.5), (0.5, 3.2)])
def test_square_solutions_are_mirror_symmetric(basis2d, s, factor):
    lam = factor * float(basis2d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    assert sol.status == "converged"
    assert _mirror_asymmetry(sol) <= 1e-10


def test_solution_satisfies_equation_nodally(basis1d):
    s = 0.5
    lam = 4.0 * float(basis1d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis1d, lam, GAMMA, s)
    lhs = apply_fractional(sol.field, s).nodal
    rhs = lam * _plasma_rhs(sol.field.nodal, GAMMA)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_subcritical_multiplier_gives_zero(basis1d):
    lam = 0.5 * float(basis1d.eigenvalues[0] ** 0.5)
    sol = solve_fixed_lambda(basis1d, lam, GAMMA, 0.5)
    assert sol.status == "trivial"
    np.testing.assert_array_equal(sol.field.nodal, 0.0)


def test_solution_positive_and_bounded(basis1d):
    s = 0.75
    lam = 4.0 * float(basis1d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis1d, lam, GAMMA, s)
    u = sol.field.nodal
    assert u.min() > -1e-12
    # the plasma set is a strict subset: u exceeds gamma only in the middle
    full = sol.trace
    assert full[1] < GAMMA and full[-2] < GAMMA


def test_plasma_set_is_interval_1d(basis1d):
    s = 0.5
    lam = 4.0 * float(basis1d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis1d, lam, GAMMA, s)
    active = sol.field.nodal > GAMMA
    idx = np.flatnonzero(active)
    assert idx.size > 3
    assert np.all(np.diff(idx) == 1)


def test_invalid_problem_parameters_rejected(basis1d):
    with pytest.raises(ValueError):
        solve_fixed_lambda(basis1d, -1.0, GAMMA, 0.5)
    with pytest.raises(ValueError):
        solve_fixed_lambda(basis1d, 1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        solve_fixed_lambda(basis1d, 1.0, GAMMA, 1.5)


def test_interval_converges_to_the_classical_plasma_at_second_order():
    # at s = 1 the problem is the classical plasma problem; on nested
    # complete intervals the nodal sup error against its closed form falls
    # at order 2 (1.90e-4 on 33 nodes, 3.17e-6 on 257)
    errors = []
    for n in (33, 65, 129, 257):
        dom = build_domain("interval", n, bounds=(0.0, np.pi))
        sol = solve_fixed_lambda(eigendecompose(dom, dom.n_interior), 4.0, GAMMA, 1.0)
        assert sol.status == "converged"
        x = dom.axes[0][dom.interior]
        errors.append(np.abs(sol.field.nodal
                             - oracles.classical_plasma_interval(x, 4.0, GAMMA)).max())
    orders = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
    assert orders.min() >= 1.9, (errors, orders)


def _never_run(*args, **kwargs):
    raise AssertionError("a non-finite input reached a Newton run")


@pytest.mark.parametrize("call, message", [
    (lambda b: solve_fixed_lambda(b, np.inf, GAMMA, 0.5), "lam must be"),
    (lambda b: solve_fixed_lambda(b, np.nan, GAMMA, 0.5), "lam must be"),
    (lambda b: solve_fixed_lambda(b, 4.0, np.nan, 0.5), "gamma must be"),
    (lambda b: solve_fixed_lambda(b, 4.0, np.inf, 0.5), "gamma must be"),
    (lambda b: solve_fixed_lambda(b, 4.0, GAMMA, np.nan), "fractional order"),
    (lambda b: solve_constrained(b, np.nan, GAMMA, 0.5), "mass must be"),
    (lambda b: solve_constrained(b, np.inf, GAMMA, 0.5), "mass must be"),
    (lambda b: minimize_energy(b, np.nan, GAMMA, 0.5), "mass must be"),
    (lambda b: minimize_energy(b, np.inf, GAMMA, 0.5), "mass must be"),
    (lambda b: SolverOptions(tolerance=np.nan), "tolerance must be"),
    (lambda b: SolverOptions(tolerance=np.inf), "tolerance must be"),
], ids=["lam-inf", "lam-nan", "gamma-nan", "gamma-inf", "s-nan",
        "constrained-mass-nan", "constrained-mass-inf", "energy-mass-nan",
        "energy-mass-inf", "tolerance-nan", "tolerance-inf"])
def test_non_finite_inputs_are_refused_at_once(monkeypatch, call, message):
    # refused before any Newton run or minimisation starts
    monkeypatch.setattr(plasma, "_active_set_solve", _never_run)
    monkeypatch.setattr(plasma, "_lbfgs", _never_run)
    dom = build_domain("interval", 33, bounds=(0.0, np.pi))
    with pytest.raises(ValueError, match=message):
        call(eigendecompose(dom, dom.n_interior))


def test_oracle_agreement_integer_order(basis1d):
    lam = 4.0 * float(basis1d.eigenvalues[0])
    sol = solve_fixed_lambda(basis1d, lam, GAMMA, 1.0)
    ref = oracles.newton_plasma_1d(0.0, np.pi, 129, lam, GAMMA)
    assert np.abs(sol.field.nodal - ref).max() < 1e-8


# -- the active-set step against the explicitly assembled modal system ---------------


@pytest.fixture(scope="module")
def step_domains():
    return {
        "interval": build_domain("interval", 257, bounds=(0.0, np.pi)),
        "square": build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi))),
        "disk": build_domain("disk", 25, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                             radius=1.0, center=(0.0, 0.0)),
    }


def _ground_mode_set(basis, p):
    """The p interior nodes where the ground mode is largest."""
    active = np.zeros(basis.domain.n_interior, dtype=bool)
    active[np.argsort(-basis.vectors[:, 0], kind="stable")[:p]] = True
    return active


# K = None is the complete basis; K = 105 of the square's 529 modes makes
# the 10% set p < K and the larger sets p > K; the 10% sets and the interval
# take the direct step, the larger square and disk sets the MINRES step
@pytest.mark.parametrize("fraction", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("kind, K", [("interval", None), ("square", None),
                                     ("disk", None), ("square", 105)])
def test_active_set_step_matches_dense_modal_oracle(step_domains, kind, K, fraction):
    dom = step_domains[kind]
    basis = eigendecompose(dom, K or dom.n_interior)
    s = 0.5
    lam = 3.2 * float(basis.eigenvalues[0] ** s)
    active = _ground_mode_set(basis, round(fraction * dom.n_interior))
    got = _active_set_step(basis, lam, GAMMA, s, active, _MINRES_RTOL, _Log())
    ref = oracles.active_set_step(basis.vectors, basis.eigenvalues, basis.weight,
                                  lam, GAMMA, s, active)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


# sets of exactly _DIRECT_MAX nodes take the direct step, one node more the
# MINRES step, on every kind of basis under the Green matrix cap; above it
# (33^2 = 1089 interior nodes) both take the MINRES step
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("kind, n, K", [("interval", 513, None), ("square", 25, None),
                                        ("square", 25, 105), ("disk", 25, None),
                                        ("square", 35, None)])
def test_active_set_step_on_both_sides_of_direct_threshold(kind, n, K, extra):
    if kind == "interval":
        dom = build_domain("interval", n, bounds=(0.0, np.pi))
    elif kind == "square":
        dom = build_domain("rectangle", n, bounds=((0.0, np.pi), (0.0, np.pi)))
    else:
        dom = build_domain("disk", n, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                           radius=1.0, center=(0.0, 0.0))
    basis = eigendecompose(dom, K or dom.n_interior)
    s = 0.5
    lam = 3.2 * float(basis.eigenvalues[0] ** s)
    active = _ground_mode_set(basis, _DIRECT_MAX + extra)
    log = _Log()
    got = _active_set_step(basis, lam, GAMMA, s, active, _MINRES_RTOL, log)
    ref = oracles.active_set_step(basis.vectors, basis.eigenvalues, basis.weight,
                                  lam, GAMMA, s, active)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
    assert len(log.minres) == 1
    by_minres = bool(extra) or dom.n_interior > _GREEN_MAX
    assert (log.minres[0] > 0) == by_minres
    # the tolerance of a MINRES step, 0 for a direct one
    assert log.forcing == [_MINRES_RTOL if by_minres else 0.0]


def test_active_set_step_on_empty_set_is_zero(basis2d):
    active = np.zeros(basis2d.domain.n_interior, dtype=bool)
    a = _active_set_step(basis2d, 4.0, GAMMA, 0.5, active, _MINRES_RTOL, _Log())
    np.testing.assert_array_equal(a, np.zeros(basis2d.size))


@pytest.mark.parametrize("shape", [(5,), (3, 3), (7, 1), (1, 9)])
def test_constraint_mass_refuses_other_shapes(shape):
    dom = build_domain("interval", 9, bounds=(0.0, np.pi))
    u = np.linspace(0.0, 0.5, 9)
    # full-grid and interior values give one mass
    assert constraint_mass(dom, u, GAMMA) == constraint_mass(dom, u[1:-1], GAMMA) > 0
    with pytest.raises(ValueError, match=r"neither full-grid \(9,\) nor "
                                         r"interior \(7,\)"):
        constraint_mass(dom, np.full(shape, 0.5), GAMMA)


def test_constrained_solve_hits_mass_target(basis1d):
    s = 0.5
    lam = 4.0 * float(basis1d.eigenvalues[0] ** s)
    ref = solve_fixed_lambda(basis1d, lam, GAMMA, s)
    target = constraint_mass(basis1d.domain, ref.field.nodal, GAMMA)
    sol = solve_constrained(basis1d, target, GAMMA, s)
    assert sol.status == "converged"
    got = constraint_mass(basis1d.domain, sol.field.nodal, GAMMA)
    assert got == pytest.approx(target, rel=1e-5)
    assert sol.lam == pytest.approx(lam, rel=1e-4)


def test_constrained_solve_leaves_no_cycle_holding_its_basis():
    import gc
    import weakref

    dom = build_domain("interval", 65, bounds=(0.0, np.pi))
    basis = eigendecompose(dom, dom.n_interior)
    held = weakref.ref(basis)
    gc.disable()
    try:
        sol = solve_constrained(basis, 0.025, GAMMA, 0.5)
        assert sol.status == "converged"
        # with the cyclic GC off, only reference counts can free the basis
        del basis, sol
        assert held() is None
    finally:
        gc.enable()


def test_constrained_solve_keeps_its_multiplier_2d(basis2d):
    # lam found by the solver chain this one replaced (Picard, active set,
    # fully active restart), on the 25-node square
    sol = solve_constrained(basis2d, 0.025, GAMMA, 0.5)
    assert sol.status == "converged"
    assert sol.lam == pytest.approx(3.799653583071216, rel=1e-10)


def test_constrained_solve_solves_each_lambda_once(basis2d, monkeypatch):
    # the scan's solves, then Brent's interior ones: neither end of the
    # bracket nor the root is solved again, and of the solves before it no
    # more than two (the latest on each side of the target) outlive the next
    import weakref

    solved, alive, brent = [], [], []
    inner, brentq = plasma.solve_fixed_lambda, plasma._brentq

    def counted(basis, lam, *args, **kwargs):
        alive.append(sum(ref() is not None for _, _, ref in solved))
        sol = inner(basis, lam, *args, **kwargs)
        solved.append((lam, sol.history, weakref.ref(sol)))
        return sol

    def recorded(f, xa, xb, *rest, **kwargs):
        brent.append(xb)

        def g(x, *args):
            brent.append(x)
            return f(x, *args)
        return brentq(g, xa, xb, *rest, **kwargs)

    monkeypatch.setattr(plasma, "solve_fixed_lambda", counted)
    monkeypatch.setattr(plasma, "_brentq", recorded)
    sol = solve_constrained(basis2d, 0.025, GAMMA, 0.5)
    assert sol.status == "converged"
    ladder = (np.geomspace(*plasma._LAMBDA_BRACKET, plasma._BRACKET_SAMPLES)
              * float(basis2d.eigenvalues[0] ** 0.5))
    scan = list(ladder[:list(ladder).index(brent[0]) + 1])
    lams = [lam for lam, _, _ in solved]
    assert lams == scan + brent[1:]
    assert len(set(lams)) == len(lams) and len(brent) > 1
    assert max(alive) <= 2
    # the answer is the inner solve made at its own lam
    assert [h for lam, h, _ in solved if lam == sol.lam] == [sol.history]


def test_energy_minimizer_meets_constraint_and_equation(basis1d):
    s = 0.5
    lam = 4.0 * float(basis1d.eigenvalues[0] ** s)
    ref = solve_fixed_lambda(basis1d, lam, GAMMA, s)
    target = constraint_mass(basis1d.domain, ref.field.nodal, GAMMA)
    sol = minimize_energy(basis1d, target, GAMMA, s)
    assert sol.status == "converged"
    got = constraint_mass(basis1d.domain, sol.field.nodal, GAMMA)
    assert got == pytest.approx(target, rel=1e-5)
    # minimizer satisfies the same Euler-Lagrange equation
    res = _residual(basis1d, sol.field.coeffs, sol.lam, s)
    assert res < 1e-5


def test_energy_minimizer_reports_a_missed_mass_as_failed(basis1d, monkeypatch):
    # every scale puts 1.001 times the target's overshoot on the field: the
    # minimiser still finds a stationary point, but off the constraint
    scale = plasma._scale_onto_mass
    monkeypatch.setattr(plasma, "_scale_onto_mass",
                        lambda u, gamma, target: scale(u, gamma, 1.001 * target))
    sol = minimize_energy(basis1d, 0.02, GAMMA, 0.5)
    assert sol.residual <= SolverOptions.stationarity_rtol * np.linalg.norm(
        basis1d.eigenvalues**0.5 * sol.field.coeffs)
    assert sol.constraint_value == pytest.approx(0.02 * 1.001, rel=1e-9)
    assert sol.status == "failed"


@pytest.mark.parametrize("kind", ["interval", "square"])
@pytest.mark.parametrize("s", [0.3, 0.75])
def test_energy_route_recovers_constrained_multiplier(basis1d, basis2d, kind, s):
    basis = basis1d if kind == "interval" else basis2d
    sol = minimize_energy(basis, 0.025, GAMMA, s)
    ref = solve_constrained(basis, 0.025, GAMMA, s)
    assert sol.status == "converged"
    assert sol.constraint_value == pytest.approx(0.025, rel=1e-12)
    assert sol.lam == pytest.approx(ref.lam, rel=1e-6)
    assert len(sol.history) == sol.iterations


# -- the root-finder and the minimiser -----------------------------------------------


@pytest.mark.parametrize("f, args, bracket", [
    (lambda x: x**3 - 2 * x - 5, (), (2.0, 3.0)),
    (lambda x, a, b: np.tanh(a * (x - b)), (3.0, 0.3), (-1.0, 2.0)),
    (lambda x, a: np.exp(x) - a, (2.0,), (0.0, 2.0)),
    (lambda x, a: np.cos(x) - a * x, (1.0,), (0.0, 1.0)),
    (lambda x: (x - 1.0) ** 3 + 1e-3 * (x - 1.0), (), (0.0, 3.5)),
    # a mass gap like solve_constrained's: decreasing in lam on its bracket
    (lambda lam, lam1, m: 0.4 / (lam / lam1) ** 2 - m, (2.3, 0.025), (2.415, 115.0)),
    (lambda x: x - 1.0, (), (1.0, 2.0)),            # roots at either end
    (lambda x: x - 2.0, (), (1.0, 2.0)),
], ids=["cubic", "tanh", "exp", "cos", "flat", "mass", "root-low", "root-high"])
@pytest.mark.parametrize("xtol, rtol", [(2e-12, 8.9e-16), (2.3e-13, 8.9e-16),
                                        (1e-4, 1e-9)],
                         ids=["scipy-default", "solve-constrained", "loose"])
def test_brentq_matches_scipy_bitwise(f, args, bracket, xtol, rtol):
    want = scipy.optimize.brentq(f, *bracket, args=args, xtol=xtol, rtol=rtol)
    a, b = bracket
    assert _brentq(lambda x: f(x, *args), a, b, f(a, *args), f(b, *args),
                   xtol, rtol) == want


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b = rng.uniform(0.2, 5.0), rng.uniform(-0.5, 0.5)
        lo, hi = rng.uniform(-3.0, -0.6), rng.uniform(0.6, 3.0)
        xtol = 1e-13 * rng.uniform(0.5, 50.0)
        for f in (lambda x, a, b: np.sinh(a * (x - b)) + 0.1 * (x - b),
                  lambda x, a, b: x**3 + a * x - b):
            want = scipy.optimize.brentq(f, lo, hi, args=(a, b), xtol=xtol,
                                         rtol=8.9e-16)
            assert _brentq(lambda x: f(x, a, b), lo, hi, f(lo, a, b), f(hi, a, b),
                           xtol, 8.9e-16) == want


def test_brentq_root_is_the_latest_point_on_its_side():
    # what solve_constrained relies on to keep only the latest solve on
    # each side of the target: the root returned is always one of them
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b = rng.uniform(0.2, 5.0), rng.uniform(-0.5, 0.5)
        lo, hi = rng.uniform(-3.0, -0.6), rng.uniform(0.6, 3.0)
        xtol = 1e-13 * rng.uniform(0.5, 50.0)
        for f in (lambda x: np.sinh(a * (x - b)) + 0.1 * (x - b),
                  lambda x: x**3 + a * x - b, lambda x: np.expm1(a * (x - b)),
                  lambda x: np.floor(8 * (x - b)) / 8):
            points = [lo, hi]

            def recorded(x):
                points.append(x)
                return f(x)
            root = _brentq(recorded, lo, hi, f(lo), f(hi), xtol, 8.9e-16)
            side = f(root) < 0
            assert root == [x for x in points if (f(x) < 0) == side][-1]


def test_brentq_failures_are_solver_errors():
    with pytest.raises(plasma.SolverError, match="no sign change"):
        def positive(x):
            return x * x + 1.0
        _brentq(positive, -1.0, 1.0, positive(-1.0), positive(1.0), 1e-12, 8.9e-16)
    # near a triple root the interpolated steps crawl: 100 iterations do not
    # close the bracket
    def flat(x):
        return (x - 1.0) ** 3
    with pytest.raises(RuntimeError, match="100 iterations"):
        scipy.optimize.brentq(flat, 0.0, 3.5, xtol=2e-12, rtol=8.9e-16)
    with pytest.raises(plasma.SolverError, match="not converged after 100"):
        _brentq(flat, 0.0, 3.5, flat(0.0), flat(3.5), 2e-12, 8.9e-16)


def _minres_both(A, b, rtol):
    """(x, info, callbacks) of scipy's minres and of the port on A x = b."""
    import scipy.sparse.linalg
    out = []
    for solve in (lambda cb: scipy.sparse.linalg.minres(A, b, rtol=rtol,
                                                        callback=lambda _: cb()),
                  lambda cb: _minres(lambda v: A @ v, b, rtol, cb)):
        calls = []
        x, info = solve(lambda: calls.append(1))
        out.append((x.tobytes(), info, len(calls)))
    return out


@pytest.mark.parametrize("kind", ["definite", "indefinite", "singular"])
def test_minres_matches_scipy_bitwise(kind):
    rng = np.random.default_rng(["definite", "indefinite", "singular"].index(kind))
    for n in [1, 2, 3, 300] + rng.integers(4, 300, size=16).tolist():
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ev = (rng.uniform(0.1, 10.0, n) if kind == "definite"
              else rng.uniform(-5.0, 5.0, n))
        if kind == "singular":
            ev[rng.random(n) < 0.2] = 0.0
        A = (Q * ev) @ Q.T
        A = (A + A.T) / 2
        # a singular system gets a consistent right-hand side
        b = A @ rng.standard_normal(n) if kind == "singular" else rng.standard_normal(n)
        for rtol in (1e-13, 1e-8, 1e-2):
            want, got = _minres_both(A, b, rtol)
            assert got == want and got[1] == 0


def test_minres_zero_rhs_and_iteration_limit_match_scipy():
    A = np.diag(np.arange(1.0, 6.0))
    want, got = _minres_both(A, np.zeros(5), 1e-8)
    assert got == want == (np.zeros(5).tobytes(), 0, 0)
    # alternating signs over six decades: 5 n iterations do not reach 1e-13
    n = 40
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
    A = (Q * (np.geomspace(1e-6, 1.0, n) * (-1.0) ** np.arange(n))) @ Q.T
    A = (A + A.T) / 2
    want, got = _minres_both(A, np.random.default_rng(4).standard_normal(n), 1e-13)
    assert got == want and got[1:] == (5 * n, 5 * n)


def test_lbfgs_minimises_an_ill_conditioned_quadratic():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    A = q @ np.diag(np.geomspace(1.0, 1e3, 30)) @ q.T
    b = rng.standard_normal(30)
    x, history, last = _lbfgs(lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b),
                              np.zeros(30))
    # it stops where the value stalls at its rounding, short of gtol
    assert np.abs(A @ x - b).max() < 1e-6
    # one value per iteration, each an Armijo decrease
    assert 0 < len(history) < plasma._LBFGS_ITERATIONS
    assert np.all(np.diff(history) <= 0)
    assert history[-1] == pytest.approx(-0.5 * b @ np.linalg.solve(A, b), rel=1e-14)
    # the function's result at the last iterate comes back with it
    assert last[0] == history[-1] and np.array_equal(last[1], A @ x - b)


def test_lbfgs_stops_at_its_iteration_budget(monkeypatch):
    monkeypatch.setattr(plasma, "_LBFGS_ITERATIONS", 5)
    # Rosenbrock's valley takes dozens of iterations
    def rosen(x):
        return (scipy.optimize.rosen(x), scipy.optimize.rosen_der(x))
    _, history, _ = _lbfgs(rosen, np.full(4, -1.2))
    assert len(history) == 5


@pytest.mark.parametrize("seed", [1, 2])
def test_scale_onto_mass_matches_brentq_oracle(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(0.2, 0.3, 60)
    u[10:14] = u[3] = 0.35  # a tie of five nodal values
    u[20] = 0.004  # active only for the largest target
    # a target at the breakpoint where the tied nodes become active
    on_break = float(np.sum(np.maximum(GAMMA / 0.35 * u - GAMMA, 0.0) ** 2))
    # the sum carries targets far below gamma^2 times the rounding unit on
    # its first stretch, one node active
    tiny = (1e-30, 1e-20, 1e-18)
    for target in tiny + (1e-6, 0.05, on_break, 0.7, 30.0, 1e5):
        t = _scale_onto_mass(u, GAMMA, target)
        assert t == pytest.approx(oracles.scale_onto_mass(u, GAMMA, target),
                                  rel=1e-13)
        got = np.sum(np.maximum(t * u - GAMMA, 0.0) ** 2)
        assert got == pytest.approx(target, rel=1e-12)
    assert _scale_onto_mass(u, GAMMA, on_break) == pytest.approx(
        GAMMA / 0.35, rel=1e-13)
    for target in tiny:
        # one node active: t u_1 - gamma is sqrt(target) up to the rounding
        # of t u_1 (approx's absolute tolerance above is far above target)
        t = _scale_onto_mass(u, GAMMA, target)
        over = np.maximum(t * u - GAMMA, 0.0)
        assert np.count_nonzero(over) == 1
        assert abs(over.max() - np.sqrt(target)) <= 2 * np.finfo(float).eps * GAMMA


def test_scale_onto_mass_oracle_brackets_below_its_own_rounding():
    # gamma / max(u) times max(u) rounds above gamma here, so the oracle's
    # sum is already above a target of 1e-30 at that first bracket end
    u = np.random.default_rng(0).normal(0.2, 0.3, 60)
    gamma, target = 1e3, 1e-30
    assert np.sum(np.maximum(gamma / u.max() * u - gamma, 0.0) ** 2) > target
    t = oracles.scale_onto_mass(u, gamma, target)
    assert _scale_onto_mass(u, gamma, target) == pytest.approx(t, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
def test_reduced_energy_gradient_matches_central_differences(dim):
    dom = (build_domain("interval", 17, bounds=(0.0, np.pi)) if dim == 1 else
           build_domain("rectangle", 17, bounds=((0.0, np.pi), (0.0, np.pi))))
    basis = eigendecompose(dom, dom.n_interior)
    scale = np.sqrt(basis.eigenvalues**0.5)
    args = (basis, scale, GAMMA, 0.02 / basis.weight)
    rng = np.random.default_rng(5)
    c = 0.05 * rng.standard_normal(basis.size)
    c[0] = 1.0
    _, grad, _, _ = _reduced_energy(c, *args)
    step = 1e-6
    fd = [(_reduced_energy(c + step * e, *args)[0]
           - _reduced_energy(c - step * e, *args)[0]) / (2 * step)
          for e in np.eye(basis.size)]
    np.testing.assert_allclose(fd, grad, rtol=0, atol=1e-7 * np.abs(grad).max())


# -- rearrangements ------------------------------------------------------------------


def _rearranged(values):
    """Steiner symmetrization of one line: the interior of an interval."""
    v = np.asarray(values, dtype=float)
    dom = build_domain("interval", len(v) + 2, bounds=(0.0, 1.0))
    return steiner_symmetrize(dom, np.concatenate([[0.0], v, [0.0]]), 0)[1:-1]


def test_rearrangement_output_is_symmetric_decreasing():
    v = np.array([0.1, 0.9, 0.3, 0.7, 0.2, 0.5, 0.0])
    r = _rearranged(v)
    n = len(r)
    c = (n - 1) / 2
    # values weakly decrease with distance from the centre
    order = np.argsort([abs(i - c) for i in range(n)], kind="stable")
    seq = r[order]
    assert np.all(np.diff(seq) <= 1e-15)
    assert sorted(r) == sorted(v)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3,
                max_size=40))
def test_rearrangement_preserves_multiset(vals):
    v = np.asarray(vals)
    r = _rearranged(v)
    np.testing.assert_allclose(np.sort(r), np.sort(v), atol=0.0)


def test_steiner_preserves_line_multisets_and_symmetrizes():
    dom = build_domain("rectangle", 17, bounds=((0.0, 1.0), (0.0, 1.0)))
    rng = np.random.default_rng(8)
    U = np.zeros(dom.grid_shape)
    U[dom.interior] = rng.uniform(0.0, 1.0, dom.n_interior)
    for axis in (0, 1):
        S = steiner_symmetrize(dom, U, axis)
        moved = np.moveaxis(S, axis, 0)
        orig = np.moveaxis(U, axis, 0)
        n_axis = moved.shape[0]
        c = (n_axis - 1) / 2
        order = np.argsort([abs(i - c) for i in range(n_axis)], kind="stable")
        for j in range(moved.shape[1]):
            # each symmetrized line carries the same values as the original
            np.testing.assert_allclose(np.sort(moved[:, j]),
                                       np.sort(orig[:, j]), atol=0.0)
            # and decreases weakly with distance from the line centre
            assert np.all(np.diff(moved[order, j]) <= 1e-15)


def _steiner_domain(kind, n, r):
    """An interval, a rectangle, or a disk whose mask is mirror symmetric
    about the centre of its bounding grid."""
    if kind == "interval":
        return build_domain("interval", n, bounds=(0.0, 1.0))
    if kind == "rectangle":
        return build_domain("rectangle", (n, r),
                            bounds=((0.0, n - 1.0), (0.0, r - 1.0)))
    half = (n - 1) / 2
    return build_domain("disk", n, bounds=((-half, half), (-half, half)),
                        radius=half * (0.5 + r / 25), center=(0.0, 0.0))


@given(kind=st.sampled_from(["interval", "rectangle", "disk"]),
       n=st.integers(min_value=3, max_value=33),
       r=st.integers(min_value=3, max_value=10),
       palette=st.sampled_from([(-0.0, 0.0), (-0.0, 0.0, 1.0, -1.0, 0.5), None]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_steiner_matches_line_by_line_reference(kind, n, r, palette, seed):
    # bitwise equal to the per-line rearrangement, on both axes, with ties
    # and zeros of either sign among the values
    dom = _steiner_domain(kind, n, r)
    rng = np.random.default_rng(seed)
    if palette is None:
        U = rng.standard_normal(dom.grid_shape)
    else:
        U = rng.choice(palette, size=dom.grid_shape)
    for axis in dom.symmetry_axes:
        got = steiner_symmetrize(dom, U, axis)
        want = oracles.steiner_lines(dom.interior, U, axis)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _square_without(node):
    """A 7-node square whose interior lacks one node: the lines through
    it have a gap there, or, at a corner of the interior, end off centre."""
    xs = np.arange(7.0)
    interior = np.zeros((7, 7), dtype=bool)
    interior[1:-1, 1:-1] = True
    interior[node] = False
    return Domain(dim=2, shape="rectangle", h=1.0, axes=(xs, xs),
                  interior=interior, symmetry_axes=(0, 1), center=(3.0, 3.0))


@pytest.mark.parametrize("node, message", [
    ((3, 3), "non-contiguous interior"),
    ((5, 5), "not centred on the grid midline"),
])
def test_steiner_refuses_a_broken_line(node, message):
    dom = _square_without(node)
    U = np.arange(49.0).reshape(7, 7)
    for axis in (0, 1):
        with pytest.raises(ValueError, match=message):
            steiner_symmetrize(dom, U, axis)


def test_steiner_requires_symmetry_axis():
    dom = build_domain("disk", 17, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                       radius=0.9, center=(0.15, 0.0))
    with pytest.raises(ValueError):
        steiner_symmetrize(dom, np.zeros(dom.grid_shape), 0)


def test_history_records_decreasing_residuals(basis1d):
    s = 0.5
    lam = 4.0 * float(basis1d.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis1d, lam, GAMMA, s)
    assert sol.history is not None and len(sol.history) >= 1
    assert sol.history[-1] <= 1e-10


# -- matrix-free solves and what they record ----------------------------------------


def test_large_square_solve_never_builds_the_dense_basis():
    dom = build_domain("rectangle", 129, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, dom.n_interior)
    s = 0.75
    sol = solve_fixed_lambda(basis, 4.0 * float(basis.eigenvalues[0] ** s), GAMMA, s)
    assert sol.status == "converged"
    assert sol.residual <= SolverOptions().tolerance
    assert _mirror_asymmetry(sol) <= 1e-10
    # the large plasma sets took MINRES steps
    assert max(sol.minres_iterations) > 0
    assert "vectors" not in basis.__dict__


def test_solution_records_minres_iterations_per_step(basis2d):
    # at s = 0.3 and 3.3 lam_1^s the run at lam does not converge within
    # its budget, and the branch is continued in lam
    for s, factor, method in ((0.5, 3.2, "active-set"),
                              (0.3, 3.3, "active-set+continuation")):
        lam = factor * float(basis2d.eigenvalues[0] ** s)
        sol = solve_fixed_lambda(basis2d, lam, GAMMA, s)
        assert sol.status == "converged" and sol.method == method
        # one entry per step: direct steps on the small sets, MINRES on the large
        assert len(sol.minres_iterations) == sol.iterations
        assert all(isinstance(k, int) and k >= 0 for k in sol.minres_iterations)
    below = solve_fixed_lambda(basis2d, 0.5 * float(basis2d.eigenvalues[0] ** 0.5),
                               GAMMA, 0.5)
    assert below.status == "trivial" and below.minres_iterations == ()


def test_solver_error_carries_minres_iterations(basis1d, monkeypatch):
    import fracplasma.plasma as plasma

    def failing(basis, lam, gamma, s, **kwargs):
        sol = solve_fixed_lambda(basis, lam, gamma, s, **kwargs)
        return replace(sol, status="failed", minres_iterations=(7, 0, 3),
                       forcing=(1e-13, 0.0, 1e-2))

    monkeypatch.setattr(plasma, "solve_fixed_lambda", failing)
    with pytest.raises(plasma.SolverError) as info:
        plasma.solve_constrained(basis1d, 0.02, GAMMA, 0.5)
    assert info.value.minres_iterations == (7, 0, 3)
    assert info.value.forcing == (1e-13, 0.0, 1e-2)


# -- the Green matrix and its slot ---------------------------------------------------


def _count_green_builds(monkeypatch):
    builds = []
    build = plasma._green_matrix

    def counted(basis, s):
        builds.append(basis.domain.n_interior)
        return build(basis, s)

    monkeypatch.setattr(plasma, "_green_matrix", counted)
    return builds


@pytest.mark.parametrize("kind, n, K", [("interval", 65, None), ("square", 17, None),
                                        ("square", 25, 105), ("disk", 25, None)])
def test_step_reading_green_matches_dense_modal_oracle(kind, n, K, monkeypatch):
    builds = _count_green_builds(monkeypatch)
    if kind == "interval":
        dom = build_domain("interval", n, bounds=(0.0, np.pi))
    elif kind == "square":
        dom = build_domain("rectangle", n, bounds=((0.0, np.pi), (0.0, np.pi)))
    else:
        dom = build_domain("disk", n, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                           radius=1.0, center=(0.0, 0.0))
    basis = eigendecompose(dom, K or dom.n_interior)
    s = 0.5
    lam = 3.2 * float(basis.eigenvalues[0] ** s)
    rng = np.random.default_rng(n)
    for p in (1, 7, min(dom.n_interior // 3, _DIRECT_MAX), min(dom.n_interior, _DIRECT_MAX)):
        active = np.zeros(dom.n_interior, dtype=bool)
        active[rng.choice(dom.n_interior, p, replace=False)] = True
        # a direct step is exact whatever tolerance it is given
        log = _Log()
        got = _active_set_step(basis, lam, GAMMA, s, active, 1e-2, log)
        ref = oracles.active_set_step(basis.vectors, basis.eigenvalues, basis.weight,
                                      lam, GAMMA, s, active)
        assert (log.minres, log.forcing) == ([0], [0.0])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert builds == [dom.n_interior]  # built at the first step, read after


# G = h^dim V D^{-s} V^T from the oracles' eigenpairs: dense sines on the
# squares, a dense eigh of the masked stencil on the disk
@pytest.mark.parametrize("kind, n, K", [("square", 17, None), ("square", 25, 105),
                                        ("disk", 25, None)])
def test_green_matrix_matches_oracle_eigenpairs(kind, n, K):
    if kind == "square":
        dom = build_domain("rectangle", n, bounds=((0.0, np.pi), (0.0, np.pi)))
        lam, V = oracles.sine_basis(dom.grid_shape, dom.h, K or dom.n_interior)
    else:
        dom = build_domain("disk", n, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                           radius=1.0, center=(0.0, 0.0))
        lam, V = oracles.dense_dirichlet_eigh(dom.grid_shape, dom.h, dom.interior)
    basis = eigendecompose(dom, K or dom.n_interior)
    ref = dom.h**dom.dim * (V / lam**0.3) @ V.T
    G = plasma._green_matrix(basis, 0.3)
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()


def test_solves_repeat_bitwise_after_other_solves(basis2d, basis257, monkeypatch):
    builds = _count_green_builds(monkeypatch)
    s = 0.3
    lam = 3.3 * float(basis2d.eigenvalues[0] ** s)
    first = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    assert builds == [basis2d.domain.n_interior]  # one G for both phases
    again = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    constrained = solve_constrained(basis257, 0.025, GAMMA, 0.5)
    # the repeat reads the slot; one G for all inner solves
    assert len(builds) == 2
    for basis, other_s in ((basis2d, 0.5), (basis257, 0.3), (basis257, 0.5)):
        solve_fixed_lambda(basis, 6.5 * float(basis.eigenvalues[0] ** other_s),
                           GAMMA, other_s)
    solve_constrained(basis257, 0.02, GAMMA, 0.5)
    later = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    for sol in (again, later):
        np.testing.assert_array_equal(sol.field.coeffs, first.field.coeffs)
        assert sol.minres_iterations == first.minres_iterations
    np.testing.assert_array_equal(
        solve_constrained(basis257, 0.025, GAMMA, 0.5).field.coeffs,
        constrained.field.coeffs)


def _green_forbidden(basis, s):
    raise AssertionError("the Green matrix should not be built here")


def test_green_is_never_built_above_the_cap(basis2d, monkeypatch):
    s = 0.5
    solve_fixed_lambda(basis2d, 4.4 * float(basis2d.eigenvalues[0] ** s), GAMMA, s)
    assert plasma._green_slot[0]() is basis2d
    monkeypatch.setattr(plasma, "_green_matrix", _green_forbidden)
    # 33^2 = 1089 interior nodes: every step is a MINRES step
    dom = build_domain("rectangle", 35, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, dom.n_interior)
    assert dom.n_interior > _GREEN_MAX
    s = 0.5
    sol = solve_fixed_lambda(basis, 3.2 * float(basis.eigenvalues[0] ** s), GAMMA, s)
    assert sol.status == "converged"
    assert sol.iterations > 0 and all(m > 0 for m in sol.minres_iterations)
    # the call emptied the slot of the smaller basis's G
    assert plasma._green_slot is None


def test_short_solve_builds_green_once(basis2d, monkeypatch):
    builds = _count_green_builds(monkeypatch)
    # the slab-fd solve: three direct steps on the 25-node square
    s = 0.75
    sol = solve_fixed_lambda(basis2d, 4.0 * float(basis2d.eigenvalues[0] ** s), GAMMA, s)
    assert sol.status == "converged" and sol.iterations == 3
    assert sol.minres_iterations == (0, 0, 0)
    assert builds == [basis2d.domain.n_interior]


def _slot_holds(basis, s):
    held = plasma._green_slot
    return held is not None and held[0]() is basis and held[1] == s


@pytest.mark.parametrize("s, factor", [(0.3, 3.3), (0.75, 4.0)])
def test_solve_is_bitwise_equal_whatever_the_slot_holds(basis1d, basis2d, s, factor):
    lam = factor * float(basis2d.eigenvalues[0] ** s)
    assert plasma._green_slot is None
    empty = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    assert _slot_holds(basis2d, s)
    own = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    solve_fixed_lambda(basis2d, 4.0 * float(basis2d.eigenvalues[0] ** 0.5), GAMMA, 0.5)
    assert _slot_holds(basis2d, 0.5)
    other_order = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    solve_fixed_lambda(basis1d, factor * float(basis1d.eigenvalues[0] ** s), GAMMA, s)
    assert _slot_holds(basis1d, s)
    other_basis = solve_fixed_lambda(basis2d, lam, GAMMA, s)
    assert empty.status == "converged" and 0 in empty.minres_iterations
    for sol in (own, other_order, other_basis):
        np.testing.assert_array_equal(sol.field.coeffs, empty.field.coeffs)
        assert sol.minres_iterations == empty.minres_iterations


def test_sweep_in_lambda_builds_green_once_per_order(basis2d, monkeypatch):
    # the solver-sweep's twelve fixed-lambda solves on the 25-node square
    builds = _count_green_builds(monkeypatch)
    for s, factors in {0.3: (1.5, 2.0, 3.3, 6.5), 0.5: (1.5, 2.0, 3.2, 4.4),
                       0.75: (1.5, 2.0, 4.0, 5.0)}.items():
        for factor in factors:
            sol = solve_fixed_lambda(basis2d, factor * float(basis2d.eigenvalues[0] ** s),
                                     GAMMA, s)
            assert sol.status == "converged" and 0 in sol.minres_iterations
    assert builds == [basis2d.domain.n_interior] * 3


def test_freeing_the_basis_empties_the_slot():
    import gc
    import weakref

    dom = build_domain("interval", 65, bounds=(0.0, np.pi))
    basis = eigendecompose(dom, dom.n_interior)
    held = weakref.ref(basis)
    solve_fixed_lambda(basis, 4.0 * float(basis.eigenvalues[0] ** 0.5), GAMMA, 0.5)
    assert _slot_holds(basis, 0.5)
    gc.disable()
    try:
        # with the cyclic GC off, only reference counts can free the basis
        del basis
        assert held() is None
        assert plasma._green_slot is None
    finally:
        gc.enable()


# status, method, |A|, Newton updates, direct and MINRES steps of the
# solver-sweep's two long solves, every Newton run on the one update budget
@pytest.mark.parametrize("kind, s, factor, pinned", [
    ("square25", 0.3, 3.3, ("converged", "active-set+continuation", 9, 65, 43, 22)),
    ("interval", 0.3, 6.5, ("converged", "active-set+continuation", 15, 73, 73, 0)),
])
def test_long_sweep_solves_keep_their_path(basis2d, basis257, kind, s, factor, pinned):
    basis = basis2d if kind == "square25" else basis257
    sol = solve_fixed_lambda(basis, factor * float(basis.eigenvalues[0] ** s), GAMMA, s)
    minres = np.asarray(sol.minres_iterations)
    assert (sol.status, sol.method, int(np.count_nonzero(sol.field.nodal > GAMMA)),
            sol.iterations, int(np.count_nonzero(minres == 0)),
            int(np.count_nonzero(minres))) == pinned


@pytest.mark.parametrize("kind, s, factor", [("square25", 0.3, 3.3),
                                             ("interval", 0.3, 6.5)])
def test_no_newton_run_exceeds_the_update_budget(basis2d, basis257, monkeypatch,
                                                 kind, s, factor):
    # the two long solves run at lam, then on continuation rungs; each run
    # appends one MINRES entry per update to the call's log
    runs = []
    run = plasma._active_set_solve

    def counted(basis, lam, gamma, s, a0, tol, log, u0=None):
        before = len(log.minres)
        out = run(basis, lam, gamma, s, a0, tol, log, u0)
        runs.append(len(log.minres) - before)
        return out

    monkeypatch.setattr(plasma, "_active_set_solve", counted)
    basis = basis2d if kind == "square25" else basis257
    sol = solve_fixed_lambda(basis, factor * float(basis.eigenvalues[0] ** s), GAMMA, s)
    method, active, sup_u = PINNED_ANSWERS[kind][s, factor]
    assert (sol.status, sol.method) == ("converged", method)
    assert np.count_nonzero(sol.field.nodal > GAMMA) == active
    assert abs(sol.field.nodal.max() - sup_u) <= 1e-10
    assert len(runs) > 2 and sum(runs) == sol.iterations
    assert max(runs) <= _NEWTON_UPDATES


def _run_stubbed_steps(monkeypatch, by_minres, successor):
    """One Newton run on the 17-node interval cut into thirds S0, S1, S2,
    with a field 2 gamma on each, from the field on S0.  The stubbed step
    sends S_i to the field on S_successor[i] and logs itself as a MINRES
    step at its tolerance or as a direct step.  Returns (coeffs, ok, log,
    fields)."""
    dom = build_domain("interval", 17, bounds=(0.0, np.pi))
    basis = eigendecompose(dom, dom.n_interior)
    third = np.arange(dom.n_interior) * 3 // dom.n_interior
    sets = [third == i for i in range(3)]
    fields = [basis.coefficients(2 * GAMMA * S) for S in sets]
    step_to = {S.tobytes(): fields[j] for S, j in zip(sets, successor)}

    def step(basis, lam, gamma, s, active, rtol, log):
        log.minres.append(1 if by_minres else 0)
        log.forcing.append(rtol if by_minres else 0.0)
        return step_to[active.tobytes()]

    monkeypatch.setattr(plasma, "_active_set_step", step)
    log = plasma._Log()
    lam = 4.0 * float(basis.eigenvalues[0] ** 0.5)
    a, _, _, ok = plasma._active_set_solve(basis, lam, GAMMA, 0.5, fields[0], 1e-10,
                                           log)
    return a, ok, log, fields


def test_repeated_plasma_set_ends_the_run(monkeypatch):
    # S0 -> S1 -> S0 by direct steps: the run fails when S0 comes back, with
    # no further step of its own
    _, ok, log, _ = _run_stubbed_steps(monkeypatch, False, (1, 0, 0))
    assert ok is False
    assert len(log.minres) == 2 and len(log.residuals) == 3


def test_set_stepped_on_exactly_ends_the_run_after_a_loose_step(monkeypatch):
    # S0 -> S1 by the tight first MINRES step, S1 -> S0 by a loose one: S0's
    # exact step is known, so its return ends the run as a cycle
    _, ok, log, _ = _run_stubbed_steps(monkeypatch, True, (1, 0, 0))
    assert ok is False
    assert len(log.minres) == 2 and len(log.residuals) == 3
    assert log.forcing[0] == _MINRES_RTOL < log.forcing[1]


def test_set_repeated_after_a_loose_step_gets_one_tight_step(monkeypatch):
    # S0 -> S1 -> S2 -> S1 -> S2 -> S1: S1 and S2 are first stepped on
    # loosely; each gets one tight step when it comes back, and S1's return
    # after its tight step ends the run
    _, ok, log, _ = _run_stubbed_steps(monkeypatch, True, (1, 2, 1))
    assert ok is False
    assert len(log.minres) == 5 and len(log.residuals) == 6
    loose = [f > _MINRES_RTOL for f in log.forcing]
    assert loose == [False, True, True, False, False]


def test_stable_set_after_a_loose_step_gets_one_tight_step(monkeypatch):
    # S1 maps to its own field: stable after the loose second step, the
    # set is accepted only after a tight step on it
    a, ok, log, fields = _run_stubbed_steps(monkeypatch, True, (1, 1, 1))
    assert ok and a is fields[1]
    loose = [f > _MINRES_RTOL for f in log.forcing]
    assert loose == [False, True, False]


# the forcing term changes how a solve gets to its final plasma set, never
# the answer: the last step on that set is tight, and its result depends
# on the set alone.  The 35-node square (1,089 interior nodes) takes only
# MINRES steps
@pytest.mark.parametrize("n, s, factor", [(25, 0.3, 3.3), (25, 0.3, 5.0),
                                          (25, 0.5, 3.3), (25, 0.5, 5.0),
                                          (35, 0.5, 3.2)])
def test_loose_steps_leave_the_answer_bitwise_equal(basis2d, monkeypatch, n, s, factor):
    if n == 25:
        basis = basis2d
    else:
        dom = build_domain("rectangle", n, bounds=((0.0, np.pi), (0.0, np.pi)))
        basis = eigendecompose(dom, dom.n_interior)
    lam = factor * float(basis.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis, lam, GAMMA, s)
    monkeypatch.setattr(plasma, "_FORCING_MAX", _MINRES_RTOL)
    tight = solve_fixed_lambda(basis, lam, GAMMA, s)
    assert sol.status == tight.status == "converged"
    np.testing.assert_array_equal(sol.field.coeffs, tight.field.coeffs)
    assert max(sol.forcing) > _MINRES_RTOL >= sol.forcing[-1]
    assert max(tight.forcing) == _MINRES_RTOL
    assert sum(sol.minres_iterations) < sum(tight.minres_iterations)


def test_converged_solve_logs_its_last_residual_once(basis2d):
    # the 3-update s = 0.75 solve at lam: the initial residual and one per
    # update, the last of them the solution's
    s = 0.75
    sol = solve_fixed_lambda(basis2d, 4.0 * float(basis2d.eigenvalues[0] ** s), GAMMA, s)
    assert sol.method == "active-set" and sol.iterations == 3
    assert len(sol.history) == sol.iterations + 1
    assert sol.history[-1] == sol.residual
    assert sol.history[-2] > sol.residual
