"""Solvers for the fractional plasma problem.

The unknown is a spectral field u >= 0 on the thin domain solving

    L^s u = lam * (u - gamma)_+        (gamma > 0),

where L^s acts diagonally on the Dirichlet eigenbasis.  Three routes:

* ``solve_fixed_lambda``: one semismooth Newton (primal-dual active set)
  method.  Each update solves the piecewise-linear problem on a guess A
  of {u > gamma}, a symmetric |A| x |A| system on the plasma set.  A set
  of up to 256 nodes reads it from the nodal matrix G of L^{-s}, kept
  in one slot for the next call on the same basis and order, and solves
  it directly; larger sets, and every set on a basis of more than 1024
  nodes, which never builds G, solve it by MINRES through the basis
  transforms.  A MINRES step that only has to find the next set stops at
  an Eisenstat-Walker forcing term; a run's first step and its step on
  the set it ends on go to the rounding floor, so a converged answer is
  the exact piecewise solve.  At or below lam_1^s the only solution is
  u = 0.  Above it the solver returns the nontrivial branch: Newton runs
  at lam from the given start or a bump, and when that does not reach a
  nontrivial solution it follows the branch in lam from just above
  lam_1^s, where every node is in the plasma set and the solution is
  known in closed form.  Every Newton run, at lam or on a rung, has the
  same budget of updates and fails at once on a plasma set it has
  stepped on exactly before; the walk's halving of its step after a
  failed rung is the only recovery.
* ``solve_constrained``: outer 1-D root-find in lam matching a mass
  constraint, warm-starting the inner solver along the bracket.
* ``minimize_energy``: minimisation of the fractional Dirichlet energy
  over directions, each scaled in closed form onto the same constraint;
  an independent route whose multiplier gives lam.

The mass constraint G(u) = h^dim sum (u-gamma)_+^2 has the equation above,
with lam = 2 mu, as its Euler-Lagrange equation: the energy route recovers lam.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field as dc_field, replace
from typing import ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.optimize import brentq, minimize

from .domains import Domain, EigenBasis
from .spectral import SpectralField, _check_order

__all__ = ["SolverOptions", "PlasmaSolution", "SolverError", "constraint_mass",
           "solve_fixed_lambda", "solve_constrained", "minimize_energy",
           "steiner_symmetrize"]


class SolverError(RuntimeError):
    """Raised when an iterative solver cannot meet its tolerance.

    ``history``, ``minres_iterations`` and ``forcing`` are those of the
    failed solve.
    """

    def __init__(self, message: str, history=(), minres_iterations=(), forcing=()):
        super().__init__(message)
        self.history, self.minres_iterations, self.forcing = (
            history, minres_iterations, forcing)


@dataclass
class _Log:
    """Residual after each Newton update, and MINRES iterations and
    relative tolerance of each active-set step (both 0 for a direct step),
    of one fixed-lambda solve."""

    residuals: list = dc_field(default_factory=list)
    minres: list = dc_field(default_factory=list)
    forcing: list = dc_field(default_factory=list)


# Newton updates of every active-set run: semismooth Newton converges in a
# few steps near a solution or not at all, so a run that needs more has
# started too far away, and a continuation rung closer in is cheaper than
# waiting for it
_NEWTON_UPDATES = 12
# solve_constrained scans lam over geometric multiples of lam_1^s
_LAMBDA_BRACKET = (1.05, 50.0)
_BRACKET_SAMPLES = 12


@dataclass(frozen=True)
class SolverOptions:
    """Settings of the plasma solvers.

    ``tolerance`` is the residual a fixed-lambda solve must reach, the
    one setting.  ``constraint_rtol`` is the relative mass error a
    constrained solve may leave, and ``stationarity_rtol`` the
    Euler-Lagrange residual, relative to |L^s u|, below which
    ``minimize_energy`` has converged; both are class constants.
    """

    tolerance: float = 1e-10
    constraint_rtol: ClassVar[float] = 1e-6
    stationarity_rtol: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class PlasmaSolution:
    """A solver result: the field plus convergence metadata."""

    field: SpectralField
    lam: float
    gamma: float
    s: float
    residual: float
    iterations: int          # Newton steps, or L-BFGS-B iterations for 'energy'
    status: str              # 'converged' | 'trivial' | 'failed'
    method: str              # 'exact' | 'active-set' | 'active-set+continuation' | 'energy'
    history: np.ndarray = dc_field(repr=False, default=None)
    # MINRES iterations and relative tolerance of each active-set step, both
    # 0 for a direct step
    minres_iterations: tuple = dc_field(repr=False, default=())
    forcing: tuple = dc_field(repr=False, default=())
    constraint_target: float = None
    constraint_value: float = None

    @property
    def trace(self) -> np.ndarray:
        """Full-grid nodal values of the solution."""
        return self.field.full()


def _plasma_rhs(u: np.ndarray, gamma: float) -> np.ndarray:
    """(u - gamma)_+ applied nodewise."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return np.maximum(np.asarray(u, dtype=float) - gamma, 0.0)


def constraint_mass(domain: Domain, values: np.ndarray, gamma: float) -> float:
    """Mass of the overshoot, h^dim * sum over interior of (u-gamma)_+^2, of
    full-grid or interior nodal values; any other shape is refused."""
    v = np.asarray(values, dtype=float)
    if v.shape == domain.grid_shape:
        v = v[domain.interior]
    elif v.shape != (domain.n_interior,):
        raise ValueError(f"values of shape {v.shape} are neither full-grid "
                         f"{domain.grid_shape} nor interior ({domain.n_interior},)")
    return float(domain.h**domain.dim * np.sum(_plasma_rhs(v, gamma)**2))


def _residual(basis: EigenBasis, coeffs: np.ndarray, u: np.ndarray, lam: float,
              gamma: float, s: float) -> float:
    """Discrete L2 norm of the basis-projected equation residual, given the
    nodal values u of ``coeffs``.

    With a full basis this equals the nodal residual norm of
    L^s u - lam (u - gamma)_+; with a truncated basis it measures the
    component the spectral method can see.
    """
    proj = basis.coefficients(_plasma_rhs(u, gamma))
    return float(np.linalg.norm(basis.eigenvalues**s * coeffs - lam * proj))


def _validate_problem(gamma: float, s: float):
    _check_order(s)
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive")


# plasma sets up to this many nodes take a direct step from the Green matrix;
# larger ones a MINRES step through nodal/coefficients, which forms no matrix
_DIRECT_MAX = 256
# relative residual at which a MINRES step is taken as exact
_MINRES_RTOL = 1e-13
# a MINRES step that only has to find the next plasma set stops at the
# forcing term of Eisenstat & Walker (SIAM J. Sci. Comput. 1996, choice 2)
# from the residuals r_k after the last step and r_{k-1} before it:
# min(_FORCING_MAX, _FORCING_GAMMA (r_k / r_{k-1})^_FORCING_ALPHA), at least
# _MINRES_RTOL
_FORCING_MAX = 1e-2
_FORCING_GAMMA = 0.9
_FORCING_ALPHA = 2
# bases with more interior nodes never build the Green matrix, and every
# step on them is a MINRES step: G takes 8 n^2 bytes, 2.2 MB on the 25-node
# square, 8 MB at this cap and 39 MB on the 49-node square
_GREEN_MAX = 1024
# node columns the Green matrix is built a block at a time
_GREEN_BLOCK = 64


def _green_matrix(basis: EigenBasis, s: float) -> np.ndarray:
    """G = h^dim V D^{-1} V^T with D = diag(lam_k^s): the nodal matrix of
    L^{-s}.  Each block of node columns is the basis's ``nodal`` transform
    of the block's rows, so no n x K row matrix is held."""
    n = basis.domain.n_interior
    w = basis.weight / basis.eigenvalues**s
    G = np.empty((n, n))
    for start in range(0, n, _GREEN_BLOCK):
        nodes = slice(start, start + _GREEN_BLOCK)
        G[:, nodes] = basis.nodal(w[:, None] * basis.rows(nodes).T)
    return G


# the Green matrix of the last basis and order, (weak reference to the basis,
# s, read-only G) or None: one G of 8 n^2 <= 8.4 MB at most.  Freeing the basis
# empties it; a replaced weak reference dies with its tuple and never calls back
_green_slot = None


def _green(basis: EigenBasis, s: float, build: bool = True):
    """G of ``basis`` at order ``s``: the slot's, else one built into it if
    ``build``, else None.  A slot of another basis or order is emptied."""
    global _green_slot
    held = _green_slot  # read once, so what is returned is what was checked
    if held is None or held[0]() is not basis or held[1] != s:
        held = None
        if build:
            G = _green_matrix(basis, s)
            G.flags.writeable = False
            held = (weakref.ref(basis, _release_green), s, G)
        _green_slot = held
    return held and held[2]


def _release_green(_ref=None):
    """Empty the Green matrix slot."""
    global _green_slot
    _green_slot = None


def _active_set_step(basis: EigenBasis, lam: float, gamma: float, s: float,
                     active: np.ndarray, rtol: float, log: _Log) -> np.ndarray:
    """Coefficient solve of the problem linearized on a plasma set.

    On a guessed coincidence complement A = {u > gamma} the equation is
    linear in the coefficients:

        (D - lam h^dim V_A^T V_A) a = -lam gamma h^dim V_A^T 1,   D = diag(lam_k^s).

    The same step reduces to the plasma set: z = u_A - gamma solves the
    symmetric |A| x |A| system

        (lam G_AA - I) z = gamma 1,   a = lam D^{-1} coefficients(E_A z),

    with G = h^dim V D^{-1} V^T the nodal matrix of L^{-s}, which is
    singular exactly when the modal system is, and E_A the extension by
    zero off A.  Up to _DIRECT_MAX nodes on a basis of at most _GREEN_MAX,
    the system is read from ``_green`` (the slot's G, or one built into
    it) and solved directly (exactly); larger sets, and every set on a
    larger basis, are solved by MINRES to relative residual ``rtol``,
    with L^{-s} applied through the basis transforms.  Appends the MINRES
    iterations and ``rtol`` (both 0 for a direct solve) to ``log``.
    """
    minres = log.minres
    minres.append(0)
    log.forcing.append(0.0)
    p = int(np.count_nonzero(active))
    if p == 0:
        return np.zeros(basis.size)
    lam_s = basis.eigenvalues**s

    def spread(z):
        full = np.zeros(basis.domain.n_interior)
        full[active] = z
        return full

    if p <= _DIRECT_MAX and basis.domain.n_interior <= _GREEN_MAX:
        # LAPACK's gesv in place on a Fortran-ordered copy, without the
        # copies of np.linalg.solve: 0.12 against 0.19 ms on 136 nodes
        # (one BLAS thread)
        S = np.asfortranarray(_green(basis, s)[active][:, active])
        S *= lam
        S.flat[::p + 1] -= 1.0
        _, _, z, info = scipy.linalg.lapack.dgesv(S, np.full(p, gamma),
                                                  overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular system on a {p}-node plasma set")
    else:
        def apply(z):
            return basis.spectral_apply(spread(z), lam / lam_s)[active] - z

        op = scipy.sparse.linalg.LinearOperator((p, p), matvec=apply, dtype=float)
        log.forcing[-1] = rtol
        z, info = scipy.sparse.linalg.minres(
            op, np.full(p, gamma), rtol=rtol,
            callback=lambda _: minres.__setitem__(-1, minres[-1] + 1))
        if info != 0:
            raise np.linalg.LinAlgError(f"MINRES stopped after {minres[-1]} "
                                        f"iterations on a {p}-node plasma set")
    return lam * basis.coefficients(spread(z)) / lam_s


def _active_set_solve(basis: EigenBasis, lam: float, gamma: float, s: float,
                      a0: np.ndarray, tol: float, log: _Log,
                      u0: np.ndarray = None):
    """Semismooth Newton on the piecewise-linear plasma equation.

    Each update takes the full Newton step, the solve on the current
    plasma set, which converges in a few steps when it converges at all.
    Direct steps are exact.  The run's first MINRES step is tight (to
    _MINRES_RTOL), since on the threshold rung the system is nearly
    singular; later ones only have to find the next set and stop at the
    forcing term of the last two residuals.  A set reached by such a
    loose step is never accepted as it stands: when it looks stable or
    repeats a set stepped on loosely, it gets a tight step, so a
    converged run ends in the exact piecewise solve on its final set.  A
    run fails when it comes back to a set it has stepped on exactly (a
    cycle), when a step's system is singular, or after _NEWTON_UPDATES
    updates; it succeeds only when it converges to a solution with
    sup u > gamma.  A failed run has no recovery of its own: the
    caller's continuation in lam is the only one.  ``u0`` holds the
    nodal values of ``a0`` when the caller has them.  Appends each new
    residual, and the MINRES iterations and tolerance of each step, to
    ``log``.  Returns (coeffs, their nodal values, their residual, whether
    the run succeeded); a failed run returns its best iterate.
    """
    a = np.asarray(a0, dtype=float).copy()
    u = basis.nodal(a) if u0 is None else u0
    res = _residual(basis, a, u, lam, gamma, s)
    log.residuals.append(res)
    best = (a, u, res)
    # sets stepped on, and those stepped on exactly
    seen, exact = set(), set()
    before, loose = None, False
    for _ in range(_NEWTON_UPDATES):
        if res <= tol and not loose:
            return a, u, res, u.max() > gamma
        active = u > gamma
        key = active.tobytes()
        if key in exact:
            break
        rtol = _MINRES_RTOL
        if before is not None and key not in seen:
            rtol = max(min(_FORCING_MAX, _FORCING_GAMMA * (res / before) ** _FORCING_ALPHA),
                       _MINRES_RTOL)
        seen.add(key)
        try:
            a = _active_set_step(basis, lam, gamma, s, active, rtol, log)
        except np.linalg.LinAlgError:
            break
        loose = log.forcing[-1] > _MINRES_RTOL
        if not loose:
            exact.add(key)
        before = res
        u = basis.nodal(a)
        res = _residual(basis, a, u, lam, gamma, s)
        log.residuals.append(res)
        if res < best[2]:
            best = (a, u, res)
        if not loose and np.array_equal(u > gamma, active):
            # stable set: exact piecewise solve
            return a, u, res, u.max() > gamma
    return *best, False


# smallest log-step in lam the continuation tries before it gives up
_MIN_LOG_STEP = 1e-6


def _continue_from_threshold(basis: EigenBasis, lam: float, gamma: float,
                             s: float, opts: SolverOptions, log: _Log):
    """Follow the nontrivial branch in lam up from just above lam_1^s.

    The branch comes in from infinity at lam_1^s with every node in the
    plasma set, where the equation is linear and diagonal in the modes
    (h^dim V^T V = I): a_k = lam gamma c_k / (lam - lam_k^s) with
    c = h^dim V^T 1.  The first rung solves from that state at
    min(1.05 lam_1^s, lam); each later rung jumps toward lam by the
    current log-step, which halves whenever a rung's run fails.  Returns
    (coeffs, their nodal values, their residual at lam, whether lam was
    reached).
    """
    lam_s = basis.eigenvalues**s
    lam_j = min(1.05 * float(lam_s[0]), lam)
    ones = basis.coefficients(np.ones(basis.domain.n_interior))
    a = lam_j * gamma * ones / (lam_j - lam_s)
    a, u, res, ok = _active_set_solve(basis, lam_j, gamma, s, a, opts.tolerance,
                                      log)
    step = np.log(lam / lam_j)
    while ok and lam_j < lam:
        # a rung that would leave less than the smallest step lands on lam,
        # which lam_j exp(step) can miss by a rounding
        lam_next = (lam if step > np.log(lam / lam_j) - _MIN_LOG_STEP
                    else lam_j * np.exp(step))
        trial = _active_set_solve(basis, lam_next, gamma, s, a, opts.tolerance,
                                  log, u)
        if trial[3]:
            a, u, res, _ = trial
            lam_j = lam_next
        else:
            step /= 2
            ok = step >= _MIN_LOG_STEP
    if not ok:
        # the iterate returned sits lower on the branch: log its residual at lam
        res = _residual(basis, a, u, lam, gamma, s)
        log.residuals.append(res)
    return a, u, res, ok


def _ground_mode(basis: EigenBasis) -> np.ndarray:
    """Interior nodal values of the first eigenvector, read from its row
    block, so that nodes tied in exact arithmetic stay tied."""
    return basis.rows(slice(None), [0])[:, 0]


def solve_fixed_lambda(basis: EigenBasis, lam: float, gamma: float, s: float,
                       *, options: SolverOptions = None,
                       initial: np.ndarray = None) -> PlasmaSolution:
    """Solve L^s u = lam (u - gamma)_+ at a fixed multiplier lam.

    At or below the threshold, lam <= lam_1^s (1 + 1e-9), the only
    solution is u = 0, returned exactly with status ``trivial``.  Above
    it the nontrivial branch is returned (status ``converged``) or the
    solve fails; it never falls back to zero.  Semismooth Newton runs
    at lam from ``initial``, or from a bump of the ground mode at twice
    the obstacle height.  If that run does not converge to a solution
    with sup u > gamma within _NEWTON_UPDATES updates, the branch is
    continued in lam from just above lam_1^s, each rung a run with the
    same budget, and ``method`` gains ``+continuation``.  The direct
    steps of both read the Green matrix slot (``_green``), which the call
    first empties of another basis or order, so no answer depends on
    earlier calls.  Non-finite lam or gamma is refused.
    """
    opts = options or SolverOptions()
    _validate_problem(gamma, s)
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative")
    _green(basis, s, build=False)
    if initial is not None:
        a = np.asarray(initial, dtype=float).copy()
        if a.shape != (basis.size,):
            raise ValueError("initial coefficients have the wrong length")
        u = None
    else:
        phi = _ground_mode(basis)
        a = np.zeros(basis.size)
        a[0] = 2.0 * gamma / max(phi.max(), 1e-300)
        u = a[0] * phi

    if lam <= float(basis.eigenvalues[0] ** s) * (1 + 1e-9):
        return PlasmaSolution(
            field=SpectralField(basis, np.zeros(basis.size)), lam=float(lam),
            gamma=float(gamma), s=float(s), residual=0.0, iterations=0,
            status="trivial", method="exact", history=np.zeros(1),
        )
    log = _Log()
    method = "active-set"
    a, u, res, ok = _active_set_solve(basis, lam, gamma, s, a, opts.tolerance,
                                      log, u)
    if not ok:
        method += "+continuation"
        a, u, res, ok = _continue_from_threshold(basis, lam, gamma, s, opts, log)
    # a run ends on a stable set, whose residual may be above the tolerance
    ok = ok and res <= opts.tolerance
    return PlasmaSolution(
        field=SpectralField(basis, a, _nodal=u), lam=float(lam),
        gamma=float(gamma), s=float(s), residual=res,
        iterations=len(log.minres),
        status="converged" if ok else "failed", method=method,
        history=np.asarray(log.residuals),
        minres_iterations=tuple(log.minres), forcing=tuple(log.forcing),
    )


def solve_constrained(basis: EigenBasis, mass: float, gamma: float, s: float,
                      *, options: SolverOptions = None) -> PlasmaSolution:
    """Find lam so the solution carries a prescribed overshoot mass.

    Scans lam over a geometric ladder of multiples of lam_1^s (the mass
    decreases in lam above the bifurcation threshold), brackets the
    target, then runs a scalar root-find with warm-started inner solves,
    which share the slot's Green matrix.
    """
    opts = options or SolverOptions()
    _validate_problem(gamma, s)
    if not 0 < mass < np.inf:
        raise ValueError("constraint mass must be positive")
    lam1s = float(basis.eigenvalues[0] ** s)
    dom = basis.domain
    cache = {"coeffs": None}

    def solve_at(lam):
        sol = solve_fixed_lambda(basis, lam, gamma, s, options=opts,
                                 initial=cache["coeffs"])
        if sol.status == "failed":
            raise SolverError(
                f"inner solve failed at lam={lam:.6g} (residual {sol.residual:.3e})",
                history=sol.history, minres_iterations=sol.minres_iterations,
                forcing=sol.forcing,
            )
        cache["coeffs"] = sol.field.coeffs
        return sol

    ladder = np.geomspace(*_LAMBDA_BRACKET, _BRACKET_SAMPLES) * lam1s
    masses = []
    bracket = None
    for lam in ladder:
        sol = solve_at(lam)
        g = constraint_mass(dom, sol.trace, gamma)
        masses.append(g)
        if g < mass and len(masses) > 1 and masses[-2] >= mass:
            bracket = (ladder[len(masses) - 2], lam)
            break
        if g < mass and len(masses) == 1:
            raise SolverError(
                f"target mass {mass:.6g} exceeds the value {g:.6g} at the lower "
                f"end of the lambda scan ({_LAMBDA_BRACKET[0]:g} lam_1^s = "
                f"{lam:.6g}); choose a smaller mass"
            )
    if bracket is None:
        raise SolverError(
            f"target mass {mass:.6g} not reached by lam up to {ladder[-1]:.6g} "
            f"({_LAMBDA_BRACKET[1]:g} lam_1^s; smallest mass seen "
            f"{min(masses):.6g}); choose a larger mass"
        )

    # the problem goes in through args: brentq's wrapper of the function
    # refers to itself, and a closure over solve_at in that cycle would keep
    # the basis alive after the return until the cyclic GC ran
    lam_star = brentq(_mass_gap, bracket[0], bracket[1],
                      args=(solve_at, dom, gamma, mass),
                      xtol=1e-13 * lam1s, rtol=8.9e-16)
    sol = solve_at(lam_star)
    achieved = constraint_mass(dom, sol.trace, gamma)
    if abs(achieved - mass) > opts.constraint_rtol * mass:
        raise SolverError(
            f"constraint matched only to {abs(achieved - mass) / mass:.3e} "
            f"relative error at lam={lam_star:.8g}"
        )
    return replace(sol, constraint_target=float(mass), constraint_value=achieved)


def _mass_gap(lam, solve_at, dom, gamma, mass) -> float:
    """Constraint mass of the solution at ``lam`` minus the target."""
    sol = solve_at(lam)
    return constraint_mass(dom, sol.trace, gamma) - mass


def _scale_onto_mass(u: np.ndarray, gamma: float, target: float) -> float:
    """The t > 0 with sum (t u - gamma)_+^2 = target; u needs a positive value.

    With the positive values sorted decreasingly, the top j nodes are
    active on the stretch (gamma / u_j, gamma / u_{j+1}], where the sum
    is a quadratic in t.  The sum grows with t, so the root lies on the
    last stretch whose left end carries less than the target; the first
    stretch's left end carries zero, however the quadratic rounds there.
    On the first stretch, (t u_1 - gamma)^2 = target gives
    t = (gamma + sqrt(target)) / u_1 without the cancellation of the
    general formula, which loses targets far below gamma^2 times the
    rounding unit.
    """
    pos = -np.sort(-u[u > 0])
    j = np.arange(1, pos.size + 1)
    s1, s2 = np.cumsum(pos), np.cumsum(pos**2)
    # the sum on stretch j, highest power of t first
    poly = [s2, -2 * gamma * s1, j * gamma**2]
    k = max(np.count_nonzero(np.polyval(poly, gamma / pos) < target) - 1, 0)
    if k == 0:
        return float((gamma + np.sqrt(target)) / pos[0])
    # the larger root: the smaller one lies below the stretch
    disc = (gamma * s1[k]) ** 2 - s2[k] * (j[k] * gamma**2 - target)
    return float((gamma * s1[k] + np.sqrt(max(disc, 0.0))) / s2[k])


def _reduced_energy(c: np.ndarray, basis: EigenBasis, scale: np.ndarray,
                    gamma: float, target: float):
    """F(c) = E(t a) over directions c = scale * a, scale = sqrt(lam_k^s).

    t = t(a) puts t a on the mass constraint, and in these variables
    E(t a) = t^2 |c|^2 / 2, so the operator adds no spread of curvature.
    Returns (F, grad F, t, mu).  With b = t a, mu = 2 E(b) / (grad G(b) . b)
    and grad F = t (lam_k^s b_k - mu dG/db_k) / scale_k, which vanishes
    exactly where b solves the Euler-Lagrange equation with multiplier mu.
    """
    a = c / scale
    u = basis.nodal(a)
    t = _scale_onto_mass(u, gamma, target)
    dg = basis.coefficients(2 * np.maximum(t * u - gamma, 0.0))
    energy = 0.5 * t**2 * float(c @ c)
    slope = t * float(dg @ a)
    if not slope > 0:
        raise SolverError("energy route: the overshoot (t u - gamma)_+ rounds to "
                          "zero; the constraint target is below the resolution of gamma")
    mu = 2 * energy / slope
    return energy, t * (t * c - mu * dg / scale), t, mu


def minimize_energy(basis: EigenBasis, mass: float, gamma: float, s: float,
                    *, options: SolverOptions = None) -> PlasmaSolution:
    """Minimise the fractional Dirichlet energy at fixed overshoot mass.

    One unconstrained L-BFGS-B minimisation, from the ground mode, of
    F = E(t(a) a) over directions a (in the variables lam_k^{s/2} a_k);
    the closed-form scale t(a) puts every direction on the constraint.  The
    minimiser's multiplier mu gives lam = 2 mu, since the Euler-Lagrange
    equation of the mass is the plasma equation with that lam.
    ``residual`` is the norm of that equation, and ``status`` is
    'converged' when it is below ``stationarity_rtol`` times |L^s u| and
    the field's mass is within ``constraint_rtol`` of the target; a
    missed mass is a failed solve.
    ``iterations`` counts L-BFGS-B iterations and ``history`` holds the
    energy after each.  The route is deliberately independent of the
    fixed-point solvers; like any descent it finds a local minimum.
    """
    opts = options or SolverOptions()
    _validate_problem(gamma, s)
    if not 0 < mass < np.inf:
        raise ValueError("constraint mass must be positive")
    scale = np.sqrt(basis.eigenvalues**s)
    args = (basis, scale, gamma, mass / basis.weight)
    c = np.zeros(basis.size)
    c[0] = scale[0] * _scale_onto_mass(_ground_mode(basis), *args[2:])
    history = []
    result = minimize(lambda x: _reduced_energy(x, *args)[:2], c, jac=True,
                      method="L-BFGS-B",
                      callback=lambda intermediate_result: history.append(
                          float(intermediate_result.fun)),
                      options={"maxiter": 800, "ftol": 1e-18, "gtol": 1e-13})
    _, grad, t, mu = _reduced_energy(result.x, *args)
    b = t * result.x / scale
    res = float(np.linalg.norm(scale * grad)) / t
    stationary = res <= opts.stationarity_rtol * float(np.linalg.norm(scale**2 * b))
    achieved = constraint_mass(basis.domain, basis.nodal(b), gamma)
    on_target = abs(achieved - mass) <= opts.constraint_rtol * mass
    return PlasmaSolution(
        field=SpectralField(basis, b), lam=float(2 * mu), gamma=float(gamma),
        s=float(s), residual=res, iterations=int(result.nit),
        status="converged" if stationary and on_target else "failed",
        method="energy", history=np.asarray(history),
        constraint_target=float(mass), constraint_value=achieved,
    )


# -- symmetrization ---------------------------------------------------------------


def steiner_symmetrize(domain: Domain, values: np.ndarray, axis: int) -> np.ndarray:
    """Steiner symmetrization of a full-grid field along one axis.

    Every grid line parallel to ``axis`` is replaced by the symmetric
    decreasing rearrangement of its interior values: the largest value
    goes to the central position, and ties in distance to the centre go
    to the lower index first.  The sort is stable, so equal values (zeros
    of either sign among them) land in a fixed order: the result is
    deterministic and equimeasurable with the input.  The domain must be
    mirror-symmetric along the axis and every line's interior nodes must
    form a contiguous run centred on the midline (true for intervals,
    rectangles, and symmetric disk masks).
    """
    if axis not in domain.symmetry_axes:
        raise ValueError(f"axis {axis} is not a symmetry axis of this {domain.shape}")
    full = np.asarray(values, dtype=float)
    if full.shape != domain.grid_shape:
        raise ValueError("values must be a full-grid array")
    out = full.copy()
    lines = np.moveaxis(out, axis, 0)
    mask = np.moveaxis(domain.interior, axis, 0)
    n = len(mask)
    pos = np.arange(n).reshape((n,) + (1,) * (mask.ndim - 1))
    first, count = mask.argmax(axis=0), mask.sum(axis=0)
    if np.any(mask != ((pos >= first) & (pos < first + count))):
        raise ValueError("line has a non-contiguous interior; cannot symmetrize")
    if np.any((count > 0) & (2 * first + count != n)):
        raise ValueError("line interior is not centred on the grid midline")
    # a centred run's positions come first in the line's order by distance
    # to the midline, so they take its largest values; the -inf padding
    # off the run sorts last
    order = np.argsort(np.abs(np.arange(n) - (n - 1) / 2), kind="stable")
    placed = np.empty_like(lines)
    placed[order] = np.sort(np.where(mask, lines, -np.inf), axis=0,
                            kind="stable")[::-1]
    lines[mask] = placed[mask]
    return out
