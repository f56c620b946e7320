"""Independent reference implementations used to cross-check the package.

Everything here is built from numpy/scipy primitives only and never calls
into :mod:`fracplasma`, so agreement between the two is meaningful.
"""

import itertools
import math

import numpy as np
import scipy.integrate
import scipy.interpolate
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg
import scipy.special


# -- discrete Dirichlet eigenpairs on an interval -----------------------------------
#
# The 1D three-point Laplacian on m interior nodes with spacing h has the
# classical closed-form eigenpairs
#     lambda_k = (4 / h^2) sin^2(k pi / (2 (m + 1))),
#     phi_k(x_j) = sqrt(2 / L) sin(k pi x_j / L),
# and the sampled sines are *exactly* orthonormal in the h-weighted inner
# product because sum_j sin^2(k pi j / (m+1)) = (m+1)/2.


def interval_eigenpairs(lo: float, hi: float, n: int, K: int):
    """First K eigenpairs of the 1D Dirichlet stencil; vectors on interior nodes."""
    L = hi - lo
    m = n - 2
    h = L / (n - 1)
    k = np.arange(1, K + 1)
    lam = (4.0 / h**2) * np.sin(k * np.pi / (2 * (m + 1))) ** 2
    x = lo + h * np.arange(1, m + 1)
    V = np.sqrt(2.0 / L) * np.sin(np.outer(x - lo, k * np.pi / L))
    return lam, V


def rectangle_eigenvalues(bounds, nx: int, ny: int, K: int) -> np.ndarray:
    """First K eigenvalues of the 5-point stencil on a grid rectangle (sorted)."""
    (lox, hix), (loy, hiy) = bounds
    lx, _ = interval_eigenpairs(lox, hix, nx, nx - 2)
    ly, _ = interval_eigenpairs(loy, hiy, ny, ny - 2)
    sums = (lx[:, None] + ly[None, :]).ravel()
    sums.sort()
    return sums[:K]


def dense_dirichlet_eigh(grid_shape, h: float, interior=None):
    """All eigenpairs of the 3/5-point Dirichlet Laplacian by a dense solve.

    ``grid_shape`` counts nodes per axis, boundary included; interior
    nodes are packed row-major.  The matrix is the Kronecker sum of 1D
    second differences; vectors are scaled to be orthonormal in the
    h^dim-weighted inner product.  Eigenvalues ascend.  ``interior``, a
    boolean mask over the full grid (a disk mask), keeps the rows and
    columns of its nodes only, which imposes zero on every other node.
    """
    ms = [n - 2 for n in grid_shape]

    def second(m):
        return scipy.sparse.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)],
                                  [-1, 0, 1])

    if len(ms) == 1:
        A = second(ms[0])
    else:
        A = (scipy.sparse.kron(second(ms[0]), scipy.sparse.identity(ms[1]))
             + scipy.sparse.kron(scipy.sparse.identity(ms[0]), second(ms[1])))
    A = A.toarray()
    if interior is not None:
        keep = np.asarray(interior)[(slice(1, -1),) * len(ms)].ravel()
        A = A[np.ix_(keep, keep)]
    lam, V = scipy.linalg.eigh(A / h**2)
    return lam, V / np.sqrt(h ** len(ms))


def sine_basis(grid_shape, h: float, K: int):
    """First K eigenpairs of the Dirichlet stencil on an interval or grid
    rectangle as dense products of sampled sines.

    The sines sin(pi j k / (n - 1)) are evaluated directly with ``np.sin``;
    modes are ordered by a stable sort of the tensor sums, so tied modes
    keep row-major (j, k) order.  The sums round like the package's (per
    axis 4 sin^2(k pi / (2 (n - 1))) / h^2, summed over the axes), so that
    modes tied only up to rounding, such as (1, 24) and (15, 17) on a
    49-node square, come in the same order.  Returns the eigenvalues and the
    (n_interior, K) vectors, orthonormal in the h^dim-weighted inner
    product, with interior nodes packed row-major.
    """
    lams, sines = [], []
    for n in grid_shape:
        k = np.arange(1, n - 1)
        lams.append(4.0 * np.sin(k * np.pi / (2 * (n - 1))) ** 2 / h**2)
        sines.append(np.sqrt(2.0 / (n - 1)) * np.sin(np.pi * np.outer(k, k) / (n - 1)))
    sums = lams[0]
    for lam in lams[1:]:
        sums = np.add.outer(sums, lam).ravel()
    order = np.argsort(sums, kind="stable")[:K]
    modes = np.unravel_index(order, [n - 2 for n in grid_shape])
    V = sines[0][:, modes[0]]
    for S, j in zip(sines[1:], modes[1:]):
        V = (V[:, None, :] * S[:, j][None, :, :]).reshape(-1, K)
    return sums[order], V / np.sqrt(h ** len(grid_shape))


def plasma_residual(grid_shape, h: float, coeffs: np.ndarray, lam: float,
                    gamma: float, s: float) -> float:
    """|lambda_k^s a - lam h^dim V^T (V a - gamma)_+| on the ``sine_basis``
    of as many modes as ``coeffs`` has: the coefficient-space residual of
    L^s u = lam (u - gamma)_+ for u = V a."""
    eigenvalues, V = sine_basis(grid_shape, h, len(coeffs))
    plus = np.maximum(V @ coeffs - gamma, 0.0)
    proj = h ** len(grid_shape) * (V.T @ plus)
    return float(np.linalg.norm(eigenvalues**s * coeffs - lam * proj))


# -- stencil application on full grids -----------------------------------------------


def neg_laplacian_full(U: np.ndarray, h: float) -> np.ndarray:
    """-Delta by the 3/5-point stencil on a full grid with zero boundary data.

    Returns values on the full grid; entries on the outermost layer are
    meaningless and should be masked by the caller.
    """
    out = np.zeros_like(U)
    if U.ndim == 1:
        out[1:-1] = (2.0 * U[1:-1] - U[:-2] - U[2:]) / h**2
    else:
        out[1:-1, 1:-1] = (
            4.0 * U[1:-1, 1:-1]
            - U[:-2, 1:-1] - U[2:, 1:-1]
            - U[1:-1, :-2] - U[1:-1, 2:]
        ) / h**2
    return out


def dirichlet_face_energy(U: np.ndarray, h: float) -> float:
    """h^dim * sum over grid faces of ((U_i - U_j)/h)^2, zero outside the grid.

    For fields vanishing on the grid boundary this equals the quadratic
    form of the Dirichlet stencil exactly.
    """
    dim = U.ndim
    total = 0.0
    for ax in range(dim):
        d = np.diff(U, axis=ax) / h
        total += float(np.sum(d**2))
    return h**dim * total


# -- independent 1D plasma solver (s = 1) --------------------------------------------


def newton_plasma_1d(lo: float, hi: float, n: int, lam: float, gamma: float,
                     tol: float = 1e-13, max_iter: int = 60) -> np.ndarray:
    """Full-grid semismooth Newton for -u'' = lam (u - gamma)_+ on (lo, hi).

    Works on nodal interior values with the tridiagonal stencil; the
    start iterate is a large positive multiple of the first eigenmode so
    the iteration lands on the nontrivial branch.  Returns interior values.
    """
    L = hi - lo
    m = n - 2
    h = L / (n - 1)
    main = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    A = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csc")
    x = lo + h * np.arange(1, m + 1)
    u = 10.0 * gamma * np.sin(np.pi * (x - lo) / L)
    for _ in range(max_iter):
        r = A @ u - lam * np.maximum(u - gamma, 0.0)
        if np.linalg.norm(r) * h**0.5 <= tol:
            break
        active = (u > gamma).astype(float)
        J = A - scipy.sparse.diags(lam * active)
        u = u - scipy.sparse.linalg.spsolve(J.tocsc(), r)
    return u


def classical_plasma_interval(x, lam: float, gamma: float) -> np.ndarray:
    """Closed-form solution of -u'' = lam (u - gamma)_+ on [0, pi], u = 0 at
    both ends, lam > 1: the continuum problem at s = 1.

    On the plasma interval (a, pi - a), a = (pi/2)(1 - 1/sqrt(lam)),
    u = gamma + A cos(sqrt(lam)(x - pi/2)) with A = gamma / (a sqrt(lam)),
    which equals gamma at its ends, where the cosine's argument is -+pi/2;
    outside it u is linear, gamma x / a and gamma (pi - x) / a, with the
    slope gamma / a = A sqrt(lam) of the cosine there.
    """
    x = np.asarray(x, dtype=float)
    root = math.sqrt(lam)
    a = 0.5 * math.pi * (1.0 - 1.0 / root)
    inner = gamma + gamma / (a * root) * np.cos(root * (x - 0.5 * math.pi))
    outer = gamma * np.minimum(x, math.pi - x) / a
    return np.where(np.abs(x - 0.5 * math.pi) < 0.5 * math.pi - a, inner, outer)


# -- the plasma equation linearized on a fixed plasma set -----------------------------


def active_set_step(vectors: np.ndarray, eigenvalues: np.ndarray, weight: float,
                    lam: float, gamma: float, s: float,
                    active: np.ndarray) -> np.ndarray:
    """Coefficients solving L^s u = lam (u - gamma) on ``active``, 0 elsewhere.

    ``vectors`` holds the K basis columns on the interior nodes,
    orthonormal in the ``weight``-scaled inner product.  Assembles the
    K x K modal system

        (diag(lam_k^s) - lam w V_A^T V_A) a = -lam gamma w V_A^T 1

    explicitly and solves it densely.
    """
    VA = vectors[active]
    M = np.diag(eigenvalues**s) - lam * weight * (VA.T @ VA)
    rhs = -lam * gamma * weight * (VA.T @ np.ones(VA.shape[0]))
    return np.linalg.solve(M, rhs)


def threshold_branch(grid_shape, h: float, lam: float, gamma: float, s: float,
                     rungs: int = 50) -> np.ndarray:
    """Nodal values at ``lam`` of the plasma branch that comes in from
    infinity at the threshold lam_1^s, by a walk on the complete
    ``sine_basis``.

    The walk starts from the closed-form fully active state at
    mu = 1.05 lam_1^s, a_k = mu gamma c_k / (mu - lam_k^s) with
    c = h^dim V^T 1, and goes to ``lam`` on ``rungs`` geometric rungs
    after that first one.  Each rung takes ``active_set_step``s from the
    last rung's solution until the plasma set is stable; a set that comes
    back raises.
    """
    n = int(np.prod([m - 2 for m in grid_shape]))
    eigenvalues, V = sine_basis(grid_shape, h, n)
    weight = h ** len(grid_shape)
    lam_s = eigenvalues**s
    mu = 1.05 * lam_s[0]
    a = mu * gamma * weight * V.sum(axis=0) / (mu - lam_s)
    for mu in np.geomspace(mu, lam, rungs + 1):
        seen = set()
        active = V @ a > gamma
        while active.tobytes() not in seen:
            seen.add(active.tobytes())
            a = active_set_step(V, eigenvalues, weight, mu, gamma, s, active)
            active, previous = V @ a > gamma, active
            if np.array_equal(active, previous):
                break
        else:
            raise RuntimeError(f"plasma sets cycle at lam = {mu:.6g}")
    return V @ a


# -- scale of a direction onto the overshoot mass -------------------------------------


def scale_onto_mass(u: np.ndarray, gamma: float, target: float) -> float:
    """The t > 0 with sum (t u - gamma)_+^2 = target, by bracketing and brentq.

    The sum is zero up to t = gamma / max(u) and grows without bound
    after it, so doubling from there brackets the root.  For a tiny target
    the sum at t = gamma / max(u) may round above it (t max(u) rounds above
    gamma), so the left end steps down one float at a time until the gap
    is negative.
    """
    def gap(t):
        return float(np.sum(np.maximum(t * u - gamma, 0.0) ** 2)) - target

    lo = gamma / u.max()
    while gap(lo) >= 0:
        lo = np.nextafter(lo, 0.0)
    hi = 2 * lo
    while gap(hi) < 0:
        hi *= 2
    return scipy.optimize.brentq(gap, lo, hi, xtol=1e-300,
                                 rtol=4 * np.finfo(float).eps)


# -- multilinear interpolation ---------------------------------------------------------


def multilinear_values(axes, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolant of a tensor-grid array at points (N, len(axes)).

    scipy's ``RegularGridInterpolator``; each coordinate is first clipped
    onto its axis, so points beyond the grid take the value on its face.
    """
    pts = np.column_stack([np.clip(pts[:, k], ax[0], ax[-1])
                           for k, ax in enumerate(axes)])
    return scipy.interpolate.RegularGridInterpolator(axes, values)(pts)


def searchsorted_cells(ax: np.ndarray, q):
    """Cell of each coordinate on a sorted axis by ``searchsorted``: (index,
    local coordinate t, cell width), with the coordinate clipped onto the
    axis and a coordinate on a node placed in the cell below it."""
    q = np.clip(q, ax[0], ax[-1])
    i = np.clip(np.searchsorted(ax, q) - 1, 0, len(ax) - 2)
    width = ax[i + 1] - ax[i]
    return i, (q - ax[i]) / width, width


def corner_weight_interpolant(axes, values: np.ndarray, coords, gradient=False):
    """Multilinear interpolant at scattered points by the corner-weight formula.

    ``coords`` holds one coordinate array (all of one shape) per axis.
    Each coordinate is clipped onto its axis and located by
    ``searchsorted``; the value is the sum over the 2^d cell corners, in
    ``itertools.product`` order, of the corner value times the product of
    (1 - t) or t over the axes in axis order.  Partial derivatives sum the
    corner differences along an axis with the weights of the other axes
    and divide by the cell width.  Written out point set by point set, in
    the order of operations that the half-ball profiles have always used,
    so that a faster evaluation can be held to it bit for bit.
    """
    flat = np.ravel(values)
    strides = np.cumprod((values.shape[1:] + (1,))[::-1])[::-1]
    base, ts, widths = 0, [], []
    for ax, q, stride in zip(axes, coords, strides):
        i, t, width = searchsorted_cells(ax, q)
        widths.append(width)
        ts.append(t)
        base = base + i * stride
    cube = list(itertools.product((0, 1), repeat=len(axes)))
    corners = {bits: flat[base + np.dot(bits, strides)] for bits in cube}

    def weight(bits, skip=None):
        return math.prod(t if b else 1 - t
                         for k, (t, b) in enumerate(zip(ts, bits)) if k != skip)

    if not gradient:
        return sum(corners[bits] * weight(bits) for bits in cube)
    return [sum((corners[bits[:k] + (1,) + bits[k + 1:]] - c) * weight(bits, k)
                for bits, c in corners.items() if not bits[k]) / widths[k]
            for k in range(len(axes))]


def halfball_rule(a: float, thin_dim: int):
    """Angular rule of the half-ball profiles: unit thin offsets (N, dim),
    unit heights (N,) and weights (N,) on the upper unit half-sphere, and
    the thin unit sphere with its weight.  48 Gauss-Jacobi nodes in 1-D;
    24 polar Gauss-Jacobi nodes times 64 azimuths in 2-D."""
    if thin_dim == 1:
        t, wt = scipy.special.roots_jacobi(48, (a - 1) / 2, (a - 1) / 2)
        return (t.reshape(-1, 1), np.sqrt(np.maximum(1 - t**2, 0.0)), wt,
                np.array([[-1.0], [1.0]]), 1.0)
    xi, wxi = scipy.special.roots_jacobi(24, 0.0, a)
    tau = (1 + xi) / 2
    wtau = wxi / 2 ** (1 + a)
    phi = 2 * np.pi * np.arange(64) / 64
    wphi = np.full(64, 2 * np.pi / 64)
    TT, PP = np.meshgrid(tau, phi, indexing="ij")
    sin_pol = np.sqrt(np.maximum(1 - TT**2, 0.0))
    unit_thin = np.column_stack([(sin_pol * np.cos(PP)).ravel(),
                                 (sin_pol * np.sin(PP)).ravel()])
    return (unit_thin, TT.ravel(), np.outer(wtau, wphi).ravel(),
            np.column_stack([np.cos(phi), np.sin(phi)]), wphi[0])


def halfball_profiles(axes, ynodes, values: np.ndarray, a: float, center,
                      rmax: float, h: float):
    """Cumulative radial integrals of the half-ball engine, one radius at a time.

    Returns (edges, energy, thin_pos): the radial grid with 0 prepended and
    the cumulative integrals of rho^(dim+a) g_D (g_D the angular integral
    of y^a |grad w|^2 on the half-sphere of radius rho) and of rho^(dim-1)
    times the ring integral of the positive part of w(., 0) squared.  The profiles are piecewise linear in rho
    (constant below the first radius) and integrated exactly against the
    power on every segment.
    """
    center = np.asarray(center, dtype=float)
    dim = len(axes)
    unit_thin, unit_y, ang_w, ring, w_ring = halfball_rule(a, dim)
    n_radial = int(max(192, min(1536, np.ceil(8 * rmax / h))))
    rho = np.linspace(0.0, rmax, n_radial + 1)[1:]
    gD, pos = np.empty(n_radial), np.empty(n_radial)
    for k, r in enumerate(rho):
        pts = center + r * unit_thin
        grads = corner_weight_interpolant(tuple(axes) + (ynodes,), values,
                                          (*pts.T, r * unit_y), gradient=True)
        gD[k] = np.sum(ang_w * sum(g**2 for g in grads))
        vals = corner_weight_interpolant(axes, values[..., 0], (center + r * ring).T)
        pos[k] = w_ring * np.sum(np.maximum(vals, 0.0) ** 2)
    edges = np.concatenate([[0.0], rho])

    def cumulative(g, power):
        gext = np.concatenate([[g[0]], g])
        r0, r1 = edges[:-1], edges[1:]
        p1 = (r1 ** (power + 1) - r0 ** (power + 1)) / (power + 1)
        p2 = (r1 ** (power + 2) - r0 ** (power + 2)) / (power + 2)
        slope = (gext[1:] - gext[:-1]) / (r1 - r0)
        seg = gext[:-1] * p1 + slope * (p2 - r0 * p1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    return edges, cumulative(gD, dim + a), cumulative(pos, dim - 1.0)


def halfball_boundary_norm(axes, ynodes, values: np.ndarray, a: float, center,
                           r: float) -> float:
    """H(r) = int over the upper half-sphere of radius r of y^a w^2, by the
    angular rule of ``halfball_rule`` and the corner-weight interpolant."""
    dim = len(axes)
    unit_thin, unit_y, ang_w, _, _ = halfball_rule(a, dim)
    pts = np.asarray(center, dtype=float) + r * unit_thin
    vals = corner_weight_interpolant(tuple(axes) + (ynodes,), values,
                                     (*pts.T, r * unit_y))
    return float(r ** (dim + a) * np.sum(ang_w * vals**2))


# -- quadratic-model fit of a blow-up -------------------------------------------------


def quadratic_fit(axes, ynodes: np.ndarray, values: np.ndarray, a: float):
    """Weighted least-squares fit of a reference-slab field against the
    quadratic model p(x) - c y^2 over the unit half-ball, formed on full
    meshgrid arrays: (c relative to the leading eigenvalue of p, weighted
    relative residual).  Node weights are uniform in x and the exact y^a
    moments of the dual cells in y."""
    ys = ynodes
    mesh = np.meshgrid(*axes, indexing="ij")
    mids = np.concatenate([[0.0], 0.5 * (ys[:-1] + ys[1:]), [ys[-1]]])
    wy = (mids[1:] ** (1 + a) - mids[:-1] ** (1 + a)) / (1 + a)
    rho2 = sum(m**2 for m in mesh)[..., None] + ys[None, ...] ** 2
    inside = rho2 <= 1.0
    vals = values[inside]
    weights = np.broadcast_to(wy, values.shape)[inside]
    coords = [np.broadcast_to(m[..., None], values.shape)[inside] for m in mesh]
    yy = np.broadcast_to(ys, values.shape)[inside]
    if len(axes) == 1:
        X = np.column_stack([coords[0] ** 2, yy**2])
    else:
        X = np.column_stack([coords[0] ** 2, coords[0] * coords[1],
                             coords[1] ** 2, yy**2])
    sw = np.sqrt(weights)
    beta, *_ = np.linalg.lstsq(X * sw[:, None], vals * sw, rcond=None)
    fit = X @ beta
    denom = float(np.sum(weights * vals**2))
    resid = float(np.sqrt(np.sum(weights * (vals - fit) ** 2) / max(denom, 1e-300)))
    if len(axes) == 1:
        lead = abs(float(beta[0]))
    else:
        Q = np.array([[beta[0], beta[1] / 2], [beta[1] / 2, beta[2]]])
        lead = float(np.max(np.abs(np.linalg.eigvalsh(Q))))
    return (-float(beta[-1]) / lead if lead > 0 else float("inf")), resid


# -- closed forms for weighted half-ball geometry ------------------------------------


def halfsphere_surface_weight(a: float, thin_dim: int) -> float:
    """Integral of y^a over the upper unit half-sphere around the origin.

    thin_dim = 1: the half-circle in (x, y); the integral is
        int_0^pi sin(t)^a dt = B((a+1)/2, 1/2).
    thin_dim = 2: the upper half-sphere in (x1, x2, y);
        2 pi int_0^{pi/2} cos(p)^a sin(p) dp = 2 pi / (1 + a).
    Scales like r^(thin_dim + a) with the radius.
    """
    if thin_dim == 1:
        return float(scipy.special.beta((a + 1) / 2, 0.5))
    return float(2.0 * np.pi / (1.0 + a))


def halfball_volume_weight(a: float, thin_dim: int) -> float:
    """Integral of y^a over the upper unit half-ball around the origin."""
    return halfsphere_surface_weight(a, thin_dim) / (thin_dim + 1 + a)


# -- extension-mode energy constant --------------------------------------------------


def mode_energy_integral(s: float) -> float:
    """int_0^inf z^a (psi^2 + psi'^2) dz for the Bessel mode profile.

    psi(z) = 2^(1-s)/Gamma(s) * z^s K_s(z) solves the weighted mode ODE
    with psi(0) = 1; the integral equals the factor linking weighted
    extension energy to the spectral form.  Evaluated by adaptive
    quadrature, independent of the package implementation.
    """
    a = 1.0 - 2.0 * s
    c = 2.0 ** (1.0 - s) / scipy.special.gamma(s)

    def psi(z):
        return c * z**s * scipy.special.kv(s, z)

    def dpsi(z):
        # d/dz [z^s K_s(z)] = -z^s K_{s-1}(z) and K_{s-1} = K_{1-s}
        return -c * z**s * scipy.special.kv(1.0 - s, z)

    def integrand(z):
        return z**a * (psi(z) ** 2 + dpsi(z) ** 2)

    val, _ = scipy.integrate.quad(integrand, 0.0, 60.0, limit=400,
                                  points=[1e-6, 0.1, 1.0, 10.0])
    return float(val)


def bessel_profile(s: float, z) -> np.ndarray:
    """psi_s(z) = 2^(1-s)/Gamma(s) z^s K_s(z) with psi_s(0) = 1, from the
    unscaled K_s at every argument (no cut at large z)."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    pos = z > 0
    out[pos] = (2.0 ** (1.0 - s) / scipy.special.gamma(s)
                * z[pos] ** s * scipy.special.kv(s, z[pos]))
    return out


def flux_constant(s: float) -> float:
    """2^{1-2s} Gamma(1-s) / Gamma(s), the spectral-to-flux normalization."""
    return float(2.0 ** (1 - 2 * s) * scipy.special.gamma(1 - s)
                 / scipy.special.gamma(s))


# -- sign of the y-derivative over the whole slab ------------------------------------


def uy_sign_reduction(values: np.ndarray, ynodes: np.ndarray, tol: float):
    """(largest one-sided y-difference quotient, number above tol times the
    field scale, index of the first largest in row-major order), from one
    slab-sized array of quotients."""
    grad = np.diff(values, axis=-1) / np.diff(ynodes)
    scale = max(float(np.abs(values).max()), 1.0)
    worst = np.unravel_index(int(np.argmax(grad)), grad.shape)
    return (float(grad.max()), int(np.count_nonzero(grad > tol * scale)),
            tuple(int(k) for k in worst))


# -- finite-volume slab extension by one sparse LU ------------------------------------


def _fd_conductances(ys: np.ndarray, s: float, h: float, dim: int):
    """Control-volume integrals of y^a for layers 1..M-1 (horizontal
    faces) and harmonic transmissibilities between adjacent layers
    (vertical faces), scaled by the thin cell size."""
    a = 1.0 - 2.0 * s
    mid = 0.5 * (ys[:-1] + ys[1:])
    cond_x = (mid[1:] ** (1 + a) - mid[:-1] ** (1 + a)) / (1 + a) * h ** (dim - 2)
    cond_y = h**dim * (1 - a) / (ys[1:] ** (1 - a) - ys[:-1] ** (1 - a))
    return cond_x, cond_y


def fd_slab_extension(interior: np.ndarray, h: float, trace: np.ndarray,
                      s: float, ys: np.ndarray) -> np.ndarray:
    """Finite-volume extension of ``trace`` assembled as one 3-D matrix.

    ``interior`` is the boolean interior mask over the full grid and
    ``ys`` the layer heights 0 = y_0 < ... < y_M.  The thin graph
    Laplacian is the Kronecker sum of 1D second differences over the full
    grid restricted to the interior nodes, so Dirichlet walls are
    eliminated.  Same conductances as the package scheme: control-volume
    integrals of y^a horizontally, harmonic transmissibilities
    vertically.  Returns values of shape grid_shape + (M + 1,).
    """
    dim = interior.ndim
    M = len(ys) - 1
    L = M - 1
    B = None
    for ax, n in enumerate(interior.shape):
        second = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                                    [-1, 0, 1])
        factors = [scipy.sparse.identity(k) for k in interior.shape]
        factors[ax] = second
        term = factors[0]
        for f in factors[1:]:
            term = scipy.sparse.kron(term, f)
        B = term if B is None else B + term
    keep = np.flatnonzero(interior.ravel())
    B = B.tocsr()[keep][:, keep]

    cond_x, cond_y = _fd_conductances(ys, s, h, dim)
    Ty = scipy.sparse.diags([-cond_y[1:L], cond_y[:-1] + cond_y[1:], -cond_y[1:L]],
                            [-1, 0, 1])
    A = (scipy.sparse.kron(B, scipy.sparse.diags(cond_x))
         + scipy.sparse.kron(scipy.sparse.identity(len(keep)), Ty)).tocsc()
    rhs = np.zeros((len(keep), L))
    rhs[:, 0] = cond_y[0] * trace[interior]
    # A is symmetric positive definite, so diagonal pivots in a symmetric
    # fill-reducing order are stable; they keep half the fill of COLAMD
    lu = scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    sol = lu.solve(rhs.ravel()).reshape(len(keep), L)
    out = np.zeros(interior.shape + (M + 1,))
    out[..., 0] = trace
    out[interior, 1:M] = sol
    return out


def fd_face_energy(W: np.ndarray, h: float, s: float, ys: np.ndarray) -> float:
    """Finite-volume energy E_h of any slab W, face by face.

    ``W`` has shape grid_shape + (M + 1,) and is zero off the interior
    nodes, so faces to the walls count.  Sums cond_x of each layer
    1..M-1 times the squared differences across every thin grid face of
    that layer, plus cond_y of each vertical face times the squared
    differences between the layers it joins.
    """
    dim = W.ndim - 1
    cond_x, cond_y = _fd_conductances(ys, s, h, dim)
    total = 0.0
    for j in range(1, len(ys) - 1):
        layer = W[..., j]
        total += cond_x[j - 1] * sum(float(np.sum(np.diff(layer, axis=ax) ** 2))
                                     for ax in range(dim))
    for j in range(len(ys) - 1):
        total += cond_y[j] * float(np.sum((W[..., j + 1] - W[..., j]) ** 2))
    return total


def fd_slab_energy(interior: np.ndarray, h: float, trace: np.ndarray,
                   s: float, ys: np.ndarray) -> float:
    """Finite-volume energy of the extension assembled by one sparse LU."""
    return fd_face_energy(fd_slab_extension(interior, h, trace, s, ys), h, s, ys)


# -- level-set crossings and cell clusters ------------------------------------------


def level_crossings(domain, u: np.ndarray, level: float):
    """Every level crossing of a full-grid field, found one edge at a time.

    An edge crosses when one node is at or above ``level`` and the other
    below; its crossing sits at the linear-interpolation point.  The tag
    is "regular" when the centred-difference gradient (one-sided at the
    walls), interpolated along the edge to that point, exceeds 10 h times
    the largest |second difference| / h^2 of the field.  Returns the list
    of (location, gradient, tag, cell) with cell the edge's low node
    clamped into the cell grid, and the set of cells with a crossing on
    any edge.
    """
    u = np.asarray(u, dtype=float)
    shape, dim, h = u.shape, u.ndim, domain.h
    unit = [tuple(int(k == d) for k in range(dim)) for d in range(dim)]

    def step(node, d, k):
        return tuple(c + k * e for c, e in zip(node, unit[d]))

    def gradient(node):
        out = []
        for d in range(dim):
            lo = step(node, d, -1) if node[d] > 0 else node
            hi = step(node, d, 1) if node[d] < shape[d] - 1 else node
            out.append((u[hi] - u[lo]) / ((hi[d] - lo[d]) * h))
        return np.array(out)

    curvature = 0.0
    for node in np.ndindex(*shape):
        for d in range(dim):
            if 0 < node[d] < shape[d] - 1:
                d2 = u[step(node, d, -1)] - 2 * u[node] + u[step(node, d, 1)]
                curvature = max(curvature, abs(d2) / h**2)
    threshold = 10.0 * h * curvature

    points, cells = [], set()
    for node in np.ndindex(*shape):
        for d in range(dim):
            if node[d] == shape[d] - 1:
                continue
            other = step(node, d, 1)
            p0, p1 = u[node] - level, u[other] - level
            if (p0 >= 0) == (p1 >= 0):
                continue
            t = p0 / (p0 - p1)
            loc = [domain.axes[k][node[k]] for k in range(dim)]
            loc[d] += t * h
            g = gradient(node) * (1 - t) + gradient(other) * t
            tag = "regular" if np.sqrt(np.sum(g**2)) > threshold else "unresolved"
            points.append((tuple(loc), tuple(g), tag,
                           tuple(min(c, n - 2) for c, n in zip(node, shape))))
            # the cells sharing this edge: offset 0 or -1 along every other axis
            for offsets in itertools.product((0, -1), repeat=dim - 1):
                offs = list(offsets)
                offs.insert(d, 0)
                cell = tuple(c + o for c, o in zip(node, offs))
                if all(0 <= c <= n - 2 for c, n in zip(cell, shape)):
                    cells.add(cell)
    return points, cells


def cluster_cells(cells, reach: int = 2):
    """Union-find over every pair of cells within Chebyshev distance ``reach``.

    Groups come in order of their smallest member, members ascending.
    """
    n = len(cells)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if max(abs(a - b) for a, b in zip(cells[i], cells[j])) <= reach:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def inclusion_transitions(interior: np.ndarray, u: np.ndarray, level: float):
    """The two one-sided transition sets of a full-grid field, one edge at
    a time, as sets of edge midpoints in index units.

    An edge belongs to a set only when one of its ends is an interior
    node.  ``lower`` holds the edges with one end below the level and the
    other at or above it, ``upper`` those with one end above the level
    and the other at or below it.
    """
    lower, upper = set(), set()
    for node in np.ndindex(*u.shape):
        for d in range(u.ndim):
            if node[d] == u.shape[d] - 1:
                continue
            other = tuple(c + (k == d) for k, c in enumerate(node))
            if not (interior[node] or interior[other]):
                continue
            a, b = u[node], u[other]
            mid = tuple(c + 0.5 * (k == d) for k, c in enumerate(node))
            if min(a, b) < level <= max(a, b):
                lower.add(mid)
            if min(a, b) <= level < max(a, b):
                upper.add(mid)
    return lower, upper


def inclusion_gap(lower: set, upper: set):
    """Largest Chebyshev distance from a point of either set to the other
    set, and the points farther than one cell; (0, set()) for two empty
    sets and (inf, set()) when only one is empty."""
    if not lower and not upper:
        return 0.0, set()
    if not lower or not upper:
        return float("inf"), set()
    gap, far = 0.0, set()
    for src, dst in ((lower, upper), (upper, lower)):
        for p in src:
            dist = min(max(abs(a - b) for a, b in zip(p, q)) for q in dst)
            gap = max(gap, dist)
            if dist > 1.0 + 1e-9:
                far.add(p)
    return gap, far


# -- Steiner symmetrization -----------------------------------------------------------


def symmetric_decreasing_rearrangement(values: np.ndarray) -> np.ndarray:
    """Rearrange a line of values symmetrically decreasing about its centre.

    The largest value goes to the central position; ties in distance to
    the centre go to the lower index first, and equal values keep their
    order (stable sort).
    """
    v = np.asarray(values, dtype=float)
    m = len(v)
    centre = (m - 1) / 2
    order = sorted(range(m), key=lambda pos: (abs(pos - centre), pos))
    out = np.empty(m)
    out[order] = np.sort(v, kind="stable")[::-1]
    return out


def steiner_lines(interior: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Steiner symmetrization one grid line at a time: every line along
    ``axis`` has its (contiguous, centred) run of interior values
    rearranged, the other nodes keep their values."""
    out = np.array(values, dtype=float)
    moved = np.moveaxis(out, axis, 0)
    mask = np.moveaxis(interior, axis, 0)
    for rest in np.ndindex(*moved.shape[1:]):
        idxs = np.flatnonzero(mask[(slice(None),) + rest])
        if idxs.size:
            assert np.all(np.diff(idxs) == 1)
            assert idxs[0] + idxs[-1] == len(mask) - 1
            sel = (idxs,) + rest
            moved[sel] = symmetric_decreasing_rearrangement(moved[sel])
    return out
