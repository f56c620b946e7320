"""Degenerate-elliptic extension of thin-space fields.

A field u on the thin domain extends to w(x, y) on the slab
Omega x (0, Y) solving div(y^a grad w) = 0 with w(., 0) = u, where
a = 1 - 2s in (-1, 1).  Mode by mode the extension is explicit:

    w = sum_k a_k phi_k(x) psi_s(sqrt(lambda_k) y),
    psi_s(z) = 2^{1-s} / Gamma(s) * z^s K_s(z),

with psi_s(0) = 1 and psi_{1/2}(z) = exp(-z).  The weighted normal
derivative -lim y^a dw/dy recovers the fractional operator up to the
constant d_s = 2^{1-2s} Gamma(1-s) / Gamma(s), so a Dirichlet-to-Neumann
map calibrated on the first mode reproduces lambda^s exactly there.

Each mode decays like exp(-sqrt(lambda_k) y) (Nochetto, Otarola & Salgado,
Found. Comput. Math. 2015), and psi_s(z) < 3.5e-17 for z >= 40 and every s
in (0, 1]: mode_profile writes exact zeros beyond z = 40 and evaluates the
Bessel function only below it.

Near y = 0 the profile behaves like 1 - kappa_s z^{2s} + O(z^2): the
Dirichlet-to-Neumann map (dtn) therefore fits the first few off-trace layers
against the powers {y^{2s}, y^2, y^{2s+2}, y^4} instead of differencing.

extend_fd solves the finite-volume slab scheme, and fd_energy gives the
energy E_h that this scheme minimises, in closed form per mode, without
forming the slab.  weighted_energy integrates the slab energy of the
multilinear interpolant exactly, in any thin dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, kve

from .domains import Domain, EigenBasis, eigendecompose
from .spectral import SpectralField, _check_order

__all__ = [
    "YMesh",
    "build_ymesh",
    "ExtensionField",
    "mode_profile",
    "extension_energy_constant",
    "extend_semianalytic",
    "extend_fd",
    "fd_energy",
    "dtn",
    "check_uy_sign",
    "UySignReport",
    "weighted_energy",
]


# -- extension-direction mesh -------------------------------------------------


@dataclass(frozen=True)
class YMesh:
    """Graded mesh 0 = y_0 < ... < y_M = Y for the extension direction."""

    nodes: np.ndarray
    grading: float

    @property
    def M(self) -> int:
        return len(self.nodes) - 1

    @property
    def Y(self) -> float:
        return float(self.nodes[-1])

    def prefix(self, height: float) -> "YMesh":
        """The nodes up to and including the first node >= ``height`` (all
        of them if none is that high)."""
        j = min(int(np.searchsorted(self.nodes, height)), self.M)
        return YMesh(nodes=self.nodes[:j + 1], grading=self.grading)


def build_ymesh(s: float, lam1: float, *, span_factor: float = 20.0,
                layers: int = 200, grading: float = None) -> YMesh:
    """Graded mesh y_j = Y (j/M)^g clustering nodes at the trace.

    The default grading g = max(2, 1/s) resolves the y^{2s} boundary
    layer of the mode profile; the default span Y = span_factor / sqrt(lam1)
    makes the slowest mode decay below 3e-9 at the top.
    """
    _check_order(s)
    if not 0 < lam1 < np.inf:
        raise ValueError("lam1 must be positive")
    if layers < 8:
        raise ValueError("need at least 8 layers")
    if grading is None:
        grading = max(2.0, 1.0 / s)
    if not 1 <= grading < np.inf:
        raise ValueError("grading must be >= 1")
    Y = span_factor / np.sqrt(lam1)
    nodes = Y * (np.arange(layers + 1) / layers) ** grading
    return YMesh(nodes=nodes, grading=float(grading))


# -- extension fields ----------------------------------------------------------


@dataclass(frozen=True)
class ExtensionField:
    """Field on the slab grid: values[..., j] is the layer at height y_j."""

    domain: Domain
    ymesh: YMesh
    s: float
    values: np.ndarray

    def __post_init__(self):
        expected = self.domain.grid_shape + (self.ymesh.M + 1,)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid x layers "
                f"{expected}"
            )
        _check_order(self.s)

    @property
    def a(self) -> float:
        return 1.0 - 2.0 * self.s

    @property
    def trace(self) -> np.ndarray:
        return self.values[..., 0]

    def shifted(self, level: float) -> "ExtensionField":
        """Subtract a constant from every layer (free-boundary recentring)."""
        return ExtensionField(domain=self.domain, ymesh=self.ymesh, s=self.s,
                              values=self.values - level)


# -- mode profile and constants ------------------------------------------------


# psi_s decreases in z and psi_s(40) < 3.5e-17 for every s in (0, 1]
# (z K_1(z) = 3.4e-17 at z = 40 is the largest), so beyond this argument the
# profile is written as an exact zero and no Bessel function is evaluated
_Z_CUT = 40.0


def mode_profile(s: float, z) -> np.ndarray:
    """psi_s(z) = 2^{1-s}/Gamma(s) z^s K_s(z); psi_s(0) = 1, decaying in z.

    Uses the scaled Bessel function kve where 0 < z <= ``_Z_CUT`` and
    exact zeros above it, within 3.5e-17 of the formula.
    """
    _check_order(s)
    z = np.asarray(z, dtype=float)
    out = np.where(z > _Z_CUT, 0.0, 1.0)
    live = (z > 0) & (z <= _Z_CUT)
    zp = z[live]
    with np.errstate(over="ignore", under="ignore"):
        out[live] = (2 ** (1 - s) / gamma_fn(s)) * zp**s * kve(s, zp) * np.exp(-zp)
    return out


def _check_extension_order(s: float) -> None:
    """Refuse an order outside (0, 1), where there is no extension."""
    _check_order(s)
    if s == 1.0:
        raise ValueError("extension requires s in (0, 1)")


def extension_energy_constant(s: float) -> float:
    """d_s = 2^{1-2s} Gamma(1-s)/Gamma(s): weighted energy of a unit mode.

    The slab energy of the extension of a single eigenmode equals
    d_s * lambda_k^s * a_k^2; d_{1/2} = 1.
    """
    _check_extension_order(s)
    return float(2 ** (1 - 2 * s) * gamma_fn(1 - s) / gamma_fn(s))


# -- building extensions --------------------------------------------------------


# layers extend_semianalytic takes to the nodes, and check_uy_sign
# reduces, at a time
_LAYER_BLOCK = 32


def extend_semianalytic(f: SpectralField, s: float, ymesh: YMesh) -> ExtensionField:
    """Extend a spectral field mode by mode with the exact profile.

    The profile is evaluated once per distinct eigenvalue (tied modes
    share it), and one batched transform takes a block of layers to the
    nodes, so no temporary is larger than a block.  Short blocks are
    padded to the full width unless the basis is ``columnwise``.  Every
    layer is computed independently of the others, so an extension on
    some of a mesh's nodes (a ``YMesh.prefix``, or any subset) equals the
    matching layers of the full one bit for bit.
    """
    _check_extension_order(s)
    basis = f.basis
    dom = basis.domain
    distinct, which = np.unique(basis.eigenvalues, return_inverse=True)
    roots = np.sqrt(distinct)[:, None]
    vals = np.zeros(dom.grid_shape + (ymesh.M + 1,))
    prof = np.zeros((basis.size, _LAYER_BLOCK))
    for start in range(0, ymesh.M + 1, _LAYER_BLOCK):
        block = slice(start, start + _LAYER_BLOCK)
        nodes = ymesh.nodes[block]
        # a short block keeps zero profiles in its unused columns: every
        # dense product then has the same width, so it runs the same BLAS
        # kernel whichever layers are asked for; a columnwise transform
        # takes only the columns in use
        width = len(nodes) if basis.columnwise else _LAYER_BLOCK
        prof[:, len(nodes):] = 0.0
        prof[:, :len(nodes)] = mode_profile(s, roots * nodes)[which] * f.coeffs[:, None]
        vals[dom.interior, block] = basis.nodal(prof[:, :width])[:, :len(nodes)]
    return ExtensionField(domain=dom, ymesh=ymesh, s=s, values=vals)


def _checked_trace(domain: Domain, trace_values: np.ndarray, s: float) -> np.ndarray:
    """The trace as a full-grid float array, refused unless it is finite,
    vanishes off the interior and s is in (0, 1)."""
    _check_extension_order(s)
    trace_full = np.asarray(trace_values, dtype=float)
    if trace_full.shape != domain.grid_shape:
        raise ValueError("trace must be a full-grid array")
    if not np.all(np.isfinite(trace_full)):
        raise ValueError("trace contains non-finite values")
    off = np.abs(trace_full[~domain.interior])
    scale = max(np.abs(trace_full).max(), 1.0)
    if off.size and off.max() > 1e-12 * scale:
        raise ValueError("trace must vanish off the interior nodes")
    return trace_full


def _conductances(domain: Domain, s: float, ymesh: YMesh):
    """Face conductances of the finite-volume slab scheme.

    cond_x[j - 1] belongs to the horizontal faces of layer j = 1..M-1: the
    integral of y^a over its control volume [mid_{j-1}, mid_j], times
    h^(dim-2).  cond_y[j] belongs to the vertical face between layers j
    and j+1, j = 0..M-1: the harmonic transmissibility
    (1 - a) / (y_{j+1}^{1-a} - y_j^{1-a}), times h^dim.
    """
    a = 1.0 - 2.0 * s
    ys = ymesh.nodes
    h, dim = domain.h, domain.dim
    mid = 0.5 * (ys[:-1] + ys[1:])
    wvol = (mid[1:] ** (1 + a) - mid[:-1] ** (1 + a)) / (1 + a)
    resist = (ys[1:] ** (1 - a) - ys[:-1] ** (1 - a)) / (1 - a)
    return wvol * h ** (dim - 2), h**dim / resist


def _ladder(mu: np.ndarray, cond_x: np.ndarray, cond_y: np.ndarray):
    """Ladder conductances G_{M-1}, ..., G_1 of the modes mu, in that order.

    In mode k the scheme is a ladder: layer j is shunted to zero by
    x_j = mu_k cond_x[j - 1] and joined to layer j + 1 by cond_y[j], and
    layer M is zero.  G_{M-1} = x_{M-1} + cond_y[M-1] and
    G_j = x_j + cond_y[j] G_{j+1} / (cond_y[j] + G_{j+1}) are sums of
    positive terms, so nothing cancels; each is vectorised over the modes.
    """
    ladder = mu * cond_x[-1] + cond_y[-1]
    yield ladder
    for j in range(len(cond_y) - 2, 0, -1):
        ladder = mu * cond_x[j - 1] + cond_y[j] * ladder / (cond_y[j] + ladder)
        yield ladder


def extend_fd(domain: Domain, trace_values: np.ndarray, s: float,
              ymesh: YMesh) -> ExtensionField:
    """Solve the weighted slab problem by a finite-volume scheme.

    Unknowns live at interior grid nodes and layers 1..M-1; the trace is
    Dirichlet data at y = 0, and zero is imposed on the lateral walls and
    the top.  Face conductances integrate the weight y^a exactly
    (``_conductances``): control-volume integrals on the horizontal faces,
    harmonic transmissibilities on the vertical ones, so the matrix is
    symmetric positive definite and satisfies a discrete maximum
    principle (nonnegative data give nonnegative solutions).

    The slab matrix is B (x) diag(cond_x) + I (x) T_y with B = h^2 (-Delta_h)
    the thin graph Laplacian, so the system is solved mode by mode in the
    domain's complete ``EigenBasis``, mu_k = h^2 lambda_k.  The current into
    layer j leaves it through the ladder G_j above it (``_ladder``), so
    layer j is layer j - 1 times cond_y[j-1] / (cond_y[j-1] + G_j): one
    cumulative product over the layers gives them all.  Past the transform
    the cost is linear in the number of layers.
    """
    trace_full = _checked_trace(domain, trace_values, s)
    M = ymesh.M
    cond_x, cond_y = _conductances(domain, s, ymesh)

    basis = eigendecompose(domain, domain.n_interior)
    mu = basis.eigenvalues * domain.h**2
    # one slab-sized array holds the factors and then, in place, the layers
    c = np.empty((basis.size, M - 1))
    for j, ladder in zip(range(M - 1, 0, -1), _ladder(mu, cond_x, cond_y)):
        c[:, j - 1] = cond_y[j - 1] / (cond_y[j - 1] + ladder)
    c[:, 0] *= basis.coefficients(trace_full[domain.interior])
    np.cumprod(c, axis=1, out=c)
    layers = basis.nodal(c)
    del c

    vals = np.zeros(domain.grid_shape + (M + 1,))
    vals[..., 0] = trace_full
    vals[domain.interior, 1:M] = layers
    return ExtensionField(domain=domain, ymesh=ymesh, s=s, values=vals)


def fd_energy(basis: EigenBasis, trace_values: np.ndarray, s: float,
              ymesh: YMesh) -> float:
    """Finite-volume energy E_h of the extension ``extend_fd`` builds.

    E_h = sum_j cond_x[j] W_j^T B W_j + sum_j cond_y[j] |W_{j+1} - W_j|^2
    over the slab nodal values W (W_0 the trace, W_M = 0), the quadratic
    form that extend_fd minimises.  ``basis`` must be complete; in it E_h
    is diagonal: mode k with coefficient c_k contributes h^-dim c_k^2 times
    its ladder's conductance cond_y[0] G_1 / (cond_y[0] + G_1) seen from
    the trace (``_ladder``).  No slab is formed.
    """
    domain = basis.domain
    if basis.size != domain.n_interior:
        raise ValueError("fd_energy needs a complete basis "
                         f"({domain.n_interior} modes, got {basis.size})")
    trace_full = _checked_trace(domain, trace_values, s)
    cond_x, cond_y = _conductances(domain, s, ymesh)
    mu = basis.eigenvalues * domain.h**2
    for ladder in _ladder(mu, cond_x, cond_y):
        pass  # the last one, G_1, is the ladder seen from the trace
    coeffs = basis.coefficients(trace_full[domain.interior])
    modal = cond_y[0] * ladder / (cond_y[0] + ladder)
    return float(modal @ coeffs**2) / basis.weight


# -- boundary-layer fits ---------------------------------------------------------


def _fit_powers(s: float) -> list:
    """Powers of y used to model w(x, y) - w(x, 0) near the trace."""
    candidates = [2 * s, 2.0, 2 * s + 2, 4.0, 2 * s + 4, 6.0]
    powers = []
    for p in candidates:
        if all(abs(p - q) > 0.05 for q in powers):
            powers.append(p)
        if len(powers) == 4:
            break
    return powers


def _boundary_fit_weights(ymesh: YMesh, s: float):
    """Weights alpha so that sum_l alpha_l (w(y_l) - w(0)) estimates the
    coefficient of y^{2s} in the near-trace expansion of w."""
    powers = np.asarray(_fit_powers(s))
    L = len(powers)
    if ymesh.M < L + 1:
        raise ValueError(f"need at least {L + 1} layers, got {ymesh.M}")
    ys = ymesh.nodes[1:L + 1]
    A = ys[:, None] ** powers[None, :]
    col = np.abs(A).max(axis=0)
    alpha = np.linalg.pinv(A / col)[0] / col[0]
    return alpha, L


def dtn(w: ExtensionField, *, lam1: float) -> np.ndarray:
    """Dirichlet-to-Neumann value of the extension at every grid node.

    Fits the first layers against the near-trace powers of y, then
    calibrates the single remaining constant on the first eigenmode so
    that dtn(extend(phi_1)) = lambda_1^s phi_1 holds exactly on the grid;
    ``lam1`` is that mode's eigenvalue (``basis.eigenvalues[0]``).
    Returns a full-grid array approximating the fractional operator
    applied to the trace.
    """
    alpha, L = _boundary_fit_weights(w.ymesh, w.s)
    delta = w.values[..., 1:L + 1] - w.values[..., :1]
    b = np.tensordot(delta, alpha, axes=([-1], [0]))
    ref = mode_profile(w.s, np.sqrt(lam1) * w.ymesh.nodes[1:L + 1]) - 1.0
    b_ref = float(alpha @ ref)
    if not b_ref < 0:
        raise ValueError("calibration failed: reference profile fit is not negative")
    return (lam1**w.s / b_ref) * b


# -- diagnostics -----------------------------------------------------------------


@dataclass(frozen=True)
class UySignReport:
    """Signs of the one-sided y-derivatives of an extension field."""

    max_derivative: float
    n_violations: int
    worst_location: tuple
    passed: bool


def check_uy_sign(w: ExtensionField, *, tol: float = 1e-8) -> UySignReport:
    """Check that w is nonincreasing in y at every node (up to tol).

    The derivative is measured by one-sided differences between adjacent
    layers; positive values beyond ``tol`` (relative to the field scale)
    are violations.
    """
    vals = w.values
    ys = w.ymesh.nodes
    dy = ys[1:] - ys[:-1]
    bound = tol * max(vals.max(), -vals.min(), 1.0)
    top, worst, count = -np.inf, None, 0
    # one block of layers at a time, so no slab-sized temporary is formed
    for start in range(0, w.ymesh.M, _LAYER_BLOCK):
        stop = min(start + _LAYER_BLOCK, w.ymesh.M)
        grad = (vals[..., start + 1:stop + 1] - vals[..., start:stop]) / dy[start:stop]
        count += int(np.count_nonzero(grad > bound))
        k = np.unravel_index(int(np.argmax(grad)), grad.shape)
        g = float(grad[k])
        at = tuple(int(i) for i in k[:-1]) + (int(k[-1]) + start,)
        # ties go to the first node in row-major order (layer fastest), as
        # one argmax over the whole slab would take it
        if g > top or (g == top and at < worst):
            top, worst = g, at
    return UySignReport(max_derivative=top, n_violations=count,
                        worst_location=worst, passed=count == 0)


def _cell_moments(ys: np.ndarray, a: float):
    """Exact integrals of y^a {1, t, t^2} over each y-cell, t the local coordinate."""
    y0, y1 = ys[:-1], ys[1:]
    d = y1 - y0
    m0 = (y1 ** (a + 1) - y0 ** (a + 1)) / (a + 1)
    m1 = (y1 ** (a + 2) - y0 ** (a + 2)) / (a + 2)
    m2 = (y1 ** (a + 3) - y0 ** (a + 3)) / (a + 3)
    i0 = m0
    i1 = (m1 - y0 * m0) / d
    i2 = (m2 - 2 * y0 * m1 + y0**2 * m0) / d**2
    return i0, i1, i2


# cells weighted_energy evaluates at a time (2 MB per temporary)
_ENERGY_CELLS = 1 << 18


def _gauss_energy(vals: np.ndarray, node: tuple, h: float, moments, dy) -> np.ndarray:
    """|grad w|^2 y^a of the interpolant at one thin Gauss node of every
    cell of the node array ``vals``, integrated exactly in y per layer."""
    i0, i1, i2 = moments
    # cell-corner views of the field, first thin axis varying fastest
    corners = {}
    for bits in itertools.product((0, 1), repeat=len(node)):
        bits = bits[::-1]
        corners[bits] = vals[tuple(slice(b, n - 1 + b)
                                   for b, n in zip(bits, vals.shape))]

    def weight(bits, skip=None):
        return math.prod(node[k] if b else 1 - node[k]
                         for k, b in enumerate(bits) if k != skip)

    e = 0.0
    for k in range(len(node)):
        slope = sum(weight(bits, k) * (corners[bits[:k] + (1,) + bits[k + 1:]] - c)
                    for bits, c in corners.items() if not bits[k]) / h
        bot, top = slope[..., :-1], slope[..., 1:]
        e = e + (bot**2 * i0 + 2 * bot * (top - bot) * i1 + (top - bot) ** 2 * i2)
    jy = sum(weight(bits) * (c[..., 1:] - c[..., :-1]) for bits, c in corners.items())
    return e + (jy / dy) ** 2 * i0


def weighted_energy(w: ExtensionField) -> float:
    """int y^a |grad w|^2 over the slab, for the multilinear interpolant.

    Not the energy E_h that ``extend_fd`` minimises: Steiner verdicts are
    taken on ``fd_energy``.

    The y-moments of the weight are integrated exactly per cell; the thin
    directions use the two-point Gauss rule on each axis, which is exact
    for the interpolant: at every Gauss node the slope along each thin
    axis (and the y-jump) is the corner difference interpolated over the
    other thin axes, linear in y across the cell.  The cell values of a
    Gauss node are formed a block of rows at a time, so the temporaries
    stay small, and summed over the whole slab at once.
    """
    vals = w.values
    ys = w.ymesh.nodes
    moments = _cell_moments(ys, w.a)
    h, dim = w.domain.h, w.domain.dim
    dy = ys[1:] - ys[:-1]
    e = np.empty(tuple(n - 1 for n in vals.shape[:-1]) + dy.shape)
    rows = max(1, _ENERGY_CELLS // e[0].size)
    g = 0.5 - 0.5 / np.sqrt(3.0)
    total = 0.0
    for node in itertools.product((g, 1.0 - g), repeat=dim):
        for start in range(0, len(e), rows):
            e[start:start + rows] = _gauss_energy(vals[start:start + rows + 1],
                                                  node, h, moments, dy)
        total += h**dim / 2**dim * float(e.sum())
    return total
