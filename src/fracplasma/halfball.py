"""Weighted quadrature over half-balls in the extension space.

All free-boundary quantities are integrals of the form

    int_{B_r^+} y^a F          int_{(dB_r)^+} y^a F          int_{B'_r} F

over the upper half-ball, half-sphere, and thin ball centred at a point
of the thin space.  The weight y^a is degenerate or singular at y = 0,
so naive sampling is not an option.  Angular integrals absorb the
weight into a Gauss-Jacobi rule (exact for the weight times
polynomials); radial integrals accumulate a sampled angular profile
against exact moments of rho^p on each radial segment.  Field values
and gradients come from one multilinear interpolant on the tensor grid,
written once for any number of axes; the free-boundary module uses it on
the thin grid too.  ``room`` and ``check_radii`` state the one rule for
the radius of a half-ball that every caller obeys.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.special import roots_jacobi

__all__ = ["HalfBallQuadrature", "MIN_CELLS", "boundary_norms", "check_radii",
           "interp_values", "room"]


# a half-ball radius is admissible from MIN_CELLS grid cells (fewer nodes
# mean nothing) up to the room, each bound with a relative slack of _SLACK
MIN_CELLS = 5
_SLACK = 1e-9


def room(domain, center, Y: float = np.inf) -> float:
    """Largest admissible half-ball radius about a thin point: its distance
    to the thin boundary, capped at the slab height Y (if one is given)."""
    return min(domain.distance_to_boundary(center), Y)


def _check_room(r: float, domain, center, Y: float, what: str) -> None:
    top = room(domain, center, Y)
    if r > top * (1 + _SLACK):
        where = "domain" if Y == np.inf else "slab"
        raise ValueError(f"{what} of radius {r:.4g} leaves the {where} "
                         f"(room {top:.4g})")


def check_radii(domain, center, radii, Y: float = np.inf, *,
                what: str = "half-ball") -> None:
    """Refuse radii about a thin point that break the radius rule: the
    smallest below MIN_CELLS cells or the largest beyond ``room``.
    ``what`` names the ball in the message."""
    radii = np.asarray(radii, dtype=float)
    floor = MIN_CELLS * domain.h
    if radii.min() < floor * (1 - _SLACK):
        raise ValueError(f"{what} of radius {radii.min():.4g} is below five "
                         f"grid cells ({floor:.4g})")
    _check_room(radii.max(), domain, center, Y, what)


class _Axis:
    """One grid axis prepared for ``_locate``: ``diff[i]`` is the width
    ``nodes[i + 1] - nodes[i]`` of cell i; ``scale`` is the inverse mean
    spacing when every node lies within a quarter step of its equally
    spaced position (every thin axis, a ``linspace``), else None (the
    graded y-mesh)."""

    def __init__(self, nodes):
        self.nodes = nodes = np.asarray(nodes, dtype=float)
        n = len(nodes)
        self.diff = np.diff(nodes)
        step = (nodes[-1] - nodes[0]) / (n - 1)
        even = nodes[0] + step * np.arange(n)
        self.scale = 1 / step if np.abs(nodes - even).max() <= step / 4 else None
        # for a guess i in [0, n - 1]: the node that must lie below q for
        # cell i (none for cell 0) and the node that must not
        self.below = np.concatenate([[-np.inf], nodes[1:]])
        self.above = np.concatenate([nodes[1:], [np.inf]])


def _locate(axis: _Axis, q):
    """Cell of each coordinate on one grid axis: (index, local coordinate
    t in [0, 1], cell width), with the coordinate clipped onto the axis.

    The cell is ``clip(searchsorted(nodes, q) - 1, 0, n - 2)``, i.e. the
    number of interior nodes strictly below q, so a coordinate on a node
    belongs to the cell below it.  On an equally spaced axis the spacing
    gives a guess that is off by at most one cell (nodes lie within a
    quarter step of their positions), and one comparison with each
    bounding node corrects it; other axes are searched.  Coordinates must
    not be NaN (the guess has no cell for them).
    """
    nodes = axis.nodes
    q = np.clip(q, nodes[0], nodes[-1])
    if axis.scale is None:
        i = np.clip(np.searchsorted(nodes, q) - 1, 0, len(nodes) - 2)
    else:
        # q - nodes[0] >= 0, so the integer cast is the floor
        i = ((q - nodes[0]) * axis.scale).astype(np.intp)
        i -= axis.below[i] >= q
        i += axis.above[i] < q
    width = axis.diff[i]
    return i, (q - nodes[i]) / width, width


def _products(factors, prefix=None):
    """Left-to-right products of one factor per axis, for every choice in
    lexicographic order (the last axis fastest); a partial product is
    formed once and reused by every choice that shares it."""
    if not factors:
        yield 1 if prefix is None else prefix
        return
    for f in factors[0]:
        yield from _products(factors[1:], f if prefix is None else prefix * f)


def _combine(values: np.ndarray, cells, *, gradient: bool = False):
    """Multilinear interpolant of a tensor-grid array from located cells.

    ``cells`` holds one ``_locate`` result per axis of ``values``, their
    arrays broadcasting against each other.  The 2^d corner values of each
    cell are gathered from the flat array through one reused index
    buffer; the factors (1 - t, t) are formed once per axis and their
    products once per prefix.  Returns the values, or with ``gradient``
    the partial derivatives along every axis from the same corner
    weights.  Each sum runs in place from zero, term by term in corner
    order, as ``sum`` over the corners would.
    """
    flat = np.ravel(values)
    strides = np.cumprod((values.shape[1:] + (1,))[::-1])[::-1]
    base = np.asarray(sum(i * stride for (i, _, _), stride in zip(cells, strides)))
    factors = [(1 - t, t) for _, t, _ in cells]
    d = len(cells)
    offsets = [int(np.dot(bits, strides))
               for bits in itertools.product((0, 1), repeat=d)]
    index, term = np.empty_like(base), np.empty(base.shape)

    def corner(offset, out):
        np.add(base, offset, out=index)
        return flat.take(index, out=out, mode="clip")

    if not gradient:
        # one corner at a time, so large point sets hold one gather at once
        total = np.zeros(base.shape)
        for offset, w in zip(offsets, _products(factors)):
            total += np.multiply(corner(offset, term), w, out=term)
        return total[()]
    corners = np.empty((len(offsets),) + base.shape)
    for c, offset in enumerate(offsets):
        corner(offset, corners[c, ...])
    grads = []
    for k, (_, _, width) in enumerate(cells):
        flip = 1 << (d - 1 - k)          # corner index of the bit of axis k
        low = [c for c in range(len(offsets)) if not c & flip]
        total = np.zeros(base.shape)
        for c, w in zip(low, _products(factors[:k] + factors[k + 1:])):
            diff = np.subtract(corners[c + flip], corners[c], out=term)
            total += np.multiply(diff, w, out=diff)
        total /= width
        grads.append(total[()])
    return grads


def _multilinear(values: np.ndarray, axes, coords):
    """Multilinear interpolant of a tensor-grid array at a set of points.

    ``coords`` holds one coordinate array per entry of ``axes``.  The
    arrays broadcast against each other and each is located on its own
    shape, so a coordinate that does not vary along some dimension of a
    structured point set is located once there.  The result is the same,
    bit for bit, as for the broadcast points listed one by one.
    """
    return _combine(values, [_locate(_Axis(ax), q) for ax, q in zip(axes, coords)])


def interp_values(field, thin_pts: np.ndarray, y_pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of an extension field at the points
    (thin_pts[..., :], y_pts), clipped onto the slab.  The thin points
    (shape (..., dim)) and the heights broadcast against each other, e.g.
    (N, dim) with (N,), or (N, 1, dim) with (L,) for every height at every
    thin point.  No coordinate may be NaN."""
    return _multilinear(field.values, (*field.domain.axes, field.ymesh.nodes),
                        (*np.moveaxis(thin_pts, -1, 0), y_pts))


# angular nodes of the 1-D half-circle rule (half as many polar nodes in
# 2-D) and azimuthal nodes of the 2-D half-sphere and thin ring
_N_ANGULAR = 48
_N_PHI = 64


# radii per interpolation call of the half-sphere profiles: large enough
# to spread the Python overhead, small enough (about 12K points in 2-D)
# that a block's temporaries stay in cache
_RADII_BLOCK = 8


@functools.cache
def _angular_rule(a: float, dim: int):
    """Nodes and weights on the upper unit half-sphere around a thin point.

    Returns read-only (unit thin offsets, one array per thin axis shaped
    (polar node, azimuth); unit heights shaped (polar node, 1); weights,
    one per node in row-major order, absorbing the y^a factor exactly;
    the thin unit sphere, one array per axis; its weight).
    """
    if dim == 1:
        # t = cos(theta) in (-1, 1), weight (1 - t^2)^{(a-1)/2}
        # (each node its own polar node with a single azimuth)
        t, wt = roots_jacobi(_N_ANGULAR, (a - 1) / 2, (a - 1) / 2)
        # the unit sphere of the thin line: two points of weight 1
        rule = ((t.reshape(-1, 1),), np.sqrt(np.maximum(1 - t**2, 0.0)).reshape(-1, 1),
                wt, (np.array([-1.0, 1.0]),), 1.0)
    else:
        # tau = cos(polar angle from thin plane) in (0, 1), weight tau^a;
        # the azimuth phi is periodic and integrated by the trapezoid rule
        xi, wxi = roots_jacobi(_N_ANGULAR // 2, 0.0, a)
        tau = (1 + xi) / 2
        wtau = wxi / 2 ** (1 + a)
        phi = 2 * np.pi * np.arange(_N_PHI) / _N_PHI
        wphi = np.full(_N_PHI, 2 * np.pi / _N_PHI)
        TT, PP = np.meshgrid(tau, phi, indexing="ij")
        sin_pol = np.sqrt(np.maximum(1 - TT**2, 0.0))
        rule = ((sin_pol * np.cos(PP), sin_pol * np.sin(PP)), TT[:, :1],
                np.outer(wtau, wphi).ravel(), (np.cos(phi), np.sin(phi)), wphi[0])
    for arr in (*rule[0], rule[1], rule[2], *rule[3]):
        arr.flags.writeable = False
    return rule


def _sphere(center, unit_thin, unit_y, radii):
    """The half-sphere nodes at the given radii: one contiguous thin
    coordinate array per axis shaped (radius, polar node, azimuth), and
    heights shaped (radius, polar node, 1).  A height r * tau does not
    depend on the azimuth, so the interpolant locates it once per polar
    node."""
    r = np.asarray(radii, dtype=float)[:, None, None]
    return [c + r * u for c, u in zip(center, unit_thin)], r * unit_y


def boundary_norms(field, center, radii) -> np.ndarray:
    """H(r) = int_{(dB_r)^+} y^a w^2 on the half-spheres of the given radii
    around a thin point, from one interpolation call.  Only the sphere
    nodes are evaluated, so a single H needs none of the profiles of
    ``HalfBallQuadrature``."""
    dom = field.domain
    center = np.atleast_1d(np.asarray(center, dtype=float))
    radii = np.asarray(radii, dtype=float)
    unit_thin, unit_y, ang_w, _, _ = _angular_rule(field.a, dom.dim)
    thin, heights = _sphere(center, unit_thin, unit_y, radii)
    vals = _multilinear(field.values, (*dom.axes, field.ymesh.nodes),
                        (*thin, heights)).reshape(len(radii), -1)
    p = dom.dim + field.a
    return np.array([float(r ** p * np.sum(ang_w * v**2)) for r, v in zip(radii, vals)])


class HalfBallQuadrature:
    """Quadrature engine for half-balls centred at ``center`` on the thin space.

    The engine precomputes angular profiles of the gradient energy and
    the thin-trace integrand on a fine radial grid up to ``rmax``, then
    answers the cumulative integrals D(r) and T(r) at arbitrary radii in
    (0, rmax].  H(r) needs no profile: ``boundary_norms`` gives it.
    """

    def __init__(self, field, center, rmax: float):
        a = field.a
        dom = field.domain
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        if self.center.shape != (dom.dim,):
            raise ValueError(f"center must have {dom.dim} coordinates")
        rmax = float(rmax)
        if rmax <= 0:
            raise ValueError("rmax must be positive")
        # the room half of the radius rule only: a caller may profile a
        # half-ball narrower than MIN_CELLS cells
        _check_room(rmax, dom, self.center, field.ymesh.Y, "half-ball")
        unit_thin, unit_y, ang_w, ring, w_ring = _angular_rule(a, dom.dim)

        n_radial = int(max(192, min(1536, np.ceil(8 * rmax / dom.h))))
        self._rho = np.linspace(0.0, rmax, n_radial + 1)[1:]

        # angular profile of the gradient energy, one block of radii at a time
        gD = np.empty(n_radial)
        axes = [_Axis(ax) for ax in (*dom.axes, field.ymesh.nodes)]
        for k in range(0, n_radial, _RADII_BLOCK):
            rho = self._rho[k:k + _RADII_BLOCK]
            thin, heights = _sphere(self.center, unit_thin, unit_y, rho)
            grads = _combine(field.values, [_locate(axis, q) for axis, q
                                            in zip(axes, (*thin, heights))],
                             gradient=True)
            square = np.multiply(grads[0], grads[0], out=grads[0])
            for g in grads[1:]:
                square += np.multiply(g, g, out=g)
            gD[k:k + len(rho)] = np.sum(ang_w * square.reshape(len(rho), -1), axis=1)
        # thin-ball profile at every radius at once: the squared positive part
        # of the trace on the thin sphere of radius rho (no y^a weight; the
        # trace lives at y = 0)
        vals = _combine(field.values[..., 0],
                        [_locate(axis, c + self._rho[:, None] * u)
                         for axis, c, u in zip(axes, self.center, ring)])
        pos = w_ring * np.sum(np.maximum(vals, 0.0) ** 2, axis=1)
        self._cum_energy = self._cumulative(gD, dom.dim + a)
        self._cum_thin_pos = self._cumulative(pos, dom.dim - 1.0)

    # -- radial accumulation ------------------------------------------------

    def _cumulative(self, g: np.ndarray, power: float):
        """Cumulative integral of rho^power * g(rho) with g piecewise linear.

        Returns (edges, cumulative values at the edges); the weight
        rho^power is integrated exactly on every segment, which matters
        near rho = 0 where the power may be small.
        """
        edges = np.concatenate([[0.0], self._rho])
        gext = np.concatenate([[g[0]], g])  # constant extension into [0, rho_1]
        r0, r1 = edges[:-1], edges[1:]
        p1 = (r1 ** (power + 1) - r0 ** (power + 1)) / (power + 1)
        p2 = (r1 ** (power + 2) - r0 ** (power + 2)) / (power + 2)
        slope = (gext[1:] - gext[:-1]) / (r1 - r0)
        seg = gext[:-1] * p1 + slope * (p2 - r0 * p1)
        return edges, np.concatenate([[0.0], np.cumsum(seg)])

    def _eval_cumulative(self, cum, r: float) -> float:
        edges, vals = cum
        if r <= 0:
            return 0.0
        r = min(r, edges[-1])
        return float(np.interp(r, edges, vals))

    # -- public integrals ----------------------------------------------------

    def energy(self, r: float) -> float:
        """D(r) = int_{B_r^+} y^a |grad w|^2."""
        return self._eval_cumulative(self._cum_energy, r)

    def thin_mass(self, r: float) -> float:
        """T(r) = int_{B'_r} (w(.,0))_+^2."""
        return self._eval_cumulative(self._cum_thin_pos, r)
