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
the thin grid too.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import roots_jacobi

__all__ = ["HalfBallQuadrature", "interp_values", "interp_gradient"]


def _locate(ax: np.ndarray, q):
    """Cell of each coordinate on one grid axis: (index, local coordinate
    t in [0, 1], cell width), with the coordinate clipped onto the axis."""
    q = np.clip(q, ax[0], ax[-1])
    i = np.clip(np.searchsorted(ax, q) - 1, 0, len(ax) - 2)
    width = ax[i + 1] - ax[i]
    return i, (q - ax[i]) / width, width


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
    cell come from the flat array, one gather per corner; the factors
    (1 - t, t) are formed once per axis and their products once per
    prefix.  Returns the values, or with ``gradient`` the partial
    derivatives along every axis from the same corner weights.
    """
    flat = np.ravel(values)
    strides = np.cumprod((values.shape[1:] + (1,))[::-1])[::-1]
    base = sum(i * stride for (i, _, _), stride in zip(cells, strides))
    factors = [(1 - t, t) for _, t, _ in cells]
    cube = list(itertools.product((0, 1), repeat=len(cells)))

    def corner(bits):
        return flat[base + np.dot(bits, strides)]

    if not gradient:
        # one corner at a time, so large point sets hold one gather at once
        return sum(corner(bits) * w for bits, w in zip(cube, _products(factors)))
    corners = {bits: corner(bits) for bits in cube}
    grads = []
    for k, (_, _, width) in enumerate(cells):
        low = [bits for bits in cube if not bits[k]]
        weights = _products(factors[:k] + factors[k + 1:])
        grads.append(sum((corners[bits[:k] + (1,) + bits[k + 1:]] - corners[bits]) * w
                         for bits, w in zip(low, weights)) / width)
    return grads


def _multilinear(values: np.ndarray, axes, coords, *, gradient: bool = False):
    """Multilinear interpolant of a tensor-grid array at a set of points.

    ``coords`` holds one coordinate array per entry of ``axes``.  The
    arrays broadcast against each other and each is located on its own
    shape, so a coordinate that does not vary along some dimension of a
    structured point set is located once there.  The result is the same,
    bit for bit, as for the broadcast points listed one by one.
    """
    return _combine(values, [_locate(ax, q) for ax, q in zip(axes, coords)],
                    gradient=gradient)


def interp_values(field, thin_pts: np.ndarray, y_pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of an extension field at the points
    (thin_pts[..., :], y_pts), clipped onto the slab.  The thin points
    (shape (..., dim)) and the heights broadcast against each other, e.g.
    (N, dim) with (N,), or (N, 1, dim) with (L,) for every height at every
    thin point."""
    return _multilinear(field.values, (*field.domain.axes, field.ymesh.nodes),
                        (*np.moveaxis(thin_pts, -1, 0), y_pts))


def interp_gradient(field, thin_pts: np.ndarray, y_pts: np.ndarray):
    """Gradient of the multilinear interpolant at the points of
    ``interp_values``; returns [thin grads..., g_y]."""
    return _multilinear(field.values, (*field.domain.axes, field.ymesh.nodes),
                        (*np.moveaxis(thin_pts, -1, 0), y_pts), gradient=True)


# angular nodes of the 1-D half-circle rule (half as many polar nodes in
# 2-D) and azimuthal nodes of the 2-D half-sphere and thin ring
_N_ANGULAR = 48
_N_PHI = 64


# radii per interpolation call of the half-sphere profiles: large enough
# to spread the Python overhead, small enough (about 12K points in 2-D)
# that a block's temporaries stay in cache
_RADII_BLOCK = 8


class HalfBallQuadrature:
    """Quadrature engine for half-balls centred at ``center`` on the thin space.

    The engine precomputes angular profiles of the gradient energy and
    the thin-trace integrands on a fine radial grid up to ``rmax``,
    then answers cumulative volume integrals and surface integrals at
    arbitrary radii in (0, rmax].
    """

    def __init__(self, field, center, rmax: float):
        self.field = field
        self.a = field.a
        dom = field.domain
        self.thin_dim = dom.dim
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        if self.center.shape != (dom.dim,):
            raise ValueError(f"center must have {dom.dim} coordinates")
        rmax = float(rmax)
        dist = min(dom.distance_to_boundary(self.center), field.ymesh.Y)
        if rmax <= 0:
            raise ValueError("rmax must be positive")
        if rmax > dist * (1 + 1e-9):
            raise ValueError(
                f"half-ball of radius {rmax} around {tuple(self.center)} is clipped "
                f"by the box (available distance {dist})"
            )
        self.rmax = rmax
        h = dom.h
        a = self.a

        # angular rule: nodes on the upper unit half-sphere plus weights
        # that absorb the y^a factor exactly
        if dom.dim == 1:
            # t = cos(theta) in (-1, 1), weight (1 - t^2)^{(a-1)/2}
            # (each node its own polar node with a single azimuth)
            t, wt = roots_jacobi(_N_ANGULAR, (a - 1) / 2, (a - 1) / 2)
            self._unit_thin = t.reshape(-1, 1, 1)
            self._unit_y = np.sqrt(np.maximum(1 - t**2, 0.0)).reshape(-1, 1)
            self._ang_w = wt
            # the unit sphere of the thin line: two points of weight 1
            ring, w_ring = np.array([[-1.0], [1.0]]), 1.0
        else:
            # tau = cos(polar angle from thin plane) in (0, 1), weight tau^a;
            # the azimuth phi is periodic and integrated by the trapezoid rule
            xi, wxi = roots_jacobi(_N_ANGULAR // 2, 0.0, a)
            tau = (1 + xi) / 2
            wtau = wxi / 2 ** (1 + a)
            phi = 2 * np.pi * np.arange(_N_PHI) / _N_PHI
            wphi = np.full(_N_PHI, 2 * np.pi / _N_PHI)
            TT, PP = np.meshgrid(tau, phi, indexing="ij")
            WW = np.outer(wtau, wphi)
            sin_pol = np.sqrt(np.maximum(1 - TT**2, 0.0))
            self._unit_thin = np.stack([sin_pol * np.cos(PP), sin_pol * np.sin(PP)],
                                       axis=-1)
            self._unit_y = TT[:, :1]
            self._ang_w = WW.ravel()
            ring = np.column_stack([np.cos(phi), np.sin(phi)])
            w_ring = wphi[0]

        n_radial = int(max(192, min(1536, np.ceil(8 * rmax / h))))
        self._rho = np.linspace(0.0, rmax, n_radial + 1)[1:]

        # angular profiles on the radial grid, one block of radii at a time
        gD, sq, pos = (np.empty(n_radial) for _ in range(3))
        trace = field.values[..., 0]
        for k in range(0, n_radial, _RADII_BLOCK):
            rho = self._rho[k:k + _RADII_BLOCK]
            block = slice(k, k + len(rho))
            grads = interp_gradient(field, *self._sphere(rho))
            gD[block] = np.sum(self._ang_w * sum(g**2 for g in grads).reshape(len(rho), -1),
                               axis=1)
            # thin-ball profiles: the squared trace on the thin sphere of
            # radius rho (no y^a weight; the trace lives at y = 0)
            ring_pts = self.center + rho[:, None, None] * ring
            vals = _multilinear(trace, dom.axes, np.moveaxis(ring_pts, -1, 0))
            sq[block] = w_ring * np.sum(vals**2, axis=1)
            pos[block] = w_ring * np.sum(np.maximum(vals, 0.0) ** 2, axis=1)
        self._cum_energy = self._cumulative(gD, dom.dim + a)
        self._cum_thin_sq = self._cumulative(sq, dom.dim - 1.0)
        self._cum_thin_pos = self._cumulative(pos, dom.dim - 1.0)

    def _sphere(self, radii):
        """The half-sphere nodes at the given radii: thin points shaped
        (radius, polar node, azimuth, dim) and heights shaped (radius,
        polar node, 1).  A height r * tau does not depend on the azimuth,
        so the interpolant locates it once per polar node."""
        r = np.asarray(radii, dtype=float)[:, None, None]
        return self.center + r[..., None] * self._unit_thin, r * self._unit_y

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

    def boundary_norm(self, r: float) -> float:
        """H(r) = int_{(dB_r)^+} y^a w^2."""
        return float(self.boundary_norms([r])[0])

    def boundary_norms(self, radii) -> np.ndarray:
        """H(r) at every radius of a ladder, from one interpolation call."""
        radii = np.asarray(radii, dtype=float)
        vals = interp_values(self.field, *self._sphere(radii)).reshape(len(radii), -1)
        p = self.thin_dim + self.a
        return np.array([float(r ** p * np.sum(self._ang_w * v**2))
                         for r, v in zip(radii, vals)])

    def thin_mass(self, r: float, *, positive: bool = False) -> float:
        """int_{B'_r} w(.,0)^2, or the positive part's square if requested."""
        cum = self._cum_thin_pos if positive else self._cum_thin_sq
        return self._eval_cumulative(cum, r)
