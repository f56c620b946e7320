"""Weighted quadrature over half-balls in the extension space.

All free-boundary quantities are integrals of the form

    int_{B_r^+} y^a F          int_{(dB_r)^+} y^a F          int_{B'_r} F

over the upper half-ball, half-sphere, and thin ball centred at a point
of the thin space.  The weight y^a is degenerate or singular at y = 0,
so naive sampling is not an option.  Angular integrals absorb the
weight into a Gauss-Jacobi rule (exact for the weight times
polynomials); radial integrals accumulate a sampled angular profile
against exact moments of rho^p on each radial segment.  Field values
and gradients come from multilinear interpolation on the tensor grid.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_jacobi

__all__ = ["HalfBallQuadrature", "interp_values", "interp_gradient"]


def _locate(ax: np.ndarray, q: np.ndarray):
    q = np.clip(q, ax[0], ax[-1])
    i = np.clip(np.searchsorted(ax, q) - 1, 0, len(ax) - 2)
    t = (q - ax[i]) / (ax[i + 1] - ax[i])
    return i, t


def interp_values(field, thin_pts: np.ndarray, y_pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of an extension field at scattered points."""
    W = field.values
    axes = field.domain.axes
    ys = field.ymesh.nodes
    j, ty = _locate(ys, np.asarray(y_pts, dtype=float))
    if field.domain.dim == 1:
        i, tx = _locate(axes[0], np.asarray(thin_pts, dtype=float).reshape(-1))
        return (
            W[i, j] * (1 - tx) * (1 - ty)
            + W[i + 1, j] * tx * (1 - ty)
            + W[i, j + 1] * (1 - tx) * ty
            + W[i + 1, j + 1] * tx * ty
        )
    pts = np.asarray(thin_pts, dtype=float)
    i1, t1 = _locate(axes[0], pts[:, 0])
    i2, t2 = _locate(axes[1], pts[:, 1])
    out = np.zeros(len(pts))
    for d1, f1 in ((0, 1 - t1), (1, t1)):
        for d2, f2 in ((0, 1 - t2), (1, t2)):
            for dj, fj in ((0, 1 - ty), (1, ty)):
                out += W[i1 + d1, i2 + d2, j + dj] * f1 * f2 * fj
    return out


def interp_gradient(field, thin_pts: np.ndarray, y_pts: np.ndarray):
    """Gradient of the multilinear interpolant; returns (thin grads..., g_y)."""
    W = field.values
    axes = field.domain.axes
    ys = field.ymesh.nodes
    j, ty = _locate(ys, np.asarray(y_pts, dtype=float))
    dyj = ys[j + 1] - ys[j]
    if field.domain.dim == 1:
        h = axes[0][1] - axes[0][0]
        i, tx = _locate(axes[0], np.asarray(thin_pts, dtype=float).reshape(-1))
        gx = ((W[i + 1, j] - W[i, j]) * (1 - ty) + (W[i + 1, j + 1] - W[i, j + 1]) * ty) / h
        gy = ((W[i, j + 1] - W[i, j]) * (1 - tx) + (W[i + 1, j + 1] - W[i + 1, j]) * tx) / dyj
        return gx, gy
    h = axes[0][1] - axes[0][0]
    pts = np.asarray(thin_pts, dtype=float)
    i1, t1 = _locate(axes[0], pts[:, 0])
    i2, t2 = _locate(axes[1], pts[:, 1])
    g1 = np.zeros(len(pts))
    g2 = np.zeros(len(pts))
    gy = np.zeros(len(pts))
    for d2, f2 in ((0, 1 - t2), (1, t2)):
        for dj, fj in ((0, 1 - ty), (1, ty)):
            g1 += (W[i1 + 1, i2 + d2, j + dj] - W[i1, i2 + d2, j + dj]) * f2 * fj / h
    for d1, f1 in ((0, 1 - t1), (1, t1)):
        for dj, fj in ((0, 1 - ty), (1, ty)):
            g2 += (W[i1 + d1, i2 + 1, j + dj] - W[i1 + d1, i2, j + dj]) * f1 * fj / h
    for d1, f1 in ((0, 1 - t1), (1, t1)):
        for d2, f2 in ((0, 1 - t2), (1, t2)):
            gy += (W[i1 + d1, i2 + d2, j + 1] - W[i1 + d1, i2 + d2, j]) * f1 * f2 / dyj
    return g1, g2, gy


def _chunks(n: int, size: int = 32):
    """Slices covering range(n) in blocks of ``size``; radial profiles are
    evaluated one block of radii per interpolation call, which bounds the
    temporary arrays while removing the per-radius Python overhead."""
    return [slice(k, min(k + size, n)) for k in range(0, n, size)]


class HalfBallQuadrature:
    """Quadrature engine for half-balls centred at ``center`` on the thin space.

    The engine precomputes angular profiles of the gradient energy and
    the thin-trace integrands on a fine radial grid up to ``rmax``,
    then answers cumulative volume integrals and surface integrals at
    arbitrary radii in (0, rmax].
    """

    def __init__(self, field, center, rmax: float, *, n_angular: int = 48,
                 n_phi: int = 64, n_radial: int = None):
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
            t, wt = roots_jacobi(n_angular, (a - 1) / 2, (a - 1) / 2)
            self._unit_thin = t.reshape(-1, 1)
            self._unit_y = np.sqrt(np.maximum(1 - t**2, 0.0))
            self._ang_w = wt
        else:
            # tau = cos(polar angle from thin plane) in (0, 1), weight tau^a;
            # the azimuth phi is periodic and integrated by the trapezoid rule
            xi, wxi = roots_jacobi(max(8, n_angular // 2), 0.0, a)
            tau = (1 + xi) / 2
            wtau = wxi / 2 ** (1 + a)
            phi = 2 * np.pi * np.arange(n_phi) / n_phi
            wphi = np.full(n_phi, 2 * np.pi / n_phi)
            TT, PP = np.meshgrid(tau, phi, indexing="ij")
            WW = np.outer(wtau, wphi)
            sin_pol = np.sqrt(np.maximum(1 - TT**2, 0.0))
            self._unit_thin = np.column_stack(
                [(sin_pol * np.cos(PP)).ravel(), (sin_pol * np.sin(PP)).ravel()]
            )
            self._unit_y = TT.ravel()
            self._ang_w = WW.ravel()

        if n_radial is None:
            n_radial = int(max(192, min(1536, np.ceil(8 * rmax / h))))
        self._rho = np.linspace(0.0, rmax, n_radial + 1)[1:]

        # angular profiles on the radial grid
        gD = np.empty(n_radial)
        for sl in _chunks(n_radial):
            r = self._rho[sl, None]
            grads = interp_gradient(
                field,
                (self.center + r[..., None] * self._unit_thin).reshape(-1, dom.dim),
                (r * self._unit_y).ravel(),
            )
            sq = sum(g**2 for g in grads).reshape(len(r), -1)
            gD[sl] = np.sum(self._ang_w * sq, axis=1)
        self._cum_energy = self._cumulative(gD, dom.dim + a)

        # thin-ball profiles (no y^a weight; the trace lives at y = 0)
        trace = field.values[..., 0]
        if dom.dim == 1:
            xs = dom.axes[0]
            def thin_line(f):
                return (np.interp(self.center[0] - self._rho, xs, f)
                        + np.interp(self.center[0] + self._rho, xs, f))
            self._cum_thin_sq = self._cumulative(thin_line(trace**2), 0.0)
            self._cum_thin_pos = self._cumulative(
                thin_line(np.maximum(trace, 0.0) ** 2), 0.0
            )
        else:
            phi = 2 * np.pi * np.arange(max(64, n_phi)) / max(64, n_phi)
            ring = np.column_stack([np.cos(phi), np.sin(phi)])
            wring = 2 * np.pi / len(phi)
            def ring_profile(transform):
                out = np.empty(n_radial)
                for sl in _chunks(n_radial):
                    r = self._rho[sl, None, None]
                    pts = (self.center + r * ring).reshape(-1, 2)
                    vals = interp_values(self.field, pts, np.zeros(len(pts)))
                    sq = transform(vals).reshape(len(r), -1) ** 2
                    out[sl] = wring * np.sum(sq, axis=1)
                return out
            self._cum_thin_sq = self._cumulative(ring_profile(lambda v: v), 1.0)
            self._cum_thin_pos = self._cumulative(
                ring_profile(lambda v: np.maximum(v, 0.0)), 1.0
            )

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
        vals = interp_values(
            self.field, self.center + r * self._unit_thin, r * self._unit_y
        )
        return float(r ** (self.thin_dim + self.a) * np.sum(self._ang_w * vals**2))

    def thin_mass(self, r: float, *, positive: bool = False) -> float:
        """int_{B'_r} w(.,0)^2, or the positive part's square if requested."""
        cum = self._cum_thin_pos if positive else self._cum_thin_sq
        return self._eval_cumulative(cum, r)
