"""Free-boundary geometry, frequency monitoring, and blow-up classification.

Works on extension fields w of the (shifted) solution u - gamma.  The
free boundary is the zero level set of the trace; its points are tagged
regular or singular by combining a gradient test with an Almgren-type
frequency

    N(r) = r D(r) / H(r),
    D(r) = int_{B_r^+} y^a |grad w|^2,
    H(r) = int_{(dB_r)^+} y^a w^2,

and its adjusted variant N~(r) = r (D(r) - lam_f int_{B'_r} (w)_+^2) / H(r),
where lam_f is the thin-flux coefficient (the eigenvalue scaled by the
extension flux constant, so that lim y^a dw/dy = -lam_f (w)_+ on the thin
space).  N~ equals r times the half-sphere flux integral over H and tends
to the same limit N(0+) as N, but its raw values can drift downward at
finite radii: differentiating with the Rellich identity gives

    d/dr log N~ = -(1-a) lam_f T(r) / (r F(r)) + (Cauchy-Schwarz gap),

with T the thin mass of (w)_+^2 and F = D - lam_f T, so only the corrected
functional  log N~(r) + (1-a) int (N - N~)/(rho N~) drho  is provably
nondecreasing.  Profiles expose both the raw values and the corrected
functional.  N(0+) = 1 marks regular points (blow-up a half-plane
profile), N(0+) = 2 marks singular candidates whose blow-up should match
a quadratic model p(x) - c y^2 with c >= 0.  Off-grid values (trace and
gradient at a centre, blow-up resampling) come from the multilinear
interpolant of ``halfball``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .domains import Domain, build_domain
from .extension import ExtensionField, YMesh, extension_energy_constant
from . import halfball

__all__ = [
    "FreeBoundary",
    "extract_free_boundary",
    "FrequencyProfile",
    "frequency_profile",
    "BlowupField",
    "blowup",
    "Classification",
    "classify_point",
    "InclusionReport",
    "check_boundary_inclusion",
    "StripReport",
    "check_subharmonic_strip",
    "Census",
    "census_reach",
    "singular_census",
]


# N(0+) within _BAND of 1 or 2 reads as regular or singular, a singular
# blow-up must fit the quadratic model to a relative residual below
# _FIT_TOL, and the subharmonic strip reaches _STRIP_CELLS cells out
_BAND = 0.15
_FIT_TOL = 0.05
_STRIP_CELLS = 2.0


# -- free-boundary extraction -------------------------------------------------


@dataclass(frozen=True)
class FreeBoundary:
    """Level set of the trace as arrays.

    One row per edge crossing in ``locations`` and ``gradients`` (n, dim),
    ``regular`` (n,) and ``owners`` (n, dim), the cell the crossing belongs
    to; ``cells`` (m, dim) lists the crossed cells in row-major order.
    """

    locations: np.ndarray
    gradients: np.ndarray
    regular: np.ndarray
    owners: np.ndarray
    cells: np.ndarray
    degenerate: bool = False


def _gradient_arrays(domain: Domain, values: np.ndarray):
    return [np.gradient(values, domain.h, axis=d) for d in range(domain.dim)]


def _second_differences(values: np.ndarray, h: float) -> list:
    """(u[i-1] + u[i+1] - 2 u[i]) / h^2 along each axis, one array per axis
    over the nodes off that axis's two end faces."""
    out = []
    for axis in range(values.ndim):
        lo, mid, hi = ([slice(None)] * values.ndim for _ in range(3))
        lo[axis], mid[axis], hi[axis] = slice(0, -2), slice(1, -1), slice(2, None)
        out.append((values[tuple(lo)] + values[tuple(hi)] - 2 * values[tuple(mid)])
                   / h**2)
    return out


def _gradient_floor(domain: Domain, values: np.ndarray) -> float:
    """Noise floor 10 h max|D^2 u| of a trace gradient (a larger one is
    resolved: its point is regular), D^2 the second differences / h^2."""
    worst = max(float(np.abs(d2).max()) for d2 in _second_differences(values, domain.h))
    return 10.0 * domain.h * worst


def _edge_ends(dim: int, axis: int):
    """Index tuples of the low and high node of every edge along ``axis``."""
    lo, hi = [slice(None)] * dim, [slice(None)] * dim
    lo[axis], hi[axis] = slice(0, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def _crossings(u: np.ndarray, level: float, strict: bool = False):
    """Per axis, (axis, low ends, high ends, crossing mask) of the grid edges
    along it.  An edge crosses when one end is at or above the level and
    the other below, or, with ``strict``, one end above and the other at
    or below."""
    above = u > level if strict else u >= level
    for axis in range(u.ndim):
        lo, hi = _edge_ends(u.ndim, axis)
        yield axis, lo, hi, above[lo] != above[hi]


def extract_free_boundary(domain: Domain, values: np.ndarray, level: float) -> FreeBoundary:
    """Locate the level set of a full-grid field on the grid edges.

    Every edge whose two nodes lie on opposite sides of the level (one
    at or above it, one below) carries one crossing point, placed by
    linear interpolation along the edge; its gradient is the nodal
    gradient interpolated the same way, and it is regular when that
    gradient clears the noise floor.  The crossed cells are the cells
    with a crossing on any of their edges.  A field that sits entirely at
    the level is flagged degenerate: the level set is area-filling, it
    has no crossing points and every cell is returned.
    """
    u = np.asarray(values, dtype=float)
    if u.shape != domain.grid_shape:
        raise ValueError("values must be a full-grid array")
    phi = u - level
    scale = max(float(np.abs(u).max()), abs(level), 1e-300)
    cell_shape = tuple(n - 1 for n in domain.grid_shape)
    if np.all(np.abs(phi) <= 1e-13 * scale):
        none = np.empty((0, domain.dim))
        return FreeBoundary(none, none, np.empty(0, dtype=bool),
                            none.astype(int), np.argwhere(np.ones(cell_shape)),
                            degenerate=True)
    grads = _gradient_arrays(domain, u)
    crossed = np.zeros(cell_shape, dtype=bool)
    rows = []
    for axis, lo, hi, edges in _crossings(u, level):
        p0, p1 = phi[lo][edges], phi[hi][edges]
        t = p0 / (p0 - p1)
        idx = np.argwhere(edges)
        loc = np.column_stack([ax[idx[:, d]] for d, ax in enumerate(domain.axes)])
        loc[:, axis] += t * domain.h
        grad = np.column_stack([g[lo][edges] * (1 - t) + g[hi][edges] * t
                                for g in grads])
        rows.append((loc, grad, np.minimum(idx, np.array(cell_shape) - 1)))
        # an edge along `axis` borders the cells on both sides of it along
        # every other axis
        for other in range(domain.dim):
            if other != axis:
                a, b = _edge_ends(domain.dim, other)
                edges = edges[a] | edges[b]
        crossed |= edges
    locations, gradients, owners = (np.concatenate(col) for col in zip(*rows))
    return FreeBoundary(
        locations=locations, gradients=gradients,
        regular=np.linalg.norm(gradients, axis=1) > _gradient_floor(domain, u),
        owners=owners, cells=np.argwhere(crossed))


# -- frequency profiles ----------------------------------------------------------


@dataclass(frozen=True)
class FrequencyProfile:
    """Frequency data over a ladder of radii around one centre."""

    center: tuple
    radii: np.ndarray
    energy: np.ndarray
    boundary: np.ndarray
    thin_mass: np.ndarray
    frequency: np.ndarray
    adjusted: np.ndarray
    corrected: np.ndarray
    lam: float
    lam_flux: float
    n_zero_plus: float
    sandwich_constant: float
    monotone_violations: list
    corrected_violations: list
    n_truncated: int
    note: str = ""


def frequency_profile(w: ExtensionField, center, radii, lam: float) -> FrequencyProfile:
    """Frequency N and adjusted frequency N~ along a radius ladder.

    ``lam`` is the eigenvalue of the thin equation; the adjusted frequency
    internally uses the thin-flux coefficient lam * d_s, because the
    half-sphere flux identity reads D - d_s lam T = int y^a w dw/dnu.

    Every radius must obey the half-ball radius rule of ``halfball``
    (five grid cells up to the room in the thin domain and the extension
    span).  Radii where the boundary integral underflows relative to its
    peak are truncated from the end of the ladder.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    radii = np.asarray(sorted(set(float(r) for r in np.atleast_1d(radii))))
    if len(radii) == 0 or radii[0] <= 0:
        raise ValueError("radii must be positive")
    halfball.check_radii(w.domain, center, radii, w.ymesh.Y)
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    engine = halfball.HalfBallQuadrature(w, center, radii[-1])
    D = np.array([engine.energy(r) for r in radii])
    H = halfball.boundary_norms(w, center, radii)
    T = np.array([engine.thin_mass(r) for r in radii])

    # the ladder ends before the first radius whose H underflows
    keep = int(np.argmax(np.append(H <= H.max() * 1e-13, True)))
    truncated = len(H) - keep
    if keep == 0:
        raise ValueError("boundary integral vanishes at every radius; "
                         "the field is zero near this centre")
    note = (f"dropped {truncated} radii with vanishing boundary integral"
            if truncated else "")
    radii, D, H, T = radii[:keep], D[:keep], H[:keep], T[:keep]

    a = w.a
    lam_flux = lam * extension_energy_constant(w.s) if w.s < 1 else lam
    N = radii * D / H
    Ntil = radii * (D - lam_flux * T) / H

    if keep >= 3:
        X = np.column_stack([np.ones(3), radii[:3] ** (1 - a)])
        coef, *_ = np.linalg.lstsq(X, Ntil[:3], rcond=None)
        n0 = float(coef[0])
    else:
        n0 = float("nan")

    if lam_flux > 0:
        ok = N > 0
        gaps = np.zeros_like(N)
        gaps[ok] = (N[ok] - Ntil[ok]) / (lam_flux * N[ok] * radii[ok] ** (1 - a))
        sandwich = float(gaps.max()) if ok.any() else 0.0
    else:
        sandwich = 0.0

    corrected = np.full_like(Ntil, np.nan)
    if (Ntil > 0).all():
        integrand = (1 - a) * (N - Ntil) / (radii * Ntil)
        drift = np.concatenate([
            [0.0],
            np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(radii)),
        ])
        corrected = np.log(Ntil) + drift

    # steps where N~ decreases beyond rounding, and where the corrected
    # functional decreases by more than 1e-3
    viol = [int(i) for i in range(len(Ntil) - 1)
            if Ntil[i + 1] < Ntil[i] - 1e-10 * max(1.0, abs(Ntil[i]))]
    corr_viol = [int(i) for i in range(len(corrected) - 1)
                 if corrected[i + 1] < corrected[i] - 1e-3]

    return FrequencyProfile(
        center=tuple(float(c) for c in center), radii=radii, energy=D,
        boundary=H, thin_mass=T, frequency=N, adjusted=Ntil,
        corrected=corrected, lam=float(lam), lam_flux=float(lam_flux),
        n_zero_plus=n0, sandwich_constant=sandwich,
        monotone_violations=viol, corrected_violations=corr_viol,
        n_truncated=truncated, note=note,
    )


# -- blow-up ------------------------------------------------------------------------


# layers resampled per interpolation call: the call's temporaries are a
# few times one block, against the many times the whole field in one call
_LAYER_BLOCK = 8


@dataclass(frozen=True)
class BlowupField:
    """Rescaled field u(x0 + r.)/norm on the reference half-ball grid.

    The reference slab is [-1, 1]^dim x [0, 1]; the normalization makes
    the weighted boundary integral over the unit half-sphere equal one.
    """

    field: ExtensionField
    center: tuple
    source_radius: float
    normalization: float
    boundary_mass: float


def blowup(w: ExtensionField, center, r: float, *, ref_nodes: int = 65,
           ref_layers: int = 48) -> BlowupField:
    """Resample w around a centre at scale r onto the reference slab grid;
    r must obey the half-ball radius rule of ``halfball``."""
    dom = w.domain
    center = np.atleast_1d(np.asarray(center, dtype=float))
    r = float(r)
    halfball.check_radii(dom, center, r, w.ymesh.Y, what="blow-up ball")

    unit = (-1.0, 1.0)
    ref_dom = build_domain("interval" if dom.dim == 1 else "rectangle", ref_nodes,
                           bounds=unit if dom.dim == 1 else (unit, unit))
    g = w.ymesh.grading
    ref_ym = YMesh(nodes=(np.arange(ref_layers + 1) / ref_layers) ** g,
                   grading=g)

    mesh = np.meshgrid(*ref_dom.axes, indexing="ij")
    thin = np.column_stack([m.ravel() for m in mesh])            # (Q, dim)
    pts = (center + r * thin)[:, None, :]
    heights = r * ref_ym.nodes
    # every height at every thin node, (Q, 1, dim) against a block of
    # heights, so the interpolant's temporaries span one block of layers
    vals = np.empty(ref_dom.grid_shape + (len(heights),))
    for k in range(0, len(heights), _LAYER_BLOCK):
        block = heights[k:k + _LAYER_BLOCK]
        vals[..., k:k + len(block)] = halfball.interp_values(w, pts, block).reshape(
            ref_dom.grid_shape + (len(block),))

    field = ExtensionField(domain=ref_dom, ymesh=ref_ym, s=w.s, values=vals)
    h1 = float(halfball.boundary_norms(field, np.zeros(dom.dim), [1.0])[0])
    if not np.isfinite(h1) or h1 <= 0:
        raise ValueError("field has vanishing boundary mass at this centre/radius")
    norm = float(np.sqrt(h1))
    vals /= norm                 # in place: ``field`` holds ``vals``
    return BlowupField(field=field, center=tuple(float(c) for c in center),
                       source_radius=r, normalization=norm,
                       boundary_mass=float(h1 / norm**2))


# -- classification -------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Outcome of the regular/singular test at one free-boundary point."""

    tag: str                     # 'regular' | 'singular-candidate' | 'unresolved'
    gradient_norm: float = float("nan")
    frequency_at_zero: float = float("nan")
    quadratic_coefficient: float = float("nan")
    fit_residual: float = float("nan")
    note: str = ""


def _quadratic_fit(bl: BlowupField):
    """Weighted fit of the blow-up against the quadratic model p(x) - c y^2.

    Returns (c_relative, residual): c is reported relative to the leading
    eigenvalue of the thin quadratic form, and the residual is the
    weighted relative misfit over the unit half-ball.
    """
    ref = bl.field
    dom = ref.domain
    ys = ref.ymesh.nodes
    shape = ref.values.shape
    mesh = np.meshgrid(*dom.axes, indexing="ij")
    # node weights: uniform in the thin directions, exact y^a moments in y
    mids = np.concatenate([[0.0], 0.5 * (ys[:-1] + ys[1:]), [ys[-1]]])
    a = ref.a
    wy = (mids[1:] ** (1 + a) - mids[:-1] ** (1 + a)) / (1 + a)

    # the unit half-ball, one layer at a time: thin rho^2 plus y^2
    thin_rho2, ys2 = sum(m**2 for m in mesh), ys**2
    inside = np.stack([thin_rho2 + y2 <= 1.0 for y2 in ys2], axis=-1)
    vals = ref.values[inside]
    weights = np.broadcast_to(wy, shape)[inside]
    # the model's monomials x_i x_j (i <= j) and y^2, by their thin and y factors
    factors = [(mesh[i] * mesh[j])[..., None]
               for i in range(dom.dim) for j in range(i, dom.dim)] + [ys2]

    def design():
        X = np.empty((len(vals), len(factors)))
        for col, f in enumerate(factors):
            X[:, col] = np.broadcast_to(f, shape)[inside]
        return X

    # one design matrix at a time: scaled in place (sw becomes the weighted
    # values) and freed before the fit gathers X again
    X, sw = design(), np.sqrt(weights)
    X *= sw[:, None]
    beta, *_ = np.linalg.lstsq(X, np.multiply(vals, sw, out=sw), rcond=None)
    del X
    fit = design() @ beta
    denom = float(np.sum(weights * vals**2))
    resid = float(np.sqrt(np.sum(weights * (vals - fit) ** 2) / max(denom, 1e-300)))
    if dom.dim == 1:
        lead = abs(float(beta[0]))
    else:
        Q = np.array([[beta[0], beta[1] / 2], [beta[1] / 2, beta[2]]])
        lead = float(np.max(np.abs(np.linalg.eigvalsh(Q))))
    return (-float(beta[-1]) / lead if lead > 0 else float("inf")), resid


def _half_room(dom: Domain, center, Y: float) -> float:
    """Largest radius ``classify_point`` reads around a centre."""
    return 0.5 * halfball.room(dom, center, Y)


def classify_point(w: ExtensionField, center, lam: float,
                   Y: float = None) -> Classification:
    """Tag a free-boundary point as regular, singular candidate, or unresolved.

    ``w`` must be the extension of the shifted solution (zero at the free
    boundary).  A trace gradient clearly above discretisation noise means
    regular immediately; otherwise the frequency limit N(0+) decides:
    within ``_BAND`` of 1 regular, within ``_BAND`` of 2 a quadratic-model
    fit of the blow-up (relative residual below ``_FIT_TOL``) confirms or
    rejects the singular candidacy.

    The radii reach half the room, min(distance to the boundary, Y), where
    Y is the height of the full y-mesh (by default w's own); w is read only
    up to that radius, so it may hold just a prefix of the mesh that
    reaches it.
    """
    dom = w.domain
    center = np.atleast_1d(np.asarray(center, dtype=float))
    u = w.trace
    scale = max(float(np.abs(u).max()), 1e-300)
    at = center[:, None]
    if abs(halfball._multilinear(u, dom.axes, at)[0]) > 2e-2 * scale:
        raise ValueError("centre does not lie on the zero level of the trace")
    gvec = [halfball._multilinear(g, dom.axes, at)[0]
            for g in _gradient_arrays(dom, u)]
    gnorm = float(np.linalg.norm(gvec))
    if gnorm > _gradient_floor(dom, u):
        return Classification(tag="regular", gradient_norm=gnorm,
                              note="trace gradient above discretisation noise")

    rmax = _half_room(dom, center, w.ymesh.Y if Y is None else Y)
    rmin = halfball.MIN_CELLS * dom.h
    if rmax < 1.2 * rmin:
        return Classification(tag="unresolved", gradient_norm=gnorm,
                              note="too close to the boundary for a radius ladder")
    radii = np.linspace(rmin, rmax, 10)
    prof = frequency_profile(w, center, radii, lam)
    n0 = prof.n_zero_plus
    if not np.isfinite(n0):
        return Classification(tag="unresolved", gradient_norm=gnorm,
                              frequency_at_zero=n0,
                              note="frequency limit could not be extrapolated")
    if abs(n0 - 1.0) <= _BAND:
        return Classification(tag="regular", gradient_norm=gnorm,
                              frequency_at_zero=n0, note="frequency limit near 1")
    if abs(n0 - 2.0) <= _BAND:
        # resampling error of the blow-up scales like (h / r)^2, so fit the
        # quadratic model on the widest radius the geometry allows up to 15h
        bl = blowup(w, center, min(rmax, max(radii[0], 15 * dom.h)))
        c_rel, resid = _quadratic_fit(bl)
        if resid < _FIT_TOL and c_rel >= -2e-2:
            return Classification(tag="singular-candidate", gradient_norm=gnorm,
                                  frequency_at_zero=n0,
                                  quadratic_coefficient=c_rel,
                                  fit_residual=resid,
                                  note="frequency near 2 and quadratic blow-up")
        return Classification(tag="unresolved", gradient_norm=gnorm,
                              frequency_at_zero=n0, quadratic_coefficient=c_rel,
                              fit_residual=resid,
                              note="frequency near 2 but blow-up rejects the "
                                   "quadratic model")
    return Classification(tag="unresolved", gradient_norm=gnorm,
                          frequency_at_zero=n0,
                          note=f"frequency limit {n0:.3f} away from 1 and 2")


# -- structural checks -------------------------------------------------------------


@dataclass(frozen=True)
class InclusionReport:
    """Edge-set comparison of the two one-sided level transitions."""

    max_gap_cells: float
    violations: list
    passed: bool
    note: str = ""


def check_boundary_inclusion(domain: Domain, values: np.ndarray,
                             level: float) -> InclusionReport:
    """Check that {u < level} -> {u >= level} and {u > level} -> {u <= level}
    transitions happen along the same cells.

    Every grid edge crossing the level from strictly below is matched to
    an edge crossing from strictly above within one cell (Chebyshev
    distance in index units), and vice versa; a fat or one-sided level
    set fails.
    """
    u = np.asarray(values, dtype=float)
    if u.shape != domain.grid_shape:
        raise ValueError("values must be a full-grid array")
    inside, half = domain.interior, 0.5 * np.eye(domain.dim)
    # midpoints, in index units, of the transition edges touching the
    # interior: from below into {u >= level}, and (strict) from above
    lower, upper = (
        np.concatenate([np.argwhere(edges & (inside[lo] | inside[hi])) + half[axis]
                        for axis, lo, hi, edges in _crossings(u, level, strict)])
        for strict in (False, True))
    if len(lower) == 0 and len(upper) == 0:
        return InclusionReport(0.0, [], True, note="level set is empty")
    if len(lower) == 0 or len(upper) == 0:
        return InclusionReport(float("inf"), [], False,
                               note="one-sided level set: transitions exist in "
                                    "only one direction")
    violations = []
    max_gap = 0.0
    for src, dst in ((lower, upper), (upper, lower)):
        tree = cKDTree(dst)
        dists, _ = tree.query(src, p=np.inf)
        max_gap = max(max_gap, float(dists.max()))
        bad = np.where(dists > 1.0 + 1e-9)[0]
        violations.extend(tuple(src[b]) for b in bad)
    return InclusionReport(max_gap_cells=max_gap, violations=violations,
                           passed=len(violations) == 0)


@dataclass(frozen=True)
class StripReport:
    """Minimum of the discrete thin Laplacian on a strip around the level set."""

    min_laplacian: float
    location: tuple
    n_nodes: int
    passed: bool


def check_subharmonic_strip(domain: Domain, values: np.ndarray, level: float,
                            s: float) -> StripReport:
    """Verify the discrete thin Laplacian of u is positive near the level set
    (the interior nodes within ``_STRIP_CELLS`` cells of the free boundary).

    Valid only for s > 1/2, where the solution is superharmonic nowhere
    and subharmonic across the free boundary in the thin variables.
    """
    if not s > 0.5:
        raise ValueError("the subharmonic-strip check requires s > 1/2")
    u = np.asarray(values, dtype=float)
    fb = extract_free_boundary(domain, u, level)
    if not len(fb.locations):
        raise ValueError("no free boundary at this level")
    coords = domain.interior_coords()
    dists, _ = cKDTree(fb.locations).query(coords)
    strip = dists <= _STRIP_CELLS * domain.h * (1 + 1e-12)
    if not strip.any():
        raise ValueError("strip around the free boundary contains no interior nodes")
    # the interior lies off the grid's outer faces: sum the second
    # differences over the nodes inside them
    inner = (slice(1, -1),) * domain.dim
    lap = sum(d2[inner[:axis] + (slice(None),) + inner[axis + 1:]]
              for axis, d2 in enumerate(_second_differences(u, domain.h)))
    lap_int = lap[domain.interior[inner]][strip]
    low = lap_int.min()
    # mirror nodes tie up to rounding: name the first of the tied nodes in
    # row-major order, so the location does not move with the last bits
    k = np.argmax(lap_int <= low + 1e-9 * np.abs(lap_int).max())
    worst = coords[strip][k]
    return StripReport(min_laplacian=float(low),
                       location=tuple(float(c) for c in worst),
                       n_nodes=int(strip.sum()),
                       passed=bool(low > 0))


# -- census -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Census:
    """Free-boundary point census with cluster-level classification."""

    n_points: int
    n_cells: int
    n_regular: int
    n_clusters: int
    singular_locations: list
    unresolved_locations: list
    note: str = ""

    @property
    def singular_count(self) -> int:
        return len(self.singular_locations)


def _cluster_cells(cells):
    """Group cell indices into connected clusters under Chebyshev reach 2.

    Groups come in order of their smallest member, members ascending.
    """
    cells = np.asarray(cells)
    n = len(cells)
    pairs = cKDTree(cells).query_pairs(2, p=np.inf, output_type="ndarray")
    links = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    n_groups, labels = connected_components(links, directed=False)
    return [np.flatnonzero(labels == k).tolist() for k in range(n_groups)]


def _reach(dom: Domain, fb: FreeBoundary, Y: float) -> float:
    """Largest radius the census reads: the half room of the farthest
    point its gradient leaves undecided (0 when there is none)."""
    return max((_half_room(dom, x, Y) for x in fb.locations[~fb.regular]),
               default=0.0)


def census_reach(domain: Domain, values: np.ndarray, level: float,
                 Y: float) -> float:
    """Height up to which ``singular_census`` reads an extension of the
    full-grid trace ``values`` at ``level``, on a y-mesh of height Y.

    An extension on ``ymesh.prefix(census_reach(...))`` is all the census
    needs; 0 (the trace alone) when every point is regular by its gradient.
    """
    return _reach(domain, extract_free_boundary(domain, values, level), Y)


def singular_census(w: ExtensionField, level: float, lam: float,
                    Y: float = None) -> Census:
    """Classify every free-boundary point of the trace of w at a level.

    Points whose trace gradient clears the discretisation-noise
    threshold are regular.  The rest are grouped into cell clusters
    (candidate singular points straddle several cells at one location);
    each cluster is classified once at its most central point and the
    outcome is shared by the cluster's members.  The singular and
    unresolved locations are listed in ascending order, so the census
    does not depend on the order of the extracted points.

    Y is the height of the full y-mesh (by default w's own).  The census
    shifts and reads only the layers up to ``census_reach``, so w may hold
    just the prefix of the mesh up to there: the outcome is the same, bit
    for bit, as on the full extension.
    """
    dom = w.domain
    u = w.trace
    fb = extract_free_boundary(dom, u, level)
    if not len(fb.locations):       # no crossing cells either, unless degenerate
        return Census(n_points=0, n_cells=len(fb.cells), n_regular=0, n_clusters=0,
                      singular_locations=[], unresolved_locations=[],
                      note="degenerate plateau at the level; census unresolved"
                      if fb.degenerate else "no free boundary")

    Y = w.ymesh.Y if Y is None else Y
    pending = ~fb.regular
    singular_locs, unresolved_locs = [], []
    n_regular = len(fb.regular) - int(pending.sum())
    clusters = []
    if pending.any():
        reach = _reach(dom, fb, Y)
        ym = w.ymesh.prefix(reach)
        if ym.Y < reach:
            raise ValueError(f"the extension ends at y = {ym.Y:.4g}, below the "
                             f"census reach {reach:.4g}")
        # a view of the layers the census reads; only they are shifted
        shifted = ExtensionField(domain=dom, ymesh=ym, s=w.s,
                                 values=w.values[..., :ym.M + 1]).shifted(level)
        pending_locs = fb.locations[pending]
        clusters = _cluster_cells(fb.owners[pending])
        for group in clusters:
            locs = pending_locs[group]
            dist = np.linalg.norm(locs - locs.mean(axis=0), axis=1)
            # mirror images in a symmetric cluster tie in distance to the
            # centroid: take the smallest location, whatever the point order
            tied = np.flatnonzero(dist <= dist.min() + 1e-9 * dist.max())
            rep = min(map(tuple, locs[tied].tolist()))
            try:
                tag = classify_point(shifted, rep, lam, Y).tag
            except ValueError:
                tag = "unresolved"
            if tag == "singular-candidate":
                singular_locs.append(rep)
            elif tag == "unresolved":
                unresolved_locs.append(rep)
            else:                           # regular, like every member
                n_regular += len(group)
    return Census(n_points=len(fb.locations), n_cells=len(fb.cells),
                  n_regular=n_regular, n_clusters=len(clusters),
                  singular_locations=sorted(singular_locs),
                  unresolved_locations=sorted(unresolved_locs))
