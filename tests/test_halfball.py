import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from fracplasma import (ExtensionField, HalfBallQuadrature, blowup, build_domain,
                        build_ymesh, cli, frequency_profile, halfball)
from fracplasma.halfball import (MIN_CELLS, _Axis, _combine, _locate,
                                 boundary_norms, interp_values, room)


def _slab(dim, s, n=129, layers=96):
    if dim == 1:
        dom = build_domain("interval", n, bounds=(-1.0, 1.0))
    else:
        dom = build_domain("rectangle", n, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    ym = build_ymesh(s, 1.0, span_factor=1.0, layers=layers)
    return dom, ym


def _field(dom, ym, s, fn):
    mesh = np.meshgrid(*dom.axes, indexing="ij")
    y = ym.nodes.reshape((1,) * dom.dim + (-1,))
    vals = fn([m[..., None] for m in mesh], y)
    return ExtensionField(domain=dom, ymesh=ym, s=s,
                          values=np.broadcast_to(vals, dom.grid_shape + (ym.M + 1,)).copy())


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.3, 0.7])
def test_boundary_norm_of_unit_field_matches_closed_form(dim, s):
    a = 1.0 - 2.0 * s
    n = 129 if dim == 1 else 65
    dom, ym = _slab(dim, s, n=n)
    w = _field(dom, ym, s, lambda x, y: np.ones_like(y + sum(x)))
    for r in (0.3, 0.6, 0.8):
        ref = oracles.halfsphere_surface_weight(a, dim) * r ** (dim + a)
        # H(r) is the boundary integral of w^2 = 1
        assert boundary_norms(w, [0.0] * dim, [r])[0] == pytest.approx(ref, rel=2e-3)


@pytest.mark.parametrize("dim", [1, 2])
def test_energy_of_linear_field_matches_weighted_volume(dim):
    s = 0.4
    a = 1.0 - 2.0 * s
    n = 129 if dim == 1 else 65
    dom, ym = _slab(dim, s, n=n)
    w = _field(dom, ym, s, lambda x, y: x[0] + 0.0 * y)
    quad = HalfBallQuadrature(w, [0.0] * dim, 0.8)
    for r in (0.4, 0.8):
        # |grad w|^2 = 1, so D(r) is the weighted half-ball volume
        ref = oracles.halfball_volume_weight(a, dim) * r ** (dim + 1 + a)
        assert quad.energy(r) == pytest.approx(ref, rel=5e-3)


def test_thin_mass_of_constant_field_1d():
    s = 0.5
    dom, ym = _slab(1, s)
    w = _field(dom, ym, s, lambda x, y: np.ones_like(y + sum(x)))
    quad = HalfBallQuadrature(w, [0.0], 0.8)
    for r in (0.25, 0.5):
        # trace integral of 1 over [-r, r]
        assert quad.thin_mass(r) == pytest.approx(2 * r, rel=2e-3)


def test_thin_mass_squares_the_trace():
    s = 0.5
    dom, ym = _slab(1, s)
    w = _field(dom, ym, s, lambda x, y: x[0] + 0.0 * y)
    quad = HalfBallQuadrature(w, [0.0], 0.8)
    r = 0.5
    # int of x^2 over [-r, r] is 2r^3/3; the positive part keeps half of it
    assert quad.thin_mass(r) == pytest.approx(r**3 / 3, rel=1e-4)


def test_boundary_norm_scales_with_radius_for_homogeneous_field():
    s = 0.6
    a = 1.0 - 2.0 * s
    dom, ym = _slab(1, s)
    w = _field(dom, ym, s, lambda x, y: x[0] ** 2 - y**2 / (1 + a))
    # degree-2 homogeneous: H(r) = (r2/r1)^(1+a+4) H(r1)
    h1, h2 = boundary_norms(w, [0.0], [0.3, 0.6])
    assert h2 / h1 == pytest.approx(2.0 ** (1 + a + 4), rel=5e-3)


@pytest.mark.parametrize("dim", [1, 2])
def test_angular_rule_is_built_once_per_order_and_read_only(dim, monkeypatch):
    calls = []
    jacobi = halfball.roots_jacobi
    monkeypatch.setattr(halfball, "roots_jacobi",
                        lambda *args: calls.append(args) or jacobi(*args))
    halfball._angular_rule.cache_clear()
    rule = halfball._angular_rule(0.4, dim)
    assert halfball._angular_rule(0.4, dim) is rule and len(calls) == 1
    halfball._angular_rule(-0.2, dim)
    assert len(calls) == 2
    for arr in (*rule[0], rule[1], rule[2], *rule[3]):
        assert not arr.flags.writeable


def test_clipped_ball_rejected():
    s = 0.5
    dom, ym = _slab(1, s)
    w = _field(dom, ym, s, lambda x, y: np.ones_like(y + sum(x)))
    with pytest.raises(ValueError):
        HalfBallQuadrature(w, [0.9], 0.5)


def test_cumulative_energy_additive():
    s = 0.45
    dom, ym = _slab(1, s)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(4)
    w = _field(dom, ym, s,
               lambda x, y: coeffs[0] + coeffs[1] * x[0]
               + coeffs[2] * x[0] ** 2 + coeffs[3] * y ** (1 - (1 - 2 * s)))
    quad = HalfBallQuadrature(w, [0.0], 0.8)
    e1, e2, e3 = quad.energy(0.2), quad.energy(0.5), quad.energy(0.8)
    assert 0 < e1 < e2 < e3


# -- the radius rule ---------------------------------------------------------------


class _Solving(Exception):
    """Raised in place of the eigenbasis: the CLI accepted the request."""


def _cli_blowup(tmp_path, monkeypatch, capsys, dom, center):
    """Run ``blowup`` through the CLI at a radius up to its solve; a refusal
    (exit 2) is raised as a ValueError with its stderr."""
    def solving(*args, **kwargs):
        raise _Solving

    monkeypatch.setattr(cli, "eigendecompose", solving)
    path = tmp_path / "cfg.json"

    def run(r):
        path.write_text(json.dumps({
            "domain": {"kind": "interval", "n": len(dom.axes[0]),
                       "bounds": [dom.axes[0][0], dom.axes[0][-1]]},
            "blowup": {"center": center, "radius": r}}))
        try:
            code = cli.main(["blowup", "--config", str(path),
                             "--out", str(tmp_path / "out")])
        except _Solving:
            return
        assert code == 2
        raise ValueError(capsys.readouterr().err)
    return run


@pytest.mark.parametrize("entry", ["frequency_profile", "blowup",
                                   "HalfBallQuadrature", "cli blowup"])
def test_radius_rule_holds_at_every_entry_point(entry, tmp_path, monkeypatch,
                                                capsys):
    # five cells and the room are admissible, a relative 2e-9 beyond either
    # is not; the engine checks the room only, and the CLI, before the
    # solve, the room in the thin domain (here the tighter bound)
    dom, ym = _slab(1, 0.5, n=65)
    w = _field(dom, ym, 0.5, lambda x, y: 1.0 + x[0] + 0.0 * y)
    center = [0.5]
    run = {"frequency_profile": lambda r: frequency_profile(w, center, [r], 0.0),
           "blowup": lambda r: blowup(w, center, r),
           "HalfBallQuadrature": lambda r: HalfBallQuadrature(w, center, r),
           "cli blowup": _cli_blowup(tmp_path, monkeypatch, capsys, dom, center),
           }[entry]
    floor, top = MIN_CELLS * dom.h, room(dom, center, ym.Y)
    assert (floor, top) == (5 / 32, 0.5)
    bounds = [(top, 1 + 2e-9, "leaves the")]
    if entry != "HalfBallQuadrature":
        bounds.append((floor, 1 - 2e-9, "below five grid cells"))
    for edge, beyond, message in bounds:
        run(edge)
        with pytest.raises(ValueError, match=message):
            run(edge * beyond)


# -- the multilinear interpolant -------------------------------------------------


def _gradient(w, thin, y):
    """Gradient of the multilinear interpolant of w at (thin, y), as
    ``interp_values`` places the points: [thin grads..., g_y]."""
    coords = (*np.moveaxis(thin, -1, 0), y)
    return _combine(w.values, [_locate(_Axis(ax), q) for ax, q in
                               zip((*w.domain.axes, w.ymesh.nodes), coords)],
                    gradient=True)


def _probe_slab(dim):
    # a non-square rectangle, so that mixing up the thin axes shows
    if dim == 1:
        dom = build_domain("interval", 17, bounds=(-1.0, 1.0))
    else:
        dom = build_domain("rectangle", (17, 9), bounds=((-1.0, 1.0), (0.0, 1.0)))
    return dom, build_ymesh(0.4, 1.0, span_factor=1.0, layers=12)


def _probe_points(dom, ym, rng):
    """Random points, grid nodes, points on cell faces, and y above the top."""
    lo = np.array([ax[0] for ax in dom.axes])
    hi = np.array([ax[-1] for ax in dom.axes])
    thin = rng.uniform(lo, hi, size=(200, dom.dim))
    y = rng.uniform(0.0, ym.Y, size=200)
    for k, ax in enumerate(dom.axes):
        thin[:40, k] = ax[rng.integers(0, len(ax), size=40)]   # nodes ...
        thin[40 + 20 * k:60 + 20 * k, k] = thin[:20, k]          # ... and faces
    y[:40] = ym.nodes[rng.integers(0, ym.M + 1, size=40)]
    y[150:] = ym.Y * rng.uniform(1.0, 2.0, size=50)            # clipped
    y[149] = 0.0
    return thin, y


@pytest.mark.parametrize("dim", [1, 2])
def test_interpolant_values_match_regular_grid_oracle(dim):
    dom, ym = _probe_slab(dim)
    rng = np.random.default_rng(20 + dim)
    vals = rng.standard_normal(dom.grid_shape + (ym.M + 1,))
    w = ExtensionField(domain=dom, ymesh=ym, s=0.4, values=vals)
    thin, y = _probe_points(dom, ym, rng)
    ref = oracles.multilinear_values(tuple(dom.axes) + (ym.nodes,), vals,
                                     np.column_stack([thin, y]))
    np.testing.assert_allclose(interp_values(w, thin, y), ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_interpolant_gradient_exact_for_multilinear_field(dim):
    # f = sum over axis subsets S of c_S prod_{k in S} x_k is multilinear in
    # every cell, so the interpolant is f itself and its gradient is exact
    dom, ym = _probe_slab(dim)
    rng = np.random.default_rng(30 + dim)
    subsets = list(itertools.product((0, 1), repeat=dim + 1))
    coef = rng.standard_normal(len(subsets))

    def grad(p):
        return [sum(c * np.prod([p[:, j] for j in range(dim + 1) if S[j] and j != k],
                                axis=0)
                    for c, S in zip(coef, subsets) if S[k])
                for k in range(dim + 1)]

    mesh = np.meshgrid(*dom.axes, ym.nodes, indexing="ij")
    vals = sum(c * np.prod([m for m, b in zip(mesh, S) if b], axis=0)
               for c, S in zip(coef, subsets))
    w = ExtensionField(domain=dom, ymesh=ym, s=0.4, values=vals)
    thin, y = _probe_points(dom, ym, rng)
    got = _gradient(w, thin, y)
    assert len(got) == dim + 1
    ref = grad(np.column_stack([thin, np.minimum(y, ym.Y)]))
    for g, r in zip(got, ref):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)


# -- bit for bit against the corner-weight oracle ------------------------------------


def _oracle_slab(kind):
    """A random field on a 1-D, a square or a disk slab (values off the
    disk included, which the half-ball never reaches)."""
    if kind == "interval":
        dom = build_domain("interval", 65, bounds=(0.0, np.pi))
    elif kind == "square":
        dom = build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi)))
    else:
        dom = build_domain("disk", 25, bounds=((-1.5, 1.5), (-1.5, 1.5)),
                           radius=1.4, center=(0.0, 0.0))
    s = 0.75
    ym = build_ymesh(s, 2.0, span_factor=2.0, layers=40)
    rng = np.random.default_rng(len(kind))
    vals = rng.standard_normal(dom.grid_shape + (ym.M + 1,))
    return ExtensionField(domain=dom, ymesh=ym, s=s, values=vals)


def _oracle_centres(dom):
    """A grid node, a point on a cell face (a node coordinate on the first
    axis only, where searchsorted ties) and a generic point."""
    node = np.array([ax[len(ax) // 2 - 1] for ax in dom.axes])
    face = node + np.r_[0.0, 0.5 * dom.h][:dom.dim]
    generic = node + 0.37 * dom.h
    return node, face, generic


@pytest.mark.parametrize("kind", ["interval", "square", "disk"])
def test_profiles_and_boundary_norms_match_corner_weight_oracle(kind):
    w = _oracle_slab(kind)
    dom, ym = w.domain, w.ymesh
    for center in _oracle_centres(dom):
        top = room(dom, center, ym.Y)
        for rmax in (top, 0.5 * top):
            quad = HalfBallQuadrature(w, center, rmax)
            edges, energy, thin_pos = oracles.halfball_profiles(
                dom.axes, ym.nodes, w.values, w.a, center, rmax, dom.h)
            for cum, ref in ((quad._cum_energy, energy), (quad._cum_thin_pos, thin_pos)):
                assert np.array_equal(cum[0], edges)
                assert np.array_equal(cum[1], ref)
            radii = np.linspace(5 * dom.h, rmax, 12)
            ref = [oracles.halfball_boundary_norm(dom.axes, ym.nodes, w.values, w.a,
                                                  center, r) for r in radii]
            assert np.array_equal(boundary_norms(w, center, radii), ref)
            assert boundary_norms(w, center, radii[-1:])[0] == ref[-1]


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_profiles_on_a_prefix_field_match_the_full_field(kind):
    # the y-prefix up to rmax holds every layer the half-ball reads
    w = _oracle_slab(kind)
    dom, ym = w.domain, w.ymesh
    center = _oracle_centres(dom)[1]
    rmax = 0.5 * room(dom, center, ym.Y)
    short = ym.prefix(rmax)
    assert short.M < ym.M
    part = ExtensionField(domain=dom, ymesh=short, s=w.s,
                          values=w.values[..., :short.M + 1])
    quad = HalfBallQuadrature(part, center, rmax)
    edges, energy, thin_pos = oracles.halfball_profiles(
        dom.axes, ym.nodes, w.values, w.a, center, rmax, dom.h)
    assert np.array_equal(quad._cum_energy[1], energy)
    assert np.array_equal(quad._cum_thin_pos[1], thin_pos)
    radii = np.linspace(5 * dom.h, rmax, 12)
    assert np.array_equal(boundary_norms(part, center, radii),
                          [oracles.halfball_boundary_norm(dom.axes, ym.nodes, w.values,
                                                          w.a, center, r)
                           for r in radii])


@pytest.mark.parametrize("dim", [1, 2])
def test_structured_points_match_scattered_points(dim):
    # heights broadcast against thin points give the listed points' values
    dom, ym = _probe_slab(dim)
    rng = np.random.default_rng(40 + dim)
    w = ExtensionField(domain=dom, ymesh=ym, s=0.4,
                       values=rng.standard_normal(dom.grid_shape + (ym.M + 1,)))
    thin, y = _probe_points(dom, ym, rng)
    grid = interp_values(w, thin[:, None, :], y[:30])
    listed = interp_values(w, np.repeat(thin, 30, axis=0), np.tile(y[:30], len(thin)))
    assert np.array_equal(grid.ravel(), listed)
    for g, ref in zip(_gradient(w, thin[:, None, :], y[:30]),
                      _gradient(w, np.repeat(thin, 30, axis=0),
                                np.tile(y[:30], len(thin)))):
        assert np.array_equal(g.ravel(), ref)


def _probe_coordinates(ax, rng):
    """Every node, its floating-point neighbours on both sides, every cell
    midpoint, points beyond both ends and uniform points inside."""
    span = ax[-1] - ax[0]
    return np.concatenate([
        ax, np.nextafter(ax, -np.inf), np.nextafter(ax, np.inf),
        (ax[:-1] + ax[1:]) / 2,
        [ax[0] - span, ax[0] - 1e-300, ax[-1] + 1e-9 * span, ax[-1] + span,
         -np.inf, np.inf],
        rng.uniform(ax[0], ax[-1], 64),
    ])


def _same_cells(got, ref):
    """Same cell index and the same bits of t and width."""
    (i, t, width), (i_ref, t_ref, width_ref) = got, ref
    return (np.array_equal(i, i_ref)
            and np.array_equal(np.asarray(t).view(np.int64), t_ref.view(np.int64))
            and np.array_equal(np.asarray(width).view(np.int64),
                               width_ref.view(np.int64)))


@given(kind=st.sampled_from(["interval", "rectangle", "disk"]),
       n=st.integers(3, 160), extra=st.integers(0, 40),
       lo=st.floats(-20.0, 20.0), length=st.floats(1e-3, 50.0),
       seed=st.integers(0, 2**16))
def test_locate_matches_searchsorted_on_domain_axes(kind, n, extra, lo, length, seed):
    hi = lo + length
    try:
        if kind == "interval":
            dom = build_domain("interval", n, bounds=(lo, hi))
        elif kind == "rectangle":
            # a second axis with more nodes at the same spacing
            dom = build_domain("rectangle", (n, n + extra), bounds=(
                (lo, hi), (-lo, -lo + length * (n + extra - 1) / (n - 1))))
        else:
            dom = build_domain("disk", n, bounds=((lo, hi), (lo, hi)),
                               radius=0.45 * length, center=(lo + length / 2,) * 2)
    except ValueError:                  # unequal spacing or an empty disk
        assume(False)
    rng = np.random.default_rng(seed)
    for ax in dom.axes:
        axis = _Axis(ax)
        assert axis.scale is not None   # an equally spaced axis is not searched
        q = _probe_coordinates(ax, rng)
        assert _same_cells(_locate(axis, q), oracles.searchsorted_cells(ax, q))
        # broadcast shapes and single coordinates locate the same way
        grid = q[:len(q) // 4 * 4].reshape(4, -1, 1)
        assert _same_cells(_locate(axis, grid), oracles.searchsorted_cells(ax, grid))
        assert _same_cells(_locate(axis, q[0]), oracles.searchsorted_cells(ax, q[0]))


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.5])
def test_locate_matches_searchsorted_on_y_meshes(grading):
    # a graded mesh is searched; an ungraded one takes the guess
    ym = build_ymesh(0.6, 1.0, span_factor=3.0, layers=37, grading=grading)
    axis = _Axis(ym.nodes)
    assert (axis.scale is None) == (grading != 1.0)
    q = _probe_coordinates(ym.nodes, np.random.default_rng(3))
    assert _same_cells(_locate(axis, q), oracles.searchsorted_cells(ym.nodes, q))
