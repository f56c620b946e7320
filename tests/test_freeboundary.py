from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import oracles
from fracplasma import (ExtensionField, blowup, build_domain, build_ymesh,
                        census_reach, check_boundary_inclusion,
                        check_subharmonic_strip, classify_point,
                        eigendecompose, extend_semianalytic,
                        extract_free_boundary, frequency_profile,
                        singular_census, solve_fixed_lambda)
from fracplasma import freeboundary, halfball
from fracplasma.freeboundary import (Classification, FreeBoundary,
                                     _chebyshev_blocks, _cluster_cells,
                                     _nearest_chebyshev, _strip_nodes)


def model_field(kind, s, n=161, layers=160):
    dom = build_domain("interval", n, bounds=(-1.0, 1.0))
    ym = build_ymesh(s, 1.0, span_factor=1.0, layers=layers)
    a = 1.0 - 2.0 * s
    x = dom.axes[0][:, None]
    y = ym.nodes[None, :]
    if kind == "linear":
        vals = x + 0.0 * y
    elif kind == "quadratic":
        vals = x**2 - y**2 / (1 + a)
    else:
        vals = x**3 - 3.0 * x * y**2 / (1 + a)
    return dom, ExtensionField(domain=dom, ymesh=ym, s=s, values=vals)


# -- free-boundary extraction --------------------------------------------------------


def test_interval_level_crossing_located():
    dom = build_domain("interval", 101, bounds=(0.0, 1.0))
    u = dom.axes[0] ** 2            # crosses 0.25 at x = 0.5
    fb = extract_free_boundary(dom, u, 0.25)
    assert not fb.degenerate
    assert fb.locations.shape == (1, 1)
    assert fb.locations[0, 0] == pytest.approx(0.5, abs=1e-3)
    assert fb.regular.tolist() == [True]


def test_circle_level_set_extracted():
    dom = build_domain("rectangle", 65, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    u = xs**2 + ys**2
    fb = extract_free_boundary(dom, u, 0.25)
    radii = np.linalg.norm(fb.locations, axis=1)
    np.testing.assert_allclose(radii, 0.5, atol=2e-3)
    # cell count comparable to the perimeter over the spacing
    assert abs(len(fb.cells) - np.pi / dom.h) < 0.5 * np.pi / dom.h


def test_flat_field_reported_degenerate():
    dom = build_domain("interval", 51, bounds=(0.0, 1.0))
    fb = extract_free_boundary(dom, np.full(51, 0.4), 0.4)
    assert fb.degenerate
    assert fb.locations.shape == (0, 1)
    assert fb.cells.tolist() == [[k] for k in range(50)]


def test_partial_plateau_crossing_not_regular():
    dom = build_domain("interval", 51, bounds=(0.0, 1.0))
    u = np.minimum(dom.axes[0], 0.4)
    fb = extract_free_boundary(dom, u, 0.4)
    assert not fb.degenerate
    assert len(fb.regular) > 0 and not fb.regular.any()


def test_no_crossing_gives_empty_boundary():
    dom = build_domain("interval", 51, bounds=(0.0, 1.0))
    fb = extract_free_boundary(dom, np.zeros(51), 0.5)
    assert fb.locations.shape == (0, 1)
    assert not fb.degenerate


def _oracle_fields(dim, rng):
    """Rough and smooth fields, each with nodes exactly at the level 0.1."""
    for n in (9, 17, 33):
        if dim == 1:
            dom = build_domain("interval", n, bounds=(-1.0, 1.0))
            x = diff = dom.axes[0]          # zero at the middle node
        else:
            dom = build_domain("rectangle", n, bounds=((-1.0, 1.0), (-1.0, 1.0)))
            xs, ys = np.meshgrid(*dom.axes, indexing="ij")
            x, diff = xs, xs - ys           # zero on the diagonal
        rough = rng.standard_normal(dom.grid_shape)
        rough.flat[rng.choice(rough.size, size=rough.size // 20 + 1,
                              replace=False)] = 0.1
        yield dom, rough
        yield dom, diff * (1.0 + 0.1 * rng.random() * x**2) + 0.1


@pytest.mark.parametrize("dim", [1, 2])
def test_extraction_and_clustering_match_brute_force(dim):
    rng = np.random.default_rng(20 + dim)
    tags = set()
    for dom, u in _oracle_fields(dim, rng):
        fb = extract_free_boundary(dom, u, 0.1)
        want, want_cells = oracles.level_crossings(dom, u, 0.1)
        assert len(fb.cells) == len(set(map(tuple, fb.cells.tolist())))
        assert set(map(tuple, fb.cells.tolist())) == want_cells
        n = len(want)
        assert fb.locations.shape == fb.gradients.shape == fb.owners.shape == (n, dim)
        assert fb.regular.shape == (n,) and fb.regular.dtype == bool

        # row by row against the oracle's points, both in one order
        def key(row):
            loc, _, tag, cell = row
            return cell, tag, tuple(np.round(loc, 9))
        tags_got = ["regular" if r else "unresolved" for r in fb.regular]
        got = sorted(zip(map(tuple, fb.locations.tolist()),
                         map(tuple, fb.gradients.tolist()), tags_got,
                         map(tuple, fb.owners.tolist())), key=key)
        want = sorted(want, key=key)
        assert [row[2:] for row in got] == [row[2:] for row in want]
        np.testing.assert_allclose([row[0] for row in got], [row[0] for row in want],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose([row[1] for row in got], [row[1] for row in want],
                                   rtol=1e-12, atol=1e-12)
        tags |= set(tags_got)

        cells = fb.owners.tolist()
        assert _cluster_cells(fb.owners) == oracles.cluster_cells(cells)
        sparse = cells[::3]
        assert _cluster_cells(sparse) == oracles.cluster_cells(sparse)
    assert tags == {"regular", "unresolved"}


# The three neighbour queries against scipy's k-d tree and graph components,
# which the package no longer imports.


def _kdtree_clusters(cells):
    n = len(cells)
    pairs = cKDTree(cells).query_pairs(2, p=np.inf, output_type="ndarray")
    links = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    n_groups, labels = connected_components(links, directed=False)
    return [np.flatnonzero(labels == k).tolist() for k in range(n_groups)]


def _kdtree_strip(dom, locations):
    dists, _ = cKDTree(locations).query(dom.interior_coords())
    return dists <= 2.0 * dom.h * (1 + 1e-12)


def _edge_points(dom, rng, count):
    """Points on random grid edges: at a node or a hair before one, at the
    midpoint or anywhere along the edge, so that some nodes lie two cells
    away up to the strip's tolerance."""
    idx = rng.integers(0, np.array(dom.grid_shape) - 1, size=(count, dom.dim))
    locs = np.column_stack([ax[idx[:, d]] for d, ax in enumerate(dom.axes)])
    t = rng.choice([0.0, 0.5, 1.0, 1.0 - 1e-13, rng.random()], size=count)
    locs[np.arange(count), rng.integers(dom.dim, size=count)] += t * dom.h
    return locs


@pytest.mark.parametrize("dim", [1, 2])
def test_neighbour_queries_match_kdtree_and_csgraph(dim, monkeypatch):
    rng = np.random.default_rng(40 + dim)
    doms = [build_domain("interval", 33, bounds=(-1.0, 1.0)) if dim == 1 else
            build_domain("rectangle", (21, 11), bounds=((-1.0, 1.0), (0.0, 1.0)))]
    if dim == 2:
        doms.append(build_domain("disk", 25, bounds=((-1.5, 1.5),) * 2, radius=1.4,
                                 center=(0.0, 0.0)))
    for block in (1 << 16, 7):          # one block, and many in both axes
        monkeypatch.setattr(freeboundary, "_PAIR_BLOCK", block)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            cells = rng.integers(0, 10 if dim == 2 else 40, size=(n, dim))
            assert _cluster_cells(cells) == _kdtree_clusters(cells)
            assert _cluster_cells(cells) == oracles.cluster_cells(cells.tolist())
            # edge midpoints in index units; a sparse dst leaves gaps of
            # several cells
            src = rng.integers(0, 40, size=(n, dim)) + rng.integers(0, 2, (n, dim)) / 2
            dst = src[rng.random(n) < 0.2] if n > 4 else src
            want, _ = cKDTree(dst).query(src, p=np.inf)
            assert np.array_equal(_nearest_chebyshev(src, dst), want)
            for dom in doms:
                locs = _edge_points(dom, rng, int(rng.integers(1, 30)))
                assert np.array_equal(_strip_nodes(dom, locs), _kdtree_strip(dom, locs))
        sizes = [d.size for _, _, d in _chebyshev_blocks(cells, cells)]
        assert max(sizes) <= block and sum(sizes) == len(cells) ** 2


def _blocked_nearest(src, dst):
    """The nearest-partner search by blocks of every pair."""
    dists = np.full(len(src), np.inf)
    for i, _, d in _chebyshev_blocks(src, dst):
        rows = dists[i:i + len(d)]
        np.minimum(rows, d.min(axis=1), out=rows)
    return dists


@pytest.mark.parametrize("kind", ["interval", "rectangle", "disk"])
def test_inclusion_lookup_matches_the_blocked_search(kind, monkeypatch):
    rng = np.random.default_rng(["interval", "rectangle", "disk"].index(kind))
    dom = {"interval": build_domain("interval", 97, bounds=(0.0, 1.0)),
           "rectangle": build_domain("rectangle", (33, 17), bounds=((0.0, 2.0), (0.0, 1.0))),
           "disk": build_domain("disk", 33, bounds=((-1.5, 1.5),) * 2, radius=1.4,
                                center=(0.0, 0.0))}[kind]
    mesh = np.meshgrid(*dom.axes, indexing="ij")
    seen = set()
    for _ in range(40):
        # a few random waves, noise on some, and a plateau at the level of
        # random width, which puts the two transitions cells apart
        u = sum(rng.standard_normal() * np.cos(np.tensordot(rng.uniform(0, 6, dom.dim), mesh, 1)
                                               + rng.uniform(0, 6)) for _ in range(3))
        u = u + rng.choice([0.0, 0.3]) * rng.standard_normal(u.shape)
        level = float(rng.uniform(-0.5, 0.5))
        u = np.where(np.abs(u - level) < rng.choice([0.0, 0.05, 0.3]), level, u)
        u = np.where(dom.interior, u, 0.0)
        with monkeypatch.context() as patch:
            patch.setattr(freeboundary, "_nearest_chebyshev", _blocked_nearest)
            blocked = check_boundary_inclusion(dom, u, level)
        # the gap, the violations in their order, the verdict and the note
        got = check_boundary_inclusion(dom, u, level)
        assert got == blocked
        seen.add((got.passed, len(got.violations) > 0))
    assert {(True, False), (False, True)} <= seen


def test_inclusion_and_strip_match_kdtree_on_a_disk():
    dom = build_domain("disk", 33, bounds=((-1.5, 1.5),) * 2, radius=1.4,
                       center=(0.0, 0.0))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    u = np.where(dom.interior, 1.0 - xs**2 - 0.5 * ys**2, 0.0)
    # a fat plateau at the level puts the two transitions cells apart
    for field, passed in ((u, True), (np.where(np.abs(u - 0.5) < 0.2, 0.5, u), False)):
        lower, upper = oracles.inclusion_transitions(dom.interior, field, 0.5)
        lower, upper = np.array(sorted(lower)), np.array(sorted(upper))
        gap = max(cKDTree(b).query(a, p=np.inf)[0].max()
                  for a, b in ((lower, upper), (upper, lower)))
        rep = check_boundary_inclusion(dom, field, 0.5)
        assert rep.max_gap_cells == gap and rep.passed == passed
        assert passed or gap > 2
    fb = extract_free_boundary(dom, u, 0.5)
    assert np.array_equal(_strip_nodes(dom, fb.locations),
                          _kdtree_strip(dom, fb.locations))
    assert check_subharmonic_strip(dom, u, 0.5, 0.75).n_nodes == int(
        _kdtree_strip(dom, fb.locations).sum())


# -- frequency profiles --------------------------------------------------------------


def test_frequency_one_for_linear_model():
    dom, w = model_field("linear", 0.5)
    radii = np.linspace(10 * dom.h, 0.4, 8)
    prof = frequency_profile(w, [0.0], radii, 0.0)
    np.testing.assert_allclose(prof.frequency, 1.0, atol=2e-3)
    assert abs(prof.n_zero_plus - 1.0) < 2e-3


def test_frequency_two_for_quadratic_model():
    dom, w = model_field("quadratic", 0.3)
    radii = np.linspace(10 * dom.h, 0.4, 8)
    prof = frequency_profile(w, [0.0], radii, 0.0)
    np.testing.assert_allclose(prof.frequency, 2.0, atol=5e-3)


def test_frequency_profile_reports_flux_multiplier():
    dom, w = model_field("quadratic", 0.3)
    radii = np.linspace(10 * dom.h, 0.3, 5)
    lam = 2.0
    prof = frequency_profile(w, [0.0], radii, lam)
    from fracplasma import extension_energy_constant
    assert prof.lam == lam
    assert prof.lam_flux == pytest.approx(lam * extension_energy_constant(0.3))
    # with a positive multiplier the adjusted frequency sits below the raw one
    assert np.all(prof.adjusted <= prof.frequency + 1e-12)


def test_corrected_profile_constant_for_homogeneous_model():
    # a homogeneous field makes the drift-corrected log-frequency exactly
    # constant (log 2); quadrature noise is all that remains
    dom, w = model_field("quadratic", 0.5)
    radii = np.linspace(10 * dom.h, 0.4, 10)
    prof = frequency_profile(w, [0.0], radii, 0.0)
    assert np.isfinite(prof.corrected).all()
    assert np.abs(prof.corrected - np.log(2.0)).max() < 5e-3


# -- blow-up -------------------------------------------------------------------------


def test_blowup_normalizes_boundary_mass():
    dom, w = model_field("quadratic", 0.5)
    bl = blowup(w, [0.0], 0.25)
    assert bl.boundary_mass == pytest.approx(1.0, rel=1e-6)
    assert bl.source_radius == 0.25


def test_blowup_reference_slab_geometry():
    dom, w = model_field("quadratic", 0.5)
    bl = blowup(w, [0.0], 0.25, ref_nodes=33, ref_layers=24)
    ref = bl.field
    assert ref.domain.grid_shape == (33,)
    np.testing.assert_allclose([ref.domain.axes[0][0], ref.domain.axes[0][-1]],
                               [-1.0, 1.0])
    assert ref.ymesh.Y == pytest.approx(1.0)


def test_blowup_radius_guards():
    dom, w = model_field("quadratic", 0.5)
    with pytest.raises(ValueError):
        blowup(w, [0.0], 2 * dom.h)          # below five cells
    with pytest.raises(ValueError):
        blowup(w, [0.0], 1.5)                # leaves the slab


# -- classification ------------------------------------------------------------------


def test_linear_model_classified_regular():
    _, w = model_field("linear", 0.5)
    cls = classify_point(w, [0.0], 0.0)
    assert cls.tag == "regular"
    assert cls.gradient_norm > 0.5


def test_quadratic_model_classified_singular():
    for s in (0.3, 0.75):
        a = 1.0 - 2.0 * s
        _, w = model_field("quadratic", s)
        cls = classify_point(w, [0.0], 0.0)
        assert cls.tag == "singular-candidate"
        assert cls.quadratic_coefficient == pytest.approx(1 / (1 + a), abs=0.02)
        assert cls.fit_residual < 0.05


def test_cubic_model_unresolved_with_frequency_three():
    _, w = model_field("cubic", 0.5)
    cls = classify_point(w, [0.0], 0.0)
    assert cls.tag == "unresolved"
    assert cls.frequency_at_zero == pytest.approx(3.0, abs=0.15)


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_blowup_normalises_by_the_unit_boundary_norm_alone(kind, monkeypatch):
    # H(1) is read from the sphere nodes; no half-ball profiles are built
    def forbidden(*args, **kwargs):
        raise AssertionError("blowup built a half-ball engine")

    monkeypatch.setattr(freeboundary.halfball, "HalfBallQuadrature", forbidden)
    if kind == "interval":
        dom = build_domain("interval", 65, bounds=(0.0, np.pi))
    else:
        dom = build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi)))
    ym = build_ymesh(0.75, 2.0, span_factor=2.0, layers=40)
    rng = np.random.default_rng(17)
    w = ExtensionField(domain=dom, ymesh=ym, s=0.75,
                       values=rng.standard_normal(dom.grid_shape + (ym.M + 1,)))
    center, r = np.full(dom.dim, 1.3) + 0.37 * dom.h, 0.8
    bl = blowup(w, center, r)
    ref = bl.field
    # the resampled field and its H(1) by the corner-weight oracle
    shape = ref.domain.grid_shape + (ref.ymesh.M + 1,)
    mesh = np.meshgrid(*ref.domain.axes, indexing="ij")
    coords = [np.broadcast_to((c + r * m)[..., None], shape) for c, m in zip(center, mesh)]
    coords.append(np.broadcast_to(r * ref.ymesh.nodes, shape))
    raw = oracles.corner_weight_interpolant((*dom.axes, ym.nodes), w.values, coords)
    h1 = oracles.halfball_boundary_norm(ref.domain.axes, ref.ymesh.nodes, raw, w.a,
                                        np.zeros(dom.dim), 1.0)
    assert bl.normalization == np.sqrt(h1)
    assert bl.boundary_mass == h1 / bl.normalization**2
    assert np.array_equal(ref.values, raw / bl.normalization)


def _random_square_field(n=25, layers=40):
    dom = build_domain("rectangle", n, bounds=((0.0, np.pi), (0.0, np.pi)))
    ym = build_ymesh(0.75, 2.0, span_factor=2.0, layers=layers)
    rng = np.random.default_rng(23)
    return ExtensionField(domain=dom, ymesh=ym, s=0.75,
                          values=rng.standard_normal(dom.grid_shape + (ym.M + 1,)))


def test_blowup_resampled_in_layer_blocks_equals_one_call():
    w = _random_square_field()
    center, r, ref_layers = [1.3, 1.6], 0.8, 44
    assert (ref_layers + 1) % freeboundary._LAYER_BLOCK
    bl = blowup(w, center, r, ref_nodes=33, ref_layers=ref_layers)
    ref = bl.field
    mesh = np.meshgrid(*ref.domain.axes, indexing="ij")
    thin = np.column_stack([m.ravel() for m in mesh])
    raw = halfball.interp_values(w, (center + r * thin)[:, None, :],
                                 r * ref.ymesh.nodes).reshape(ref.values.shape)
    h1 = halfball.boundary_norms(replace(ref, values=raw), np.zeros(2), [1.0])[0]
    assert bl.normalization == np.sqrt(h1)
    assert np.array_equal(ref.values, raw / bl.normalization)


def test_blowup_memory_is_about_its_result():
    import tracemalloc
    w = _random_square_field(n=49, layers=48)
    tracemalloc.start()
    try:
        bl = blowup(w, [1.57, 1.57], 0.4, ref_nodes=129, ref_layers=96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * bl.field.values.nbytes


def _fit_blowup(dim):
    """A blow-up on the 65-node, 64-layer reference grid: of the 1-D
    quadratic model field, or of a random square field."""
    if dim == 1:
        return blowup(model_field("quadratic", 0.6)[1], [0.1], 0.4, ref_layers=64)
    return blowup(_random_square_field(), [1.3, 1.6], 0.8, ref_layers=64)


@pytest.mark.parametrize("dim", [1, 2])
def test_quadratic_fit_equals_full_array_oracle(dim):
    bl = _fit_blowup(dim)
    ref = bl.field
    got = freeboundary._quadratic_fit(bl)
    assert got == oracles.quadratic_fit(ref.domain.axes, ref.ymesh.nodes,
                                        ref.values, ref.a)   # bit for bit


def test_quadratic_fit_memory_is_a_few_fields():
    import tracemalloc
    bl = _fit_blowup(2)
    tracemalloc.start()
    try:
        freeboundary._quadratic_fit(bl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * bl.field.values.nbytes


def test_classification_rejects_off_level_centre():
    _, w = model_field("linear", 0.5)
    with pytest.raises(ValueError):
        classify_point(w, [0.5], 0.0)


# -- structural checks ---------------------------------------------------------------


def test_inclusion_holds_for_smooth_crossing():
    dom = build_domain("rectangle", 49, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    u = 1.0 - xs**2 - ys**2
    rep = check_boundary_inclusion(dom, u, 0.5)
    assert rep.passed
    assert rep.violations == []


def test_inclusion_fails_for_one_sided_plateau():
    dom = build_domain("interval", 41, bounds=(0.0, 1.0))
    x = dom.axes[0]
    # a plateau at the level: the field enters {u >= level} from below, but
    # never leaves {u > level}, so only one transition set is populated
    u = np.where(x < 0.5, 0.2, 0.5)
    rep = check_boundary_inclusion(dom, u, 0.5)
    assert not rep.passed
    assert rep.max_gap_cells == np.inf
    assert "one-sided" in rep.note
    # a clean two-sided crossing is still fine on the same grid
    rep2 = check_boundary_inclusion(dom, x, 0.5)
    assert rep2.passed


def _plateau_fields(rng):
    """Fields at the level 0.1 on whole regions, two-sided and one-sided."""
    for dim in (1, 2):
        for n in (9, 17):
            if dim == 1:
                dom = build_domain("interval", n, bounds=(-1.0, 1.0))
                x = dom.axes[0]
            else:
                dom = build_domain("rectangle", n, bounds=((-1.0, 1.0), (-1.0, 1.0)))
                x = np.meshgrid(*dom.axes, indexing="ij")[0]
            yield dom, np.where(x < 0.0, 0.0, 0.1)                 # one-sided
            yield dom, np.clip(x, -0.3, 0.3) + 0.1                 # ramp through
            yield dom, np.where(np.abs(x) < 0.5, 0.1, 0.2)         # fat plateau
            yield dom, np.full(dom.grid_shape, 0.1)                # all at level
            yield dom, np.where(rng.random(dom.grid_shape) < 0.5, 0.1,
                                rng.choice([0.0, 0.2], size=dom.grid_shape))


def test_inclusion_matches_brute_force():
    rng = np.random.default_rng(31)
    fields = [f for dim in (1, 2) for f in _oracle_fields(dim, rng)]
    fields += list(_plateau_fields(rng))
    verdicts = set()
    for dom, u in fields:
        lower, upper = oracles.inclusion_transitions(dom.interior, u, 0.1)
        gap, far = oracles.inclusion_gap(lower, upper)
        rep = check_boundary_inclusion(dom, u, 0.1)
        assert rep.max_gap_cells == gap
        assert set(rep.violations) == far
        assert len(rep.violations) == len(far)
        assert rep.passed == (gap <= 1.0 + 1e-9)
        verdicts.add((rep.passed, gap == np.inf))
    # passing, failing by a gap and one-sided fields all occur
    assert verdicts == {(True, False), (False, False), (False, True)}


def test_subharmonic_strip_positive_for_convex_model():
    dom = build_domain("rectangle", 49, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    u = xs**2 + ys**2
    rep = check_subharmonic_strip(dom, u, 0.25, 0.75)
    assert rep.passed
    assert rep.min_laplacian == pytest.approx(4.0, rel=1e-6)


def test_subharmonic_strip_flags_concave_model():
    dom = build_domain("rectangle", 49, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    u = 1.0 - xs**2 - ys**2
    rep = check_subharmonic_strip(dom, u, 0.75, 0.75)
    assert not rep.passed
    assert rep.min_laplacian < 0


def test_subharmonic_strip_location_ignores_rounding_ties():
    # the strip minimum sits on the mirror pair (-x*, 0), (x*, 0); lowering
    # either node's Laplacian by rounding must not move the named location
    dom = build_domain("rectangle", 49, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    u = 1.0 - xs**2 - ys**2 - 0.5 * xs**4 + 0.1 * ys**4
    u = 0.5 * (u + np.flip(u, 0))
    rep = check_subharmonic_strip(dom, u, 0.75, 0.75)
    assert rep.location[0] < 0 and rep.location[1] == 0.0
    i = int(np.argmin(np.abs(dom.axes[0] - rep.location[0])))
    for node in ((i, 24), (48 - i, 24)):
        bumped = u.copy()
        bumped[node] = np.nextafter(u[node], np.inf)
        moved = check_subharmonic_strip(dom, bumped, 0.75, 0.75)
        assert moved.location == rep.location
        # the reported value is still the minimum: the bumped node's
        assert moved.min_laplacian < rep.min_laplacian
        assert moved.min_laplacian == pytest.approx(rep.min_laplacian, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_point_free_level_sets_give_empty_rows(dim):
    # a plateau at the level (degenerate) and a level the field never
    # reaches (empty) have no crossing rows; every consumer handles that
    if dim == 1:
        dom = build_domain("interval", 17, bounds=(-1.0, 1.0))
    else:
        dom = build_domain("rectangle", 17, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    ym = build_ymesh(0.75, 1.0, span_factor=1.0, layers=8)
    n_cells = 16**dim
    for level, degenerate in ((0.3, True), (0.5, False)):
        u = np.full(dom.grid_shape, 0.3)
        fb = extract_free_boundary(dom, u, level)
        assert fb.degenerate == degenerate
        for rows in (fb.locations, fb.gradients, fb.owners):
            assert rows.shape == (0, dim)
        assert fb.regular.shape == (0,)
        assert fb.cells.shape == ((n_cells, dim) if degenerate else (0, dim))
        assert census_reach(dom, u, level, ym.Y) == 0.0
        with pytest.raises(ValueError, match="no free boundary"):
            check_subharmonic_strip(dom, u, level, 0.75)
        w = ExtensionField(domain=dom, ymesh=ym, s=0.75,
                           values=np.repeat(u[..., None], ym.M + 1, axis=-1))
        cen = singular_census(w, level, 1.0)
        assert (cen.n_points, cen.n_regular, cen.n_clusters) == (0, 0, 0)
        assert cen.n_cells == (n_cells if degenerate else 0)
        assert cen.singular_locations == cen.unresolved_locations == []
        assert ("degenerate" in cen.note) == degenerate


def test_subharmonic_strip_requires_large_order():
    dom = build_domain("rectangle", 25, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        check_subharmonic_strip(dom, np.zeros(dom.grid_shape), 0.0, 0.5)


# -- census --------------------------------------------------------------------------


def test_census_all_regular_for_radial_bump():
    s = 0.75
    dom = build_domain("rectangle", 49, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    ym = build_ymesh(s, 1.0, span_factor=1.0, layers=48)
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    tr = 1.0 - xs**2 - ys**2
    vals = tr[..., None] * np.exp(-ym.nodes)     # positive decaying layers
    w = ExtensionField(domain=dom, ymesh=ym, s=s, values=vals)
    cen = singular_census(w, 0.5, 1.0)
    assert cen.n_points > 0
    assert cen.n_regular == cen.n_points
    assert cen.singular_locations == []


def test_census_finds_synthetic_singular_point():
    # even singular crossing: trace x^2 - y^2-type saddle has a degenerate
    # gradient at the origin and frequency 2 there
    s = 0.5
    a = 0.0
    dom = build_domain("rectangle", 81, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    ym = build_ymesh(s, 1.0, span_factor=1.0, layers=64)
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    y = ym.nodes[None, None, :]
    vals = (xs**2 - ys**2)[..., None] + 0.0 * y   # thin saddle, constant in y
    # make it a-harmonic: x^2 - y_thin^2 is harmonic in the thin plane and
    # constant in y, hence a-harmonic for a = 0 (s = 1/2)
    w = ExtensionField(domain=dom, ymesh=ym, s=s, values=vals)
    cen = singular_census(w, 0.0, 0.0)
    assert len(cen.singular_locations) + len(cen.unresolved_locations) >= 1
    if cen.singular_locations:
        loc = np.array(cen.singular_locations[0])
        assert np.linalg.norm(loc) < 5 * dom.h


def _saddle():
    # the thin saddle of the test above, a-harmonic for s = 1/2
    s = 0.5
    dom = build_domain("rectangle", 81, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    ym = build_ymesh(s, 1.0, span_factor=1.0, layers=64)
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    vals = np.repeat((xs**2 - ys**2)[..., None], ym.M + 1, axis=-1)
    return ExtensionField(domain=dom, ymesh=ym, s=s, values=vals)


def test_census_on_its_prefix_equals_full_census_of_plasma_solution(square25):
    dom, basis = square25
    s, gamma = 0.75, 0.1
    lam = 4.0 * float(basis.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis, lam, gamma, s)
    ym = build_ymesh(s, float(basis.eigenvalues[0]))
    full = singular_census(extend_semianalytic(sol.field, s, ym), gamma, lam)
    reach = census_reach(dom, sol.trace, gamma, ym.Y)
    short = ym.prefix(reach)
    assert 0 < reach <= short.Y and short.M < ym.M // 4
    prefix = singular_census(extend_semianalytic(sol.field, s, short), gamma, lam, ym.Y)
    assert full.n_clusters > 0
    assert prefix == full


def test_census_on_its_prefix_equals_full_census_of_saddle():
    w = _saddle()
    full = singular_census(w, 0.0, 0.0)
    reach = census_reach(w.domain, w.trace, 0.0, w.ymesh.Y)
    short = w.ymesh.prefix(reach)
    assert short.M < w.ymesh.M
    view = ExtensionField(domain=w.domain, ymesh=short, s=w.s,
                          values=w.values[..., :short.M + 1])
    prefix = singular_census(view, 0.0, 0.0, w.ymesh.Y)
    assert len(full.singular_locations) + len(full.unresolved_locations) >= 1
    assert prefix == full
    # one layer short of the reach is refused, not read past its end
    cut = w.ymesh.prefix(w.ymesh.nodes[short.M - 1])
    with pytest.raises(ValueError, match="census reach"):
        singular_census(ExtensionField(domain=w.domain, ymesh=cut, s=w.s,
                                       values=w.values[..., :cut.M + 1]),
                        0.0, 0.0, w.ymesh.Y)


def test_census_reach_is_zero_when_every_point_is_regular():
    dom = build_domain("rectangle", 49, bounds=((-1.0, 1.0), (-1.0, 1.0)))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    assert census_reach(dom, 1.0 - xs**2 - ys**2, 0.5, 1.0) == 0.0


def _rows(fb, order):
    """The free boundary with its point rows taken in ``order``."""
    return replace(fb, locations=fb.locations[order], gradients=fb.gradients[order],
                   regular=fb.regular[order], owners=fb.owners[order])


def _extract_reversed(monkeypatch):
    forward = freeboundary.extract_free_boundary

    def backward(*args, **kwargs):
        found = forward(*args, **kwargs)
        return _rows(found, np.arange(len(found.locations))[::-1])

    monkeypatch.setattr(freeboundary, "extract_free_boundary", backward)


def test_census_independent_of_point_order(monkeypatch):
    # on the 17-node square at s = 0.5 the one unresolved cluster is mirror
    # symmetric, so its members tie in distance to the centroid
    s, gamma = 0.5, 0.1
    dom = build_domain("rectangle", 17, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, dom.n_interior)
    lam = 4.0 * float(basis.eigenvalues[0] ** s)
    sol = solve_fixed_lambda(basis, lam, gamma, s)
    w = extend_semianalytic(sol.field, s, build_ymesh(s, float(basis.eigenvalues[0])))
    forward = singular_census(w, gamma, lam)
    _extract_reversed(monkeypatch)
    backward = singular_census(w, gamma, lam)
    assert len(forward.unresolved_locations) == 1
    assert backward.unresolved_locations == forward.unresolved_locations
    assert backward.singular_locations == forward.singular_locations
    assert ((backward.n_points, backward.n_regular, backward.n_clusters)
            == (forward.n_points, forward.n_regular, forward.n_clusters))


@pytest.mark.parametrize("reverse", [False, True])
def test_census_lists_cluster_representatives_by_location(monkeypatch, reverse):
    # two clusters, each a mirror-image pair about its centroid, listed with
    # the far cluster first; every cluster classifies as unresolved
    dom = build_domain("rectangle", 17, bounds=((0.0, 2.0), (0.0, 2.0)))
    ym = build_ymesh(0.5, 1.0, span_factor=1.0, layers=8)
    w = ExtensionField(domain=dom, ymesh=ym, s=0.5,
                       values=np.zeros(dom.grid_shape + (ym.M + 1,)))
    owners = np.array([(12, 12), (12, 11), (2, 1), (1, 1)])
    locations = np.array([(1.5, 1.6), (1.5, 1.4), (0.3, 0.2), (0.1, 0.2)])
    fb = FreeBoundary(locations=locations, gradients=np.zeros((4, 2)),
                      regular=np.zeros(4, dtype=bool), owners=owners, cells=owners)
    if reverse:
        fb = _rows(fb, [3, 2, 1, 0])
    monkeypatch.setattr(freeboundary, "extract_free_boundary", lambda *args: fb)
    monkeypatch.setattr(freeboundary, "classify_point",
                        lambda *args: Classification("unresolved", 0.0, np.nan,
                                                     np.nan, np.nan))
    cen = singular_census(w, 0.0, 1.0)
    assert cen.n_clusters == 2
    assert cen.unresolved_locations == [(0.1, 0.2), (1.5, 1.4)]
