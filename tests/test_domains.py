import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fracplasma import (build_domain, build_ymesh, eigendecompose, extend_fd,
                        laplacian_matrix)


def test_interval_nodes_and_masks():
    dom = build_domain("interval", 9, bounds=(0.0, 2.0))
    assert dom.dim == 1
    assert dom.h == pytest.approx(0.25)
    assert dom.n_interior == 7
    assert dom.interior.sum() == 7
    np.testing.assert_allclose(dom.axes[0], np.linspace(0.0, 2.0, 9))


def test_rectangle_grid_shape_and_spacing():
    dom = build_domain("rectangle", (9, 17),
                       bounds=((0.0, 1.0), (0.0, 2.0)))
    assert dom.dim == 2
    assert dom.grid_shape == (9, 17)
    assert dom.h == pytest.approx(0.125)
    assert dom.n_interior == 7 * 15


def test_rectangle_rejects_mismatched_spacing():
    with pytest.raises(ValueError):
        build_domain("rectangle", (9, 9), bounds=((0.0, 1.0), (0.0, 2.0)))


def test_disk_interior_is_strictly_inside():
    dom = build_domain("disk", 33, bounds=((-1.1, 1.1), (-1.1, 1.1)),
                       radius=1.0, center=(0.0, 0.0))
    xs, ys = np.meshgrid(*dom.axes, indexing="ij")
    r2 = xs**2 + ys**2
    assert np.all(r2[dom.interior] < 1.0)
    assert not np.any(dom.interior & (r2 >= 1.0))


def _inner_box(shape):
    box = np.zeros(shape, dtype=bool)
    box[(slice(1, -1),) * len(shape)] = True
    return box


@pytest.mark.parametrize("n, lo, hi", [(3, 0.0, 1.0), (9, -1.0, 1.0),
                                        (129, 0.0, np.pi), (257, 0.5, 2.0)])
def test_interval_domain_fields(n, lo, hi):
    dom = build_domain("interval", n, bounds=(lo, hi))
    assert (dom.dim, dom.shape, dom.grid_shape) == (1, "interval", (n,))
    assert np.array_equal(dom.axes[0], np.linspace(lo, hi, n))
    assert dom.h == dom.axes[0][1] - dom.axes[0][0]
    assert dom.center == ((lo + hi) / 2,) and dom.radius is None
    assert np.array_equal(dom.interior, _inner_box((n,)))
    assert dom.symmetry_axes == (0,)


@pytest.mark.parametrize("n, bounds", [
    (9, ((0.0, 1.0), (0.0, 1.0))),
    ((9, 17), ((0.0, 1.0), (0.0, 2.0))),
    ([33, 17], ((-np.pi, np.pi), (0.0, np.pi))),
])
def test_rectangle_domain_fields(n, bounds):
    dom = build_domain("rectangle", n, bounds=bounds)
    counts = (n, n) if np.isscalar(n) else tuple(n)
    assert (dom.dim, dom.shape, dom.grid_shape) == (2, "rectangle", counts)
    for ax, (lo, hi), k in zip(dom.axes, bounds, counts):
        assert np.array_equal(ax, np.linspace(lo, hi, k))
    assert dom.h == dom.axes[0][1] - dom.axes[0][0]
    assert dom.center == tuple((lo + hi) / 2 for lo, hi in bounds)
    assert dom.radius is None
    assert np.array_equal(dom.interior, _inner_box(counts))
    assert dom.symmetry_axes == (0, 1)


@pytest.mark.parametrize("center, symmetry_axes", [
    ((0.0, 0.0), (0, 1)),        # centred in its box
    ((1e-9, 0.0), (0, 1)),       # off centre by less than moves a node
    ((0.25, 0.0), (1,)),         # two cells off centre along x
    ((0.25, -0.125), ()),        # off centre along both axes
])
def test_disk_domain_fields(center, symmetry_axes):
    bounds = ((-1.5, 1.5), (-1.5, 1.5))
    # no node lies within 7e-4 of the circle
    dom = build_domain("disk", 25, bounds=bounds, radius=1.03, center=center)
    assert (dom.dim, dom.shape, dom.grid_shape) == (2, "disk", (25, 25))
    for ax in dom.axes:
        assert np.array_equal(ax, np.linspace(-1.5, 1.5, 25))
    assert dom.h == 0.125
    assert dom.center == center and dom.radius == 1.03
    x, y = np.meshgrid(*dom.axes, indexing="ij")
    inside = (x - center[0]) ** 2 + (y - center[1]) ** 2 < 1.03**2
    assert np.array_equal(dom.interior, inside & _inner_box((25, 25)))
    assert dom.symmetry_axes == symmetry_axes


_SQUARE = ((-1.5, 1.5), (-1.5, 1.5))


@pytest.mark.parametrize("args, kwargs, message", [
    (("torus", 9), {"bounds": (0.0, 1.0)}, "unknown domain kind 'torus'"),
    (("interval", 9), {}, "interval requires bounds=(lo, hi)"),
    (("rectangle", 9), {}, "rectangle requires bounds=((lox, hix), (loy, hiy))"),
    (("disk", 9), {"radius": 1.0, "center": (0.0, 0.0)},
     "disk requires bounds=((lox, hix), (loy, hiy))"),
    (("interval", 9), {"bounds": (1.0, 0.0)},
     "axis bounds must satisfy lo < hi, got (1.0, 0.0)"),
    (("rectangle", 9), {"bounds": ((0.0, 1.0), (2.0, 2.0))},
     "axis bounds must satisfy lo < hi, got (2.0, 2.0)"),
    (("interval", 2), {"bounds": (0.0, 1.0)}, "need at least 3 nodes per axis, got 2"),
    (("rectangle", (9, 2)), {"bounds": ((0.0, 1.0), (0.0, 1.0))},
     "need at least 3 nodes per axis, got 2"),
    (("rectangle", 9), {"bounds": ((0.0, 1.0), (0.0, 2.0))},
     "grid spacing must agree on both axes (got 0.125 and 0.25); "
     "choose node counts commensurate with the side lengths"),
    (("rectangle", 9), {"bounds": ((0.0, 1.0),) * 3},
     "too many values to unpack (expected 2)"),
    (("rectangle", 9), {"bounds": ((0.0, 1.0),)},
     "not enough values to unpack (expected 2, got 1)"),
    (("disk", 25), {"bounds": _SQUARE, "radius": 1.0}, "disk requires radius and center"),
    (("disk", 25), {"bounds": _SQUARE, "center": (0.0, 0.0)},
     "disk requires radius and center"),
    (("disk", 25), {"bounds": _SQUARE, "radius": 0.0, "center": (0.0, 0.0)},
     "disk radius must be positive"),
    (("disk", 25), {"bounds": _SQUARE, "radius": 1.0, "center": (0.6, 0.0)},
     "disk must sit strictly inside its bounding box"),
    (("disk", 3), {"bounds": ((-1.0, 1.0), (-1.0, 1.0)), "radius": 0.4,
                   "center": (0.5, 0.5)},
     "disk mask has no interior nodes; refine the grid"),
    # surplus or missing entries are refused, never dropped
    (("interval", [9, 5]), {"bounds": (0.0, 1.0)},
     "n must be an int or 1 node count, one per axis, got 2"),
    (("rectangle", [9, 9, 9]), {"bounds": ((0.0, 1.0), (0.0, 1.0))},
     "n must be an int or 2 node counts, one per axis, got 3"),
    (("rectangle", [9]), {"bounds": ((0.0, 1.0), (0.0, 1.0))},
     "n must be an int or 2 node counts, one per axis, got 1"),
    (("disk", 25), {"bounds": _SQUARE, "radius": 1.0, "center": (0.0, 0.0, 7.0)},
     "disk center must have 2 coordinates, got 3"),
    (("disk", 25), {"bounds": _SQUARE, "radius": 1.0, "center": (0.0,)},
     "disk center must have 2 coordinates, got 1"),
    # non-finite numbers fail the same range checks
    (("interval", 9), {"bounds": (0.0, float("nan"))},
     "axis bounds must satisfy lo < hi, got (0.0, nan)"),
    (("interval", 9), {"bounds": (0.0, float("inf"))},
     "axis bounds must satisfy lo < hi, got (0.0, inf)"),
    (("disk", 25), {"bounds": _SQUARE, "radius": float("nan"), "center": (0.0, 0.0)},
     "disk radius must be positive"),
    (("disk", 25), {"bounds": _SQUARE, "radius": 1.0, "center": (float("nan"), 0.0)},
     "disk must sit strictly inside its bounding box"),
])
def test_build_domain_refusals(args, kwargs, message):
    with pytest.raises(ValueError) as info:
        build_domain(*args, **kwargs)
    assert str(info.value) == message


def test_interval_eigenpairs_match_closed_form():
    dom = build_domain("interval", 41, bounds=(0.0, np.pi))
    basis = eigendecompose(dom, 12)
    lam_ref, V_ref = oracles.interval_eigenpairs(0.0, np.pi, 41, 12)
    np.testing.assert_allclose(basis.eigenvalues, lam_ref, rtol=1e-12)
    np.testing.assert_allclose(basis.vectors, V_ref, atol=1e-10)


def test_eigenvectors_discretely_orthonormal():
    dom = build_domain("rectangle", 13, bounds=((0.0, 1.0), (0.0, 1.0)))
    basis = eigendecompose(dom, 30)
    G = dom.h**2 * basis.vectors.T @ basis.vectors
    np.testing.assert_allclose(G, np.eye(30), atol=1e-11)


def test_eigenpairs_satisfy_stencil_equation():
    dom = build_domain("rectangle", 13, bounds=((0.0, 1.0), (0.0, 1.0)))
    basis = eigendecompose(dom, 20)
    A = laplacian_matrix(dom).toarray()
    resid = A @ basis.vectors - basis.vectors * basis.eigenvalues
    assert np.abs(resid).max() < 1e-9


def test_rectangle_eigenvalues_are_tensor_sums():
    dom = build_domain("rectangle", (11, 21),
                       bounds=((0.0, 1.0), (0.0, 2.0)))
    basis = eigendecompose(dom, 25)
    ref = oracles.rectangle_eigenvalues(((0.0, 1.0), (0.0, 2.0)), 11, 21, 25)
    np.testing.assert_allclose(basis.eigenvalues, ref, rtol=1e-12)


# the 21-node disk has m = 221 interior nodes: K <= m // 12 = 18 runs the
# sparse eigsh, 18 < K < 221 the subset eigh, K = 221 the complete eigh
@pytest.mark.parametrize("K, solver", [(8, "eigsh"), (60, "subset-eigh"),
                                       (221, "full-eigh")],
                         ids=["eigsh", "subset-eigh", "full-eigh"])
def test_disk_eigenvalues_match_dense_oracle(K, solver, monkeypatch):
    dom = build_domain("disk", 21, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                       radius=1.0, center=(0.0, 0.0))
    lam_ref, V_ref = oracles.dense_dirichlet_eigh(dom.grid_shape, dom.h, dom.interior)

    def forbidden(*args, **kwargs):
        raise AssertionError("the other eigensolver was called")

    if solver == "eigsh":
        monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
    else:
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", forbidden)
    basis = eigendecompose(dom, K)
    np.testing.assert_allclose(basis.eigenvalues, lam_ref[:K], rtol=1e-12)
    V, w = basis.vectors, dom.h**dom.dim
    # clusters of the oracle spectrum that the basis holds completely
    breaks = np.flatnonzero(np.diff(lam_ref) > 1e-9 * lam_ref[-1]) + 1
    edges = [0, *breaks, len(lam_ref)]
    n_checked = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > K:
            break
        P = w * V[:, lo:hi] @ V[:, lo:hi].T
        P_ref = w * V_ref[:, lo:hi] @ V_ref[:, lo:hi].T
        np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-10)
        n_checked += hi - lo
    assert n_checked >= K - 1  # at most the cluster cut by K is skipped
    # LAPACK's MRRR driver (evr) keeps the complete basis orthonormal to
    # O(m eps) only: 1.1e-13 here
    np.testing.assert_allclose(w * V.T @ V, np.eye(K), rtol=0, atol=1e-12)
    for col in V.T:
        first = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
        assert col[first] > 0


def test_stencil_application_matches_oracle():
    rng = np.random.default_rng(3)
    dom = build_domain("rectangle", 15, bounds=((0.0, 1.0), (0.0, 1.0)))
    A = laplacian_matrix(dom).toarray()
    v = rng.standard_normal(dom.n_interior)
    U = np.zeros(dom.grid_shape)
    U[dom.interior] = v
    ref = oracles.neg_laplacian_full(U, dom.h)[dom.interior]
    np.testing.assert_allclose(A @ v, ref, rtol=1e-12, atol=1e-12)


def test_first_eigenvector_positive():
    for dom in (
        build_domain("interval", 33, bounds=(0.0, np.pi)),
        build_domain("rectangle", 11, bounds=((0.0, 1.0), (0.0, 1.0))),
    ):
        basis = eigendecompose(dom, 1)
        assert basis.vectors[:, 0].min() > 0


@given(st.integers(min_value=5, max_value=60))
def test_interval_eigenvalue_count_and_order(m):
    dom = build_domain("interval", m + 2, bounds=(0.0, 1.0))
    basis = eigendecompose(dom, m)
    assert basis.size == m
    assert np.all(np.diff(basis.eigenvalues) > 0)
    assert basis.eigenvalues[0] > 0


def test_pack_unpack_roundtrip():
    dom = build_domain("rectangle", 9, bounds=((0.0, 1.0), (0.0, 1.0)))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dom.n_interior)
    U = np.zeros(dom.grid_shape)
    U[dom.interior] = v
    np.testing.assert_array_equal(U[dom.interior], v)
    assert np.all(U[~dom.interior] == 0.0)


# -- closed-form tensor-sine basis against a dense eigh oracle ----------------------

SINE_CASES = [
    # (nodes per axis, bounds, K); the truncated K values cut through a
    # degenerate cluster, so only complete clusters can be compared
    (13, ((0.0, 1.0), (0.0, 1.0)), 121),
    (13, ((0.0, 1.0), (0.0, 1.0)), 30),
    ((11, 21), ((0.0, 1.0), (0.0, 2.0)), 171),
    ((11, 21), ((0.0, 1.0), (0.0, 2.0)), 45),
]


@pytest.fixture(params=SINE_CASES, ids=["square13-full", "square13-K30",
                                        "rect11x21-full", "rect11x21-K45"])
def sine_case(request):
    n, bounds, K = request.param
    dom = build_domain("rectangle", n, bounds=bounds)
    lam_ref, V_ref = oracles.dense_dirichlet_eigh(dom.grid_shape, dom.h)
    return dom, eigendecompose(dom, K), lam_ref, V_ref


def test_sine_basis_eigenvalues_match_dense_oracle(sine_case):
    dom, basis, lam_ref, _ = sine_case
    np.testing.assert_allclose(basis.eigenvalues, lam_ref[:basis.size], rtol=1e-12)


def test_sine_basis_cluster_projectors_match_dense_oracle(sine_case):
    dom, basis, lam_ref, V_ref = sine_case
    w = dom.h**dom.dim
    # clusters of the oracle spectrum that the basis holds completely
    breaks = np.flatnonzero(np.diff(lam_ref) > 1e-9 * lam_ref[-1]) + 1
    edges = [0, *breaks, len(lam_ref)]
    n_checked = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > basis.size:
            break
        P = w * basis.vectors[:, lo:hi] @ basis.vectors[:, lo:hi].T
        P_ref = w * V_ref[:, lo:hi] @ V_ref[:, lo:hi].T
        np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-10)
        n_checked += hi - lo
    assert n_checked >= basis.size - 3  # at most the cluster cut by K is skipped


def test_sine_basis_orthonormal_with_sign_convention(sine_case):
    dom, basis, _, _ = sine_case
    V = basis.vectors
    G = dom.h**dom.dim * V.T @ V
    np.testing.assert_allclose(G, np.eye(basis.size), rtol=0, atol=1e-13)
    for col in V.T:
        first = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
        assert col[first] > 0


def test_sine_basis_is_bitwise_reproducible(sine_case):
    dom, basis, _, _ = sine_case
    again = eigendecompose(dom, basis.size)
    assert again.eigenvalues.tobytes() == basis.eigenvalues.tobytes()
    assert again.vectors.tobytes() == basis.vectors.tobytes()


def test_square_tied_pairs_keep_row_major_order():
    dom = build_domain("rectangle", 49, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, dom.n_interior)
    shape = tuple(n - 2 for n in dom.grid_shape)
    # (j, k) of every column from its sine transform, independent of the basis
    modes = np.array([np.unravel_index(np.argmax(np.abs(scipy.fft.dstn(
        col.reshape(shape), type=1))), shape) for col in basis.vectors.T])
    ties = np.flatnonzero(basis.eigenvalues[1:] == basis.eigenvalues[:-1])
    assert len(ties) > 500
    assert np.all(modes[ties, 0] < modes[ties + 1, 0])
    # the first pair: (1, 2) before (2, 1), so the first varies along y
    X, Y = np.meshgrid(*dom.axes, indexing="ij")
    ref = (2.0 / np.pi) * np.sin(X) * np.sin(2 * Y)
    np.testing.assert_allclose(basis.vectors[:, 1], ref[dom.interior], atol=1e-13)


@pytest.mark.parametrize("n", [25, 49, 257])
def test_sampled_sines_are_mirror_exact(n):
    from fracplasma.domains import _sine_vectors
    S = _sine_vectors(n)
    parity = (-1.0) ** (np.arange(1, n - 1) + 1)
    # row n-1-j (node x_{n-1-j}) equals row j times the mode's parity, exactly
    assert np.array_equal(S[::-1], S * parity)


def test_square_basis_is_mirror_exact_in_both_axes():
    dom = build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, dom.n_interior)
    grid = basis.vectors.reshape(23, 23, -1)
    for axis in (0, 1):
        flipped = np.flip(grid, axis=axis)
        # each mode is even or odd about the midline, with no rounding
        signs = np.sign(np.sum(flipped * grid, axis=(0, 1)))
        assert np.all(np.abs(signs) == 1)
        assert np.array_equal(flipped, grid * signs)


# -- matrix-free sine transforms against dense sampled-sine products ----------------

PI_SQUARE = ((0.0, np.pi), (0.0, np.pi))
# K = 400 and 700 are the suite's truncated squares, whose cutoffs split
# degenerate clusters.  The 257-node interval and the 97-node square are the
# largest grids whose transform is a table product, the 513-node interval
# and the 129-node square the smallest that go through scipy.fft.
TRANSFORM_CASES = {
    "interval129-full": ("interval", 129, (0.0, np.pi), None),
    "interval129-K40": ("interval", 129, (0.0, np.pi), 40),
    "interval257-full": ("interval", 257, (0.0, np.pi), None),
    "interval513-full": ("interval", 513, (0.0, np.pi), None),
    "square25-full": ("rectangle", 25, PI_SQUARE, None),
    "square49-K400": ("rectangle", 49, PI_SQUARE, 400),
    "square81-K700": ("rectangle", 81, PI_SQUARE, 700),
    "square97-K600": ("rectangle", 97, PI_SQUARE, 600),
    "square129-K300": ("rectangle", 129, PI_SQUARE, 300),
    "rect11x21-full": ("rectangle", (11, 21), ((0.0, 1.0), (0.0, 2.0)), None),
    "rect21x11-K45": ("rectangle", (21, 11), ((0.0, 2.0), (0.0, 1.0)), 45),
}


@pytest.fixture(params=list(TRANSFORM_CASES.values()), ids=list(TRANSFORM_CASES))
def transform_case(request):
    kind, n, bounds, K = request.param
    dom = build_domain(kind, n, bounds=bounds)
    basis = eigendecompose(dom, K or dom.n_interior)
    lam_ref, V_ref = oracles.sine_basis(dom.grid_shape, dom.h, basis.size)
    return basis, lam_ref, V_ref


def test_sine_transforms_match_dense_products(transform_case):
    basis, lam_ref, V_ref = transform_case
    dom = basis.domain
    rng = np.random.default_rng(11)
    np.testing.assert_array_equal(basis.eigenvalues, lam_ref)
    a = rng.standard_normal((basis.size, 3))
    v = rng.standard_normal((dom.n_interior, 3))
    nodal_ref, coef_ref = V_ref @ a, dom.h**dom.dim * (V_ref.T @ v)
    # single vectors and batches over a trailing axis
    np.testing.assert_allclose(basis.nodal(a[:, 0]), nodal_ref[:, 0], rtol=0,
                               atol=1e-12 * np.abs(nodal_ref).max())
    np.testing.assert_allclose(basis.nodal(a), nodal_ref, rtol=0,
                               atol=1e-12 * np.abs(nodal_ref).max())
    np.testing.assert_allclose(basis.coefficients(v[:, 1]), coef_ref[:, 1], rtol=0,
                               atol=1e-12 * np.abs(coef_ref).max())
    np.testing.assert_allclose(basis.coefficients(v), coef_ref, rtol=0,
                               atol=1e-12 * np.abs(coef_ref).max())
    # more than one trailing axis
    np.testing.assert_allclose(basis.nodal(a[:, None, :])[:, 0], nodal_ref, rtol=0,
                               atol=1e-12 * np.abs(nodal_ref).max())
    np.testing.assert_allclose(basis.coefficients(v[:, :, None])[..., 0], coef_ref,
                               rtol=0, atol=1e-12 * np.abs(coef_ref).max())
    weights = rng.uniform(0.5, 2.0, basis.size)
    ref = V_ref @ (weights * coef_ref[:, 2])
    np.testing.assert_allclose(basis.spectral_apply(v[:, 2], weights), ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())
    # the oracle's unreduced phases pi j k / (n - 1) reach about pi n, where
    # np.sin loses about eps * pi * n (the package reduces them exactly)
    scale = np.abs(V_ref).max() * max(1e-13, np.finfo(float).eps * np.pi
                                      * max(dom.grid_shape))
    mask = rng.random(dom.n_interior) < 0.1
    np.testing.assert_allclose(basis.rows(mask), V_ref[mask], rtol=0, atol=scale)
    nodes, modes = [5, 0, 17], [2, 0, basis.size - 1]
    np.testing.assert_allclose(basis.rows(nodes, modes), V_ref[nodes][:, modes],
                               rtol=0, atol=scale)
    # none of the above builds the dense matrix
    assert "vectors" not in basis.__dict__
    np.testing.assert_allclose(basis.vectors, V_ref, rtol=0, atol=scale)
    assert "vectors" in basis.__dict__
    assert basis.rows(mask).tobytes() == basis.vectors[mask].tobytes()


@pytest.mark.parametrize("shape, by_tables", [
    ((255,), True), ((511,), False), ((95, 95), True), ((127, 127), False),
    ((255, 39), True), ((255, 40), False), ((23, 511), False)])
def test_sine_transform_path_follows_the_grid_shape(shape, by_tables, monkeypatch):
    from fracplasma import domains

    def forbidden(*args, **kwargs):
        raise AssertionError("the other transform path was taken")

    grid = domains._SineGrid(shape)
    assert grid.by_tables == by_tables
    if by_tables:
        monkeypatch.setattr(scipy.fft, "dstn", forbidden)
    else:
        monkeypatch.setattr(domains, "_sine_vectors", forbidden)
    values = np.random.default_rng(5).standard_normal(shape + (2,))
    # orthonormal and its own inverse on either path
    np.testing.assert_allclose(grid.transform(grid.transform(values)), values,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(grid.transform(values[..., 0])[..., None],
                               grid.transform(values[..., :1]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, n, by_tables", [
    ("interval", 257, True), ("interval", 513, False),
    ("rectangle", 97, True), ("rectangle", 129, False)])
def test_basis_and_slab_transforms_take_the_grid_path(kind, n, by_tables, monkeypatch):
    from fracplasma import domains

    def forbidden(*args, **kwargs):
        raise AssertionError("the other transform path was taken")

    bounds = (0.0, np.pi) if kind == "interval" else PI_SQUARE
    dom = build_domain(kind, n, bounds=bounds)
    basis = eigendecompose(dom, 50)
    if by_tables:
        monkeypatch.setattr(scipy.fft, "dstn", forbidden)
    else:
        monkeypatch.setattr(domains, "_sine_vectors", forbidden)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(dom.n_interior)
    a = basis.coefficients(v)
    np.testing.assert_allclose(basis.coefficients(basis.nodal(a)), a, rtol=0,
                               atol=1e-12 * np.abs(a).max())
    weights = np.ones(basis.size)
    np.testing.assert_allclose(basis.spectral_apply(v, weights), basis.nodal(a),
                               rtol=0, atol=1e-12 * np.abs(v).max())
    # the finite-volume extension transforms through the complete basis;
    # its layers obey the discrete maximum principle
    trace = dom.embed(v)
    w = extend_fd(dom, trace, 0.75, build_ymesh(0.75, float(basis.eigenvalues[0]),
                                                layers=8))
    assert np.array_equal(w.trace, trace)
    assert np.abs(w.values).max() <= np.abs(v).max() * (1 + 1e-12)
    assert np.abs(w.values[..., 1]).max() > 0


def test_sine_vectors_are_the_rows_of_every_node():
    dom = build_domain("rectangle", (13, 25), bounds=((0.0, 1.0), (0.0, 2.0)))
    basis = eigendecompose(dom, 150)
    assert basis.rows(slice(None)).tobytes() == basis.vectors.tobytes()


def test_disk_basis_methods_are_dense_products():
    dom = build_domain("disk", 21, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                       radius=1.0, center=(0.0, 0.0))
    basis = eigendecompose(dom, 40)
    V = basis.vectors
    rng = np.random.default_rng(2)
    a, v = rng.standard_normal(40), rng.standard_normal(dom.n_interior)
    np.testing.assert_allclose(basis.nodal(a), V @ a, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(basis.coefficients(v), dom.h**2 * (V.T @ v),
                               rtol=1e-13, atol=1e-13)
    mask = rng.random(dom.n_interior) < 0.2
    np.testing.assert_array_equal(basis.rows(mask, [0, 3]), V[mask][:, [0, 3]])


# B = K columns (which a weighting along the column axis would pass
# silently) and B != K columns, on a table sine basis, a dstn sine basis and
# a disk basis
@pytest.mark.parametrize("kind, n, K", [("interval", 9, None), ("interval", 513, 20),
                                        ("disk", 21, 30)])
@pytest.mark.parametrize("extra", [0, 3])
def test_spectral_apply_weights_each_column_alike(kind, n, K, extra):
    if kind == "interval":
        dom = build_domain("interval", n, bounds=(0.0, np.pi))
    else:
        dom = build_domain("disk", n, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                           radius=1.0, center=(0.0, 0.0))
    basis = eigendecompose(dom, K or dom.n_interior)
    assert basis.columnwise == (n == 513)
    rng = np.random.default_rng(n)
    weights = rng.uniform(0.5, 2.0, basis.size)
    v = rng.standard_normal((dom.n_interior, basis.size + extra))
    ref = np.column_stack([basis.spectral_apply(col, weights) for col in v.T])
    got = basis.spectral_apply(v, weights)
    assert got.shape == v.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
