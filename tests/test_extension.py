from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracplasma import (ExtensionField, SpectralField, YMesh, apply_fractional,
                        build_domain, build_ymesh, check_uy_sign, dtn,
                        eigendecompose, extension_energy_constant, extend_fd,
                        extend_semianalytic, fd_energy, laplacian_matrix,
                        mode_profile, steiner_symmetrize,
                        weighted_energy)


@pytest.fixture(scope="module")
def interval():
    dom = build_domain("interval", 65, bounds=(0.0, np.pi))
    return dom, eigendecompose(dom, dom.n_interior)


# -- mode profile --------------------------------------------------------------------


def test_mode_profile_value_at_zero():
    for s in (0.25, 0.5, 0.75):
        assert mode_profile(s, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_mode_profile_half_is_exponential():
    z = np.linspace(0.0, 30.0, 200)
    np.testing.assert_allclose(mode_profile(0.5, z), np.exp(-z),
                               rtol=1e-12, atol=1e-300)


def test_mode_profile_decays():
    # strictly decreasing up to the cut at z = 40, exact zeros beyond it
    z = np.array([1.0, 5.0, 20.0, 40.0, 100.0, 800.0])
    for s in (0.25, 0.75):
        vals = mode_profile(s, z)
        assert np.all(np.diff(vals[:4]) < 0)
        assert vals[3] > 0.0
        assert np.all(vals[4:] == 0.0)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.75, 0.9, 0.99])
def test_mode_profile_cut_at_forty_within_bound(s):
    z = np.concatenate([np.linspace(0.0, 60.0, 601),
                        [40.0 - 1e-12, 40.0 + 1e-12, 700.0]])
    vals = mode_profile(s, z)
    ref = oracles.bessel_profile(s, z)
    cut = z > 40.0
    # zeros where the profile is cut, within the bound of the formula there,
    # and the formula to rounding everywhere else
    assert np.all(vals[cut] == 0.0)
    assert np.abs(vals[cut] - ref[cut]).max() <= 3.5e-17
    np.testing.assert_allclose(vals[~cut], ref[~cut], rtol=1e-12, atol=0.0)


def test_mode_profile_small_z_flux_power():
    # near zero 1 - psi(z) ~ kappa_s z^{2s}, the signature of the fractional order
    for s in (0.3, 0.7):
        kappa = (4.0 ** (-s) * scipy.special.gamma(1 - s)
                 / (s * scipy.special.gamma(s)))
        z = np.array([1e-6, 3e-6])
        defect = 1.0 - mode_profile(s, z)
        np.testing.assert_allclose(defect, kappa * z ** (2 * s), rtol=2e-3)


def test_energy_constant_matches_quadrature():
    for s in (0.25, 0.5, 0.75):
        assert extension_energy_constant(s) == pytest.approx(
            oracles.mode_energy_integral(s), rel=1e-10)
    assert extension_energy_constant(0.5) == pytest.approx(1.0, rel=1e-13)


def test_constants_reject_integer_order():
    with pytest.raises(ValueError):
        extension_energy_constant(1.0)


# -- y-mesh --------------------------------------------------------------------------


def test_ymesh_span_and_grading():
    ym = build_ymesh(0.5, 4.0, span_factor=20.0, layers=100)
    assert ym.Y == pytest.approx(10.0)
    assert ym.M == 100
    assert ym.nodes[0] == 0.0
    assert ym.nodes[-1] == pytest.approx(ym.Y)
    assert np.all(np.diff(ym.nodes) > 0)
    # graded toward y = 0: first cell much smaller than last
    assert np.diff(ym.nodes)[0] < 0.05 * np.diff(ym.nodes)[-1]


def test_ymesh_minimum_layer_count():
    with pytest.raises(ValueError, match="^layers must be at least 8$"):
        build_ymesh(0.5, 1.0, layers=3)


@pytest.mark.parametrize("span_factor", [0.0, -1.0, np.nan, np.inf])
def test_ymesh_refuses_a_span_factor_that_is_not_positive_and_finite(span_factor):
    with pytest.raises(ValueError, match="^span_factor must be positive$"):
        build_ymesh(0.5, 1.0, span_factor=span_factor)


# -- semianalytic extension ----------------------------------------------------------


def test_semianalytic_trace_reproduces_field(interval):
    dom, basis = interval
    rng = np.random.default_rng(0)
    f = SpectralField(basis, basis.coefficients(rng.standard_normal(dom.n_interior)))
    ym = build_ymesh(0.5, float(basis.eigenvalues[0]))
    w = extend_semianalytic(f, 0.5, ym)
    np.testing.assert_allclose(w.trace, f.full(), atol=1e-12)


def test_semianalytic_single_mode_profile(interval):
    dom, basis = interval
    s = 0.3
    k = 2
    e = np.zeros(basis.size)
    e[k] = 1.0
    f = SpectralField(basis, basis.coefficients(basis.nodal(e)))
    ym = build_ymesh(s, float(basis.eigenvalues[0]))
    w = extend_semianalytic(f, s, ym)
    lam_k = float(basis.eigenvalues[k])
    expected = f.full()[:, None] * mode_profile(s, np.sqrt(lam_k) * ym.nodes)
    np.testing.assert_allclose(w.values, expected, atol=1e-12)


# a square with tied modes (one profile per distinct eigenvalue), a truncated
# square whose cutoff splits a cluster, a rectangle, and a disk mask
@pytest.mark.parametrize("kind, n, bounds, K", [
    ("rectangle", 25, ((0.0, np.pi), (0.0, np.pi)), None),
    ("rectangle", 49, ((0.0, np.pi), (0.0, np.pi)), 400),
    ("rectangle", (21, 11), ((0.0, 2.0), (0.0, 1.0)), None),
    ("disk", 21, ((-1.2, 1.2), (-1.2, 1.2)), 60),
])
def test_semianalytic_matches_dense_mode_sum(kind, n, bounds, K):
    extra = {"radius": 1.0, "center": (0.0, 0.0)} if kind == "disk" else {}
    dom = build_domain(kind, n, bounds=bounds, **extra)
    basis = eigendecompose(dom, K or dom.n_interior)
    if kind == "disk":
        V = basis.vectors
    else:
        _, V = oracles.sine_basis(dom.grid_shape, dom.h, basis.size)
    s = 0.6
    rng = np.random.default_rng(4)
    f = SpectralField(basis, rng.standard_normal(basis.size) / (1 + np.arange(basis.size)))
    ym = build_ymesh(s, float(basis.eigenvalues[0]), layers=40)
    w = extend_semianalytic(f, s, ym)
    psi = mode_profile(s, np.sqrt(basis.eigenvalues)[:, None] * ym.nodes[None, :])
    ref = np.zeros(dom.grid_shape + (ym.M + 1,))
    ref[dom.interior] = V @ (f.coeffs[:, None] * psi)
    np.testing.assert_allclose(w.values, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_ymesh_prefix_ends_at_first_node_reaching_height():
    ym = build_ymesh(0.5, 4.0, layers=100)
    for height, last in ((ym.nodes[7], 7), (0.5 * (ym.nodes[7] + ym.nodes[8]), 8),
                         (1e-300, 1), (ym.Y, ym.M), (2 * ym.Y, ym.M)):
        short = ym.prefix(height)
        assert short.M == last
        assert np.array_equal(short.nodes, ym.nodes[:last + 1])
        assert short.grading == ym.grading


# the disk's 25-node mask has few enough nodes that a product with a handful
# of layers takes another BLAS kernel than one with a full block; the 129-node
# square is past the sine-table rule, so its short blocks go through dstn
# unpadded, as every larger square's do
@pytest.mark.parametrize("kind, n, bounds", [
    ("interval", 65, (0.0, np.pi)),
    ("rectangle", 25, ((0.0, np.pi), (0.0, np.pi))),
    ("disk", 25, ((-1.5, 1.5), (-1.5, 1.5))),
    ("rectangle", 129, ((0.0, np.pi), (0.0, np.pi))),
])
def test_semianalytic_prefix_and_layers_equal_full_extension(kind, n, bounds):
    extra = {"radius": 1.4, "center": (0.0, 0.0)} if kind == "disk" else {}
    dom = build_domain(kind, n, bounds=bounds, **extra)
    basis = eigendecompose(dom, dom.n_interior)
    assert basis.columnwise == (n > 100)
    rng = np.random.default_rng(6)
    f = SpectralField(basis, rng.standard_normal(basis.size) / (1 + np.arange(basis.size)))
    s = 0.75
    ym = build_ymesh(s, float(basis.eigenvalues[0]), layers=200)
    full = extend_semianalytic(f, s, ym).values
    for height in (ym.nodes[32], ym.nodes[33], ym.nodes[38] - 1e-9, 0.5 * ym.Y, ym.Y):
        short = ym.prefix(height)
        w = extend_semianalytic(f, s, short)
        assert np.array_equal(w.ymesh.nodes, short.nodes)
        assert np.array_equal(w.values, full[..., :short.M + 1])
    for picks in ([0, 1, 2, 4, 25, 50, 100, 200], [3, 40, 41, 170], [7], list(range(200, -1, -9))):
        w = extend_semianalytic(f, s, YMesh(nodes=ym.nodes[picks], grading=ym.grading))
        assert np.array_equal(w.ymesh.nodes, ym.nodes[picks])
        assert np.array_equal(w.values, full[..., picks])


def test_dtn_matches_spectral_operator(interval):
    dom, basis = interval
    rng = np.random.default_rng(1)
    f = SpectralField(basis, basis.coefficients(rng.standard_normal(dom.n_interior)))
    lam1 = float(basis.eigenvalues[0])
    for s in (0.25, 0.5, 0.75):
        ym = build_ymesh(s, lam1, span_factor=20.0, layers=200)
        w = extend_semianalytic(f, s, ym)
        flux = dtn(w, lam1=lam1)[dom.interior]
        ref = apply_fractional(f, s).nodal
        assert np.linalg.norm(flux - ref) / np.linalg.norm(ref) < 1e-5


def test_weighted_energy_converges_to_spectral_energy():
    # the slab energy of the extension equals d_s times the fractional
    # Dirichlet form; the bilinear-interpolant quadrature reaches it at
    # second order in the grid spacing on resolved fields
    s = 0.4
    errs = []
    for n in (65, 129):
        dom = build_domain("interval", n, bounds=(0.0, np.pi))
        basis = eigendecompose(dom, dom.n_interior)
        coeffs = np.zeros(basis.size)
        coeffs[:4] = [1.0, 0.3, -0.2, 0.1]
        f = SpectralField(basis, basis.coefficients(basis.nodal(coeffs)))
        ym = build_ymesh(s, float(basis.eigenvalues[0]), span_factor=25.0,
                         layers=300)
        w = extend_semianalytic(f, s, ym)
        spectral = np.sum(basis.eigenvalues**s * f.coeffs**2)
        ref = extension_energy_constant(s) * spectral
        errs.append(abs(weighted_energy(w) - ref) / ref)
    assert errs[1] < 1e-2
    assert errs[1] < 0.35 * errs[0]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.3, 0.7])
def test_weighted_energy_exact_for_linear_field(dim, s):
    # w = 0.3 + 1.7 x_1 - 0.6 y has |grad w|^2 = 1.7^2 + 0.6^2 everywhere and
    # is its own multilinear interpolant, so the energy is exact on any mesh:
    # |grad w|^2 |Omega| Y^(1+a) / (1+a), here on a graded y-mesh
    a = 1.0 - 2.0 * s
    if dim == 1:
        dom = build_domain("interval", 13, bounds=(0.0, 1.5))
    else:
        dom = build_domain("rectangle", (13, 9), bounds=((0.0, 1.5), (0.0, 1.0)))
    ym = build_ymesh(s, 1.0, span_factor=2.0, layers=24)
    assert ym.grading > 1
    x1 = dom.axes[0].reshape((-1,) + (1,) * dim)
    vals = 0.3 + 1.7 * x1 - 0.6 * ym.nodes + np.zeros(dom.grid_shape + (1,))
    w = ExtensionField(domain=dom, ymesh=ym, s=s, values=vals)
    area = 1.5 if dim == 1 else 1.5 * 1.0
    ref = (1.7**2 + 0.6**2) * area * ym.Y ** (1 + a) / (1 + a)
    assert weighted_energy(w) == pytest.approx(ref, rel=1e-13)


# -- finite-difference extension -----------------------------------------------------


@pytest.mark.parametrize("kind, n, bounds", [
    ("interval", 65, (0.0, np.pi)),
    ("rectangle", 25, ((0.0, np.pi), (0.0, np.pi))),
])
def test_weighted_energy_same_bits_in_any_row_block(kind, n, bounds, monkeypatch):
    import fracplasma.extension as extension
    dom = build_domain(kind, n, bounds=bounds)
    basis = eigendecompose(dom, dom.n_interior)
    rng = np.random.default_rng(3)
    f = SpectralField(basis, rng.standard_normal(basis.size) / (1 + np.arange(basis.size)))
    ym = build_ymesh(0.75, float(basis.eigenvalues[0]), layers=40)
    w = extend_semianalytic(f, 0.75, ym)
    whole = weighted_energy(w)
    for cells in (1, 100, 1000):
        monkeypatch.setattr(extension, "_ENERGY_CELLS", cells)
        assert weighted_energy(w) == whole


def test_fd_extension_agrees_with_semianalytic(interval):
    dom, basis = interval
    s = 0.5
    coeffs = np.zeros(basis.size)
    coeffs[:3] = [1.0, 0.3, -0.2]
    f = SpectralField(basis, basis.coefficients(basis.nodal(coeffs)))
    ym = build_ymesh(s, float(basis.eigenvalues[0]), layers=80)
    wsa = extend_semianalytic(f, s, ym)
    wfd = extend_fd(dom, f.full(), s, ym)
    err = np.abs(wfd.values - wsa.values).max() / np.abs(wsa.values).max()
    assert err < 5e-3


def test_fd_extension_preserves_trace(interval):
    dom, _ = interval
    tr = np.sin(dom.axes[0])
    ym = build_ymesh(0.5, 1.0, layers=40)
    w = extend_fd(dom, tr, 0.5, ym)
    np.testing.assert_allclose(w.trace, tr, atol=0.0)


def _fd_domain(kind):
    if kind == "interval":
        return build_domain("interval", 65, bounds=(0.0, np.pi))
    if kind == "rectangle":
        return build_domain("rectangle", (17, 25),
                            bounds=((0.0, 2 * np.pi / 3), (0.0, np.pi)))
    if kind == "square":
        return build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi)))
    return build_domain("disk", 25, bounds=((-1.2, 1.2), (-1.2, 1.2)),
                        radius=1.0, center=(0.0, 0.0))


@pytest.mark.parametrize("layers", [8, 40])
@pytest.mark.parametrize("s", [0.3, 0.75])
@pytest.mark.parametrize("kind", ["interval", "rectangle", "square", "disk"])
def test_fd_extension_matches_sparse_lu_oracle(kind, s, layers):
    dom = _fd_domain(kind)
    ym = build_ymesh(s, 2.0, layers=layers)
    rng = np.random.default_rng(layers)
    signed = dom.embed(rng.standard_normal(dom.n_interior))
    w = extend_fd(dom, signed, s, ym)
    ref = oracles.fd_slab_extension(dom.interior, dom.h, signed, s, ym.nodes)
    assert np.abs(w.values - ref).max() <= 1e-12 * np.abs(ref).max()

    # discrete maximum principle, up to the round-off of the mode transform
    positive = dom.embed(rng.uniform(0.0, 1.0, dom.n_interior))
    w = extend_fd(dom, positive, s, ym)
    assert w.values.min() >= -1e-14 * positive.max()


# -- finite-volume energy in closed form ---------------------------------------------


_ENERGY_DOMAINS = {
    "interval33": ("interval", 33, (0.0, np.pi), {}),
    "square17": ("rectangle", 17, ((0.0, np.pi), (0.0, np.pi)), {}),
    "square25": ("rectangle", 25, ((0.0, np.pi), (0.0, np.pi)), {}),
    "square33": ("rectangle", 33, ((0.0, np.pi), (0.0, np.pi)), {}),
    "disk25": ("disk", 25, ((-1.5, 1.5), (-1.5, 1.5)),
               {"radius": 1.4, "center": (0.0, 0.0)}),
}


@lru_cache(maxsize=None)
def _complete_basis(name):
    kind, n, bounds, extra = _ENERGY_DOMAINS[name]
    dom = build_domain(kind, n, bounds=bounds, **extra)
    return eigendecompose(dom, dom.n_interior)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", ["interval33", "square25", "disk25"])
def test_fd_energy_matches_assembled_slab_sum(name, s):
    basis = _complete_basis(name)
    dom = basis.domain
    ym = build_ymesh(s, float(basis.eigenvalues[0]), layers=16)
    rng = np.random.default_rng(int(10 * s))
    draw = rng.standard_normal if s < 0.5 else rng.random
    trace = dom.embed(draw(dom.n_interior))
    ref = oracles.fd_slab_energy(dom.interior, dom.h, trace, s, ym.nodes)
    assert fd_energy(basis, trace, s, ym) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("layers", [8, 64, 120])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", ["interval33", "square25", "disk25"])
def test_fd_energy_is_face_sum_over_extend_fd_slab(name, s, layers):
    # extend_fd and fd_energy read the same ladder sweep: the energy of the
    # slab extend_fd builds, summed face by face, is what fd_energy returns
    basis = _complete_basis(name)
    dom = basis.domain
    ym = build_ymesh(s, float(basis.eigenvalues[0]), layers=layers)
    trace = dom.embed(np.random.default_rng(layers).standard_normal(dom.n_interior))
    w = extend_fd(dom, trace, s, ym)
    ref = oracles.fd_face_energy(w.values, dom.h, s, ym.nodes)
    assert fd_energy(basis, trace, s, ym) == pytest.approx(ref, rel=1e-12)


def test_fd_energy_needs_a_complete_basis_and_a_clean_trace():
    basis = _complete_basis("square17")
    dom = basis.domain
    ym = build_ymesh(0.5, float(basis.eigenvalues[0]), layers=16)
    trace = dom.embed(np.ones(dom.n_interior))
    with pytest.raises(ValueError, match="complete basis"):
        fd_energy(eigendecompose(dom, 50), trace, 0.5, ym)
    with pytest.raises(ValueError, match="vanish"):
        fd_energy(basis, np.ones(dom.grid_shape), 0.5, ym)
    with pytest.raises(ValueError, match="s in"):
        fd_energy(basis, trace, 1.0, ym)


# the discrete Steiner inequality: along each grid line the symmetric
# decreasing rearrangement does not raise a nearest-neighbour sum of squared
# differences, nor lower the sum of products of two rearranged layers, so
# rearranging every layer of extend_fd's minimiser gives a competitor for the
# symmetrised trace with no more E_h (Hardy, Littlewood & Polya, ch. X)
@settings(max_examples=200)
@given(name=st.sampled_from(["square17", "square25", "square33", "disk25"]),
       s=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
       axis=st.sampled_from([0, 1]),
       zeros=st.sampled_from([0.0, 0.5, 0.9]),
       power=st.sampled_from([1, 3]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_steiner_symmetrisation_never_raises_fd_energy(name, s, axis, zeros, power,
                                                       seed):
    basis = _complete_basis(name)
    dom = basis.domain
    ym = build_ymesh(s, float(basis.eigenvalues[0]), layers=120)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, dom.n_interior) ** power
    vals[rng.random(dom.n_interior) < zeros] = 0.0
    raw = dom.embed(vals)
    sym = steiner_symmetrize(dom, raw, axis)
    e0, e1 = fd_energy(basis, raw, s, ym), fd_energy(basis, sym, s, ym)
    assert e1 <= e0 * (1 + 1e-12)


# -- derivative sign and Hopf ratio --------------------------------------------------


def test_uy_sign_clean_for_positive_mode(interval):
    dom, basis = interval
    e = np.zeros(basis.size)
    e[0] = 1.0
    f = SpectralField(basis, basis.coefficients(basis.nodal(e)))
    ym = build_ymesh(0.5, float(basis.eigenvalues[0]))
    w = extend_semianalytic(f, 0.5, ym)
    rep = check_uy_sign(w)
    assert rep.passed
    assert rep.n_violations == 0


def test_uy_sign_flags_negative_mode(interval):
    dom, basis = interval
    e = np.zeros(basis.size)
    e[0] = -1.0
    f = SpectralField(basis, basis.coefficients(basis.nodal(e)))
    ym = build_ymesh(0.5, float(basis.eigenvalues[0]))
    w = extend_semianalytic(f, 0.5, ym)
    rep = check_uy_sign(w)
    assert not rep.passed
    assert rep.n_violations > 0


def _uy_fields():
    rng = np.random.default_rng(11)
    square = build_domain("rectangle", 9, bounds=((0.0, 1.0), (0.0, 1.0)))
    line = build_domain("interval", 9, bounds=(0.0, 1.0))
    ym = build_ymesh(0.5, 1.0, layers=100)          # four blocks of layers
    unit = YMesh(nodes=np.arange(101.0), grading=1.0)
    # equal quotients in two blocks, the first in row-major order in the
    # earlier block or in the later one
    for early, late in ((3, 5), (5, 3)):
        steps = np.zeros(line.grid_shape + (unit.M + 1,))
        steps[early, 40:] = 1.0
        steps[late, 70:] = 1.0
        yield ExtensionField(domain=line, ymesh=unit, s=0.5, values=steps)
        yield ExtensionField(domain=line, ymesh=unit, s=0.5, values=steps[:, ::-1].copy())
    decay = np.exp(-ym.nodes) * rng.random(square.grid_shape)[..., None]
    yield ExtensionField(domain=square, ymesh=ym, s=0.5, values=decay)
    yield ExtensionField(domain=square, ymesh=ym, s=0.5,
                         values=rng.standard_normal(square.grid_shape + (ym.M + 1,)))
    yield ExtensionField(domain=square, ymesh=ym, s=0.5,
                         values=np.zeros(square.grid_shape + (ym.M + 1,)))


@pytest.mark.parametrize("tol", [0.0, 1e-8])
def test_uy_sign_blocks_match_whole_slab_reduction(tol):
    for w in _uy_fields():
        rep = check_uy_sign(w, tol=tol)
        top, count, worst = oracles.uy_sign_reduction(w.values, w.ymesh.nodes, tol)
        assert (rep.max_derivative, rep.n_violations, rep.worst_location) == \
            (top, count, worst)
        assert rep.passed == (count == 0)


# -- smallest eigenvalue -------------------------------------------------------------


def test_smallest_eigenvalue_matches_closed_form():
    dom = build_domain("interval", 41, bounds=(0.0, np.pi))
    lam_ref, _ = oracles.interval_eigenpairs(0.0, np.pi, 41, 1)
    assert eigendecompose(dom, 1).eigenvalues[0] == pytest.approx(lam_ref[0], rel=1e-10)


def test_smallest_eigenvalue_on_large_disk_matches_dense_solve(monkeypatch):
    dom = build_domain("disk", 48, bounds=((-1.05, 1.05), (-1.05, 1.05)),
                       radius=1.0, center=(0.0, 0.0))
    assert dom.n_interior == 1568
    lam_ref = np.linalg.eigvalsh(laplacian_matrix(dom).toarray())[0]

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("K=1 on a large disk must not take the dense eigh")

    monkeypatch.setattr(scipy.linalg, "eigh", no_dense_solve)
    assert eigendecompose(dom, 1).eigenvalues[0] == pytest.approx(lam_ref, rel=1e-11)
