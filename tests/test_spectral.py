import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fracplasma import SpectralField, apply_fractional, build_domain, eigendecompose


@pytest.fixture(scope="module")
def basis():
    dom = build_domain("interval", 65, bounds=(0.0, np.pi))
    return eigendecompose(dom, dom.n_interior)


def test_projection_roundtrip(basis):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(basis.domain.n_interior)
    f = SpectralField(basis, basis.coefficients(v))
    np.testing.assert_allclose(f.nodal, v, atol=1e-10)


def test_operator_scales_each_mode(basis):
    for s in (0.25, 0.5, 0.75, 1.0):
        for k in (0, 3, 10):
            e = np.zeros(basis.size)
            e[k] = 1.0
            f = SpectralField(basis, basis.coefficients(basis.nodal(e)))
            g = apply_fractional(f, s)
            expected = e * basis.eigenvalues[k] ** s
            np.testing.assert_allclose(g.coeffs, expected, atol=1e-10)


def test_integer_order_matches_stencil(basis):
    rng = np.random.default_rng(2)
    dom = basis.domain
    v = rng.standard_normal(dom.n_interior)
    f = SpectralField(basis, basis.coefficients(v))
    U = np.zeros(dom.grid_shape)
    U[dom.interior] = v
    ref = oracles.neg_laplacian_full(U, dom.h)[dom.interior]
    got = apply_fractional(f, 1.0).nodal
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-11


def test_semigroup_property(basis):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(basis.domain.n_interior)
    f = SpectralField(basis, basis.coefficients(v))
    one = apply_fractional(apply_fractional(f, 0.3), 0.45)
    two = apply_fractional(f, 0.75)
    np.testing.assert_allclose(one.coeffs, two.coeffs, rtol=1e-12, atol=1e-12)


def test_integer_energy_matches_face_sum():
    dom = build_domain("rectangle", 13, bounds=((0.0, 1.0), (0.0, 1.0)))
    basis2 = eigendecompose(dom, dom.n_interior)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(dom.n_interior)
    f = SpectralField(basis2, basis2.coefficients(v))
    U = np.zeros(dom.grid_shape)
    U[dom.interior] = v
    ref = oracles.dirichlet_face_energy(U, dom.h)
    energy = float(np.sum(basis2.eigenvalues * f.coeffs**2))
    assert energy == pytest.approx(ref, rel=1e-11)


def test_order_outside_unit_interval_rejected(basis):
    f = SpectralField(basis, basis.coefficients(np.ones(basis.domain.n_interior)))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            apply_fractional(f, bad)


@given(st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=0, max_value=100))
def test_operator_linearity(s, seed):
    dom = build_domain("interval", 33, bounds=(0.0, 1.0))
    b = eigendecompose(dom, dom.n_interior)
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, dom.n_interior))
    lhs = apply_fractional(SpectralField(b, b.coefficients(u + 2.0 * v)), s).nodal
    rhs = (apply_fractional(SpectralField(b, b.coefficients(u)), s).nodal
           + 2.0 * apply_fractional(SpectralField(b, b.coefficients(v)), s).nodal)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
