"""Grid domains and the Dirichlet eigenbasis.

Domains live on uniform tensor grids: an interval, an axis-aligned
rectangle, or a disk mask carved out of a rectangular bounding grid.
Fields are stored on the full grid (boundary nodes included, value 0
under Dirichlet conditions); linear algebra happens on the packed
interior nodes.  The eigenbasis consists of eigenpairs of the standard
second-difference Dirichlet Laplacian, orthonormal in the discrete
inner product  <f, g> = h^dim * sum(f * g)  over interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Domain",
    "EigenBasis",
    "build_domain",
    "eigendecompose",
    "laplacian_matrix",
]

_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class Domain:
    """A gridded thin domain.

    ``axes`` holds the node coordinates per axis (boundary included)
    and ``interior`` is a boolean mask over the full grid; Dirichlet
    data (zero) lives on every other node.  ``symmetry_axes`` lists
    the axes along which the node set is mirror symmetric about
    ``center``.  A disk is centred at ``center`` and has ``radius``
    (None on other shapes).
    """

    dim: int
    shape: str
    h: float
    axes: tuple
    interior: np.ndarray = field(repr=False)
    symmetry_axes: tuple
    center: tuple
    radius: float = None

    @property
    def grid_shape(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @cached_property
    def n_interior(self) -> int:
        return int(self.interior.sum())

    def interior_coords(self) -> np.ndarray:
        """Coordinates of interior nodes, shape (n_interior, dim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([m[self.interior] for m in mesh])

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Scatter a packed interior vector onto the full grid (zeros elsewhere)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_interior,):
            raise ValueError(
                f"expected interior vector of length {self.n_interior}, got {vec.shape}"
            )
        full = np.zeros(self.grid_shape)
        full[self.interior] = vec
        return full

    def reflect(self, full: np.ndarray, axis: int) -> np.ndarray:
        """Mirror a full-grid array across the domain midline along ``axis``."""
        if axis not in self.symmetry_axes:
            raise ValueError(f"axis {axis} is not a symmetry axis of this {self.shape}")
        return np.flip(full, axis=axis)

    def distance_to_boundary(self, point) -> float:
        """Distance from ``point`` to the thin-domain boundary."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates")
        if self.shape == "disk":
            return float(self.radius - np.linalg.norm(p - np.asarray(self.center)))
        return float(min(d for c, ax in zip(p, self.axes) for d in (c - ax[0], ax[-1] - c)))


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs of the discrete Dirichlet Laplacian on a domain.

    Eigenvalues ascend.  The eigenvectors are orthonormal in the discrete
    inner product and each one's first component above the sign-convention
    threshold is positive.  On intervals and rectangles mode k is a
    product of sampled sines whose per-axis indices are stored as the flat
    index ``_modes[k]`` into the tensor grid of sine modes, and no vector
    is stored: ``nodal`` and ``coefficients`` are sine transforms
    (``_SineGrid``), batched over trailing axes.  Disk masks store their
    dense vectors.
    """

    domain: Domain
    eigenvalues: np.ndarray = field(repr=False)
    _modes: np.ndarray = field(default=None, repr=False)
    _dense: np.ndarray = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @property
    def weight(self) -> float:
        """Quadrature weight h^dim of the discrete inner product."""
        return self.domain.h ** self.domain.dim

    @property
    def columnwise(self) -> bool:
        """True when ``nodal`` gives each trailing column the same bits
        whatever other columns come with it: the ``dstn`` transform of a
        large sine grid.  Dense products (a disk's vectors, the sine
        tables of a small grid) round their last bits by the number of
        columns."""
        return self._dense is None and not self._sine.by_tables

    @property
    def _mode_shape(self) -> tuple:
        return tuple(n - 2 for n in self.domain.grid_shape)

    @cached_property
    def _sine(self) -> _SineGrid:
        return _SineGrid(self._mode_shape)

    def _sine_transform(self, values: np.ndarray) -> np.ndarray:
        """The sine transform of packed interior values (node or sine-mode
        order), any trailing axes."""
        grid = values.reshape(self._mode_shape + values.shape[1:])
        return self._sine.transform(grid).reshape(values.shape)

    def nodal(self, coeffs: np.ndarray) -> np.ndarray:
        """Interior nodal values of sum_k coeffs[k] * phi_k.

        Trailing axes of ``coeffs`` are carried through: shape (K, ...)
        gives (n_interior, ...).
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[:1] != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {coeffs.shape}")
        if self._dense is not None:
            return self._dense @ coeffs
        grid = np.zeros((self.domain.n_interior,) + coeffs.shape[1:])
        grid[self._modes] = coeffs
        grid *= self.weight**-0.5
        return self._sine_transform(grid)

    def coefficients(self, interior_values: np.ndarray) -> np.ndarray:
        """Discrete-L2 projection of interior nodal values onto the basis.

        Trailing axes are carried through: shape (n_interior, ...) gives
        (K, ...).
        """
        v = np.asarray(interior_values, dtype=float)
        if v.shape[:1] != (self.domain.n_interior,):
            raise ValueError("interior value vector has the wrong length")
        if self._dense is not None:
            return self.weight * (self._dense.T @ v)
        return self._sine_transform(v)[self._modes] * self.weight**0.5

    def spectral_apply(self, interior_values: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
        """Nodal values of sum_k weights[k] <v, phi_k> phi_k for interior
        values v: a function of the Laplacian applied in one pass.  Trailing
        axes of v are carried through, each column weighted alike."""
        v = np.asarray(interior_values, dtype=float)
        trailing = (1,) * (v.ndim - 1)
        if self._dense is not None:
            return self._dense @ (np.reshape(weights, (-1,) + trailing)
                                  * self.coefficients(v))
        grid = np.zeros(v.shape[:1])
        grid[self._modes] = weights
        return self._sine_transform(self._sine_transform(v)
                                    * grid.reshape(grid.shape + trailing))

    def rows(self, nodes, modes=None) -> np.ndarray:
        """Values of the basis vectors at the given interior nodes.

        ``nodes`` indexes the packed interior nodes and ``modes`` the
        basis vectors (each a boolean mask, indices or a slice; None is
        every vector); the result has one row per node and one column per
        mode.  Sine bases multiply per-axis sine tables over the axis
        modes in use, then pick each basis vector's product.
        """
        if self._dense is not None:
            return self._dense[nodes] if modes is None else self._dense[nodes][:, modes]
        at = np.unravel_index(np.arange(self.domain.n_interior)[nodes],
                              self._mode_shape)
        used, pick = (self._every_axis_mode if modes is None
                      else _axis_modes(self._modes[modes], self._mode_shape))
        block = np.full((1, len(at[0])), self.domain.h ** (-self.domain.dim / 2))
        for table, u, i in zip(self._sine.tables, used, at):
            # the used modes first, so no table of every mode at every node
            # is formed (1.1 GB for the ground mode of a 513-node square)
            factor = (table if len(u) == len(table) else table.take(u, 0)).take(i, 1)
            block = (block[:, None, :] * factor).reshape(-1, len(i))
        return (block if pick is None else block[pick]).T

    @cached_property
    def _every_axis_mode(self) -> tuple:
        """_axis_modes of every basis vector."""
        return _axis_modes(self._modes, self._mode_shape)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Dense (n_interior, K) matrix of the eigenvectors: the ``rows`` of
        every node.  Sine bases build it on first access and keep it; the
        solvers never read it."""
        return self.rows(slice(None))


def _axis_modes(flat: np.ndarray, shape: tuple):
    """Split flat sine-mode indices into the sorted indices each axis uses
    and, per mode, its position in the product of those index sets (None
    when every position is taken in order, as on a complete interval)."""
    used, pick = [], np.zeros(len(flat), dtype=int)
    for j in np.unravel_index(flat, shape):
        u, pos = np.unique(j, return_inverse=True)
        used.append(u)
        pick = pick * len(u) + pos
    if np.array_equal(pick, np.arange(np.prod([len(u) for u in used]))):
        pick = None
    return used, pick


def build_domain(kind: str, n, *, bounds=None, radius: float = None, center=None) -> Domain:
    """Construct a gridded domain.

    Parameters
    ----------
    kind : "interval", "rectangle", or "disk"
    n : int or tuple of int
        Nodes per axis, boundary included (an int applies to every axis;
        a sequence has one entry per axis).
    bounds : axis bounds; ``(lo, hi)`` for an interval, a pair of such
        pairs for a rectangle or a disk's bounding box.
    radius, center : disk geometry (two coordinates; the disk must sit
        strictly inside its bounding box).

    Every kind takes one path: the axes share one grid spacing, the
    interior is the grid's inner box (for a disk, its nodes strictly inside
    the disk), and the symmetry axes are those it is mirror symmetric along.
    """
    if kind not in ("interval", "rectangle", "disk"):
        raise ValueError(f"unknown domain kind {kind!r}")
    dim = 1 if kind == "interval" else 2
    if bounds is None:
        shape = "(lo, hi)" if dim == 1 else "((lox, hix), (loy, hiy))"
        raise ValueError(f"{kind} requires bounds={shape}")
    pairs = (bounds,) if dim == 1 else bounds
    if len(pairs) != dim:
        # in the words of Python's tuple unpacking
        raise ValueError(f"too many values to unpack (expected {dim})" if len(pairs) > dim
                         else f"not enough values to unpack (expected {dim}, got {len(pairs)})")
    box = [(float(lo), float(hi)) for lo, hi in pairs]
    if not np.isscalar(n) and len(n) != dim:
        raise ValueError(f"n must be an int or {dim} node count{'s' * (dim > 1)}, "
                         f"one per axis, got {len(n)}")
    counts = [int(n)] * dim if np.isscalar(n) else [int(k) for k in n]
    for (lo, hi), k in zip(box, counts):
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"axis bounds must satisfy lo < hi, got ({lo}, {hi})")
        if k < 3:
            raise ValueError(f"need at least 3 nodes per axis, got {k}")
    axes = tuple(np.linspace(lo, hi, k) for (lo, hi), k in zip(box, counts))
    spacing = [ax[1] - ax[0] for ax in axes]
    if max(spacing) - min(spacing) > 1e-12 * max(spacing):
        raise ValueError(
            f"grid spacing must agree on both axes (got {' and '.join(map(str, spacing))}); "
            "choose node counts commensurate with the side lengths"
        )
    interior = np.zeros(counts, dtype=bool)
    interior[(slice(1, -1),) * dim] = True
    if kind == "disk":
        if radius is None or center is None:
            raise ValueError("disk requires radius and center")
        if len(center) != dim:
            raise ValueError(f"disk center must have {dim} coordinates, got {len(center)}")
        radius = float(radius)
        center = tuple(float(c) for c in center)
        if not radius > 0:
            raise ValueError("disk radius must be positive")
        if not radius < min(d for c, (lo, hi) in zip(center, box) for d in (c - lo, hi - c)):
            raise ValueError("disk must sit strictly inside its bounding box")
        mesh = np.meshgrid(*axes, indexing="ij")
        interior &= sum((m - c) ** 2 for m, c in zip(mesh, center)) < radius**2
        if not interior.any():
            raise ValueError("disk mask has no interior nodes; refine the grid")
    else:
        radius, center = None, tuple((lo + hi) / 2 for lo, hi in box)
    return Domain(
        dim=dim, shape=kind, h=float(spacing[0]), axes=axes, interior=interior,
        symmetry_axes=tuple(k for k in range(dim)
                            if np.array_equal(interior, np.flip(interior, axis=k))),
        center=center, radius=radius,
    )


def laplacian_matrix(domain: Domain):
    """Positive-definite second-difference Dirichlet Laplacian -Delta_h.

    Sparse (``scipy.sparse``, imported here), on packed interior vectors;
    the Dirichlet (zero) values off the interior are eliminated.  The 1-D
    second differences are summed over the axes on the full grid (a
    Kronecker sum, last axis fastest) and the sum is restricted to the
    interior nodes.
    """
    import scipy.sparse

    full = None
    for n in domain.grid_shape:
        second = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        full = second if full is None else scipy.sparse.kronsum(second, full)
    keep = domain.interior.ravel()
    return full.tocsr()[keep][:, keep] / domain.h**2


def _sine_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 4 sin^2(k pi / (2 (n - 1))), k = 1..n-2, of the 1D
    second difference h^2 (-d^2/dx^2) on n nodes with Dirichlet ends."""
    return 4.0 * np.sin(np.arange(1, n - 1) * np.pi / (2 * (n - 1))) ** 2


def _sine_vectors(n: int) -> np.ndarray:
    """Sampled sines sqrt(2/(n-1)) sin(pi j k / (n-1)), rows j and columns
    k = 1..n-2; orthonormal in the unweighted inner product.  The phase
    p = j k is reduced mod 2(n-1) in integers so large indices lose
    nothing, then folded onto [0, (n-1)/2] with the sign of its
    half-period, so rows j and n-1-j agree bitwise up to the sign
    (-1)^(k+1) and nodal lines are exact zeros."""
    N = n - 1
    k = np.arange(1, N)
    phase = np.outer(k, k) % (2 * N)
    sign = np.where(phase < N, 1.0, -1.0)
    phase %= N
    folded = np.minimum(phase, N - phase)
    return np.sqrt(2.0 / N) * sign * np.sin(folded * (np.pi / N))


# grids whose sine transform is a product with the per-axis sine tables:
# none of its axes has more than _TABLE_AXIS_MAX interior nodes, and it has
# at most _TABLE_NODES_MAX of them.  Below that the dense products beat
# scipy.fft's DST-I, whose fixed cost per call is about 20 us (one vector,
# 2-core VM, one OpenBLAS thread: 255 interior nodes 15 against 22 us, 511
# nodes 69 against 26 us; 47 x 47 nodes 17 against 63 us, 95 x 95 80 against
# 151 us, 127 x 127 206 against 238 us, 159 x 159 468 against 454 us)
_TABLE_AXIS_MAX = 255
_TABLE_NODES_MAX = 10_000


class _SineGrid:
    """The orthonormal sine transform (DST-I, its own inverse) of a tensor
    grid of ``shape`` interior nodes, over the leading axes of arrays
    shaped ``shape`` plus any trailing axes.

    Small grids apply the per-axis sine tables as dense products,
    S v on an interval and S_x V S_y on a rectangle; larger grids call
    ``scipy.fft.dstn``, which is imported only there.  The two agree to
    round-off.
    """

    def __init__(self, shape: tuple):
        self.shape = tuple(shape)
        self.by_tables = (max(self.shape) <= _TABLE_AXIS_MAX
                          and int(np.prod(self.shape)) <= _TABLE_NODES_MAX)

    @cached_property
    def tables(self) -> tuple:
        """Sampled sines of each axis (symmetric: node j, mode k)."""
        return tuple(_sine_vectors(n + 2) for n in self.shape)

    def transform(self, values: np.ndarray) -> np.ndarray:
        if not self.by_tables:
            import scipy.fft

            return scipy.fft.dstn(values, type=1, norm="ortho",
                                  axes=tuple(range(len(self.shape))))
        first = self.tables[0]
        if values.ndim == 1:
            return first @ values
        out = first @ values.reshape(len(first), -1)
        if len(self.shape) == 2:
            # S_y is symmetric, so the second axis of V takes V S_y
            second = self.tables[1]
            out = (out @ second if values.ndim == 2
                   else np.matmul(second, out.reshape(self.shape + (-1,))))
        return out.reshape(values.shape)


# columns _fix_signs takes at a time, so its temporaries stay small
_SIGN_BLOCK = 256


def _fix_signs(vectors: np.ndarray, scale: float) -> None:
    """Divide each column by ``scale`` in place, and negate it where its
    first component above the noise threshold is negative."""
    for start in range(0, vectors.shape[1], _SIGN_BLOCK):
        block = vectors[:, start:start + _SIGN_BLOCK]
        size = np.abs(block)
        first = np.argmax(size > _SIGN_EPS * size.max(axis=0), axis=0)
        block /= np.where(block[first, np.arange(block.shape[1])] < 0, -scale, scale)


def eigendecompose(domain: Domain, K: int) -> EigenBasis:
    """First K Dirichlet eigenpairs, ascending.

    Intervals and rectangles use the closed-form tensor-sine basis.
    Disk masks use sparse shift-invert Lanczos with a fixed start vector
    (so results are deterministic) for up to a twelfth of the spectrum,
    and a dense symmetric solve for larger bases, which is faster beyond
    somewhere between a twelfth and an eighth.  Only the disk branch
    imports ``scipy.sparse``, ``scipy.sparse.linalg`` and ``scipy.linalg``,
    so a process that never builds a disk basis never loads the first two.
    """
    m = domain.n_interior
    if not 1 <= K <= m:
        raise ValueError(f"K must be in [1, {m}], got {K}")
    if domain.shape in ("interval", "rectangle"):
        # tied sums (lambda_jk = lambda_kj on a square) keep row-major
        # (j, k) order under the stable sort, so a cutoff inside a cluster
        # keeps the same modes on every run
        per_axis = [_sine_eigenvalues(n) / domain.h**2 for n in domain.grid_shape]
        sums = sum(np.meshgrid(*per_axis, indexing="ij")).ravel()
        order = np.argsort(sums, kind="stable")[:K]
        return EigenBasis(domain=domain, eigenvalues=sums[order], _modes=order)
    import scipy.linalg
    import scipy.sparse.linalg

    if K <= m // 12:
        A = laplacian_matrix(domain)
        lam, V = scipy.sparse.linalg.eigsh(
            A.tocsc(), k=K, sigma=0, which="LM", v0=np.ones(m),
        )
        order = np.argsort(lam)
        lam, V = lam[order], V[:, order]
    else:
        # B = h^2 (-Delta_h) has O(1) entries, which LAPACK factors faster
        h2 = domain.h**2
        B = (laplacian_matrix(domain) * h2).toarray()
        lam, V = scipy.linalg.eigh(B, subset_by_index=None if K == m else [0, K - 1])
        lam /= h2
    _fix_signs(V, np.sqrt(domain.h**domain.dim))
    return EigenBasis(domain=domain, eigenvalues=lam, _dense=V)

