"""Spectral fractional Laplacian on the Dirichlet eigenbasis.

The fractional operator acts diagonally on eigencoefficients:
(-Delta)^s maps sum a_k phi_k to sum lambda_k^s a_k phi_k.  Fractional
powers are evaluated as exp(s * log(lambda_k)), which is well defined
because the discrete Dirichlet eigenvalues are strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import EigenBasis

__all__ = ["SpectralField", "apply_fractional"]


@dataclass
class SpectralField:
    """A field expanded on an eigenbasis, with cached nodal values."""

    basis: EigenBasis
    coeffs: np.ndarray
    _nodal: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector must have length {self.basis.size}, "
                f"got {self.coeffs.shape}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients contain NaN or Inf")

    @property
    def nodal(self) -> np.ndarray:
        """Interior nodal values (cached)."""
        if self._nodal is None:
            self._nodal = self.basis.nodal(self.coeffs)
        return self._nodal

    def full(self) -> np.ndarray:
        """Nodal values on the full grid, zero on and outside the boundary."""
        return self.basis.domain.embed(self.nodal)


def _check_order(s: float) -> float:
    s = float(s)
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {s}")
    return s


def apply_fractional(f: SpectralField, s: float) -> SpectralField:
    """(-Delta)^s f on the eigenbasis."""
    s = _check_order(s)
    return SpectralField(f.basis, f.basis.eigenvalues**s * f.coeffs)
