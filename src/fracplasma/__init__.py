"""Numerical laboratory for a fractional plasma free-boundary problem.

The package solves L^s u = lam (u - gamma)_+ on gridded domains, where
L^s is the spectral fractional Dirichlet Laplacian, realises the same
operator through a degenerate harmonic extension, and analyses the free
boundary {u = gamma} with Almgren-type frequency monitors, blow-up
classification, and Steiner symmetrization.
"""

from .config import (CheckResult, ConfigError, ExperimentConfig, RunReport,
                     load_config)
from .domains import (Domain, EigenBasis, build_domain, eigendecompose,
                      laplacian_matrix)
from .extension import (ExtensionField, UySignReport, YMesh, build_ymesh,
                        check_uy_sign, dtn, extension_energy_constant,
                        extend_fd, extend_semianalytic, fd_energy,
                        mode_profile, weighted_energy)
from .freeboundary import (BlowupField, Census, Classification, FreeBoundary,
                           FrequencyProfile, InclusionReport, StripReport,
                           blowup, census_reach,
                           check_boundary_inclusion,
                           check_subharmonic_strip, classify_point,
                           extract_free_boundary, frequency_profile,
                           singular_census)
from .halfball import HalfBallQuadrature
from .plasma import (PlasmaSolution, SolverError, SolverOptions,
                     constraint_mass, minimize_energy, solve_constrained,
                     solve_fixed_lambda, steiner_symmetrize)
from .spectral import SpectralField, apply_fractional

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "ConfigError", "ExperimentConfig", "RunReport",
    "load_config",
    "Domain", "EigenBasis", "build_domain", "eigendecompose",
    "laplacian_matrix",
    "ExtensionField", "UySignReport", "YMesh", "build_ymesh",
    "check_uy_sign", "dtn", "extension_energy_constant", "extend_fd",
    "extend_semianalytic", "fd_energy", "mode_profile", "weighted_energy",
    "BlowupField", "Census", "Classification", "FreeBoundary",
    "FrequencyProfile", "InclusionReport", "StripReport",
    "blowup", "census_reach", "check_boundary_inclusion",
    "check_subharmonic_strip",
    "classify_point", "extract_free_boundary", "frequency_profile",
    "singular_census",
    "HalfBallQuadrature",
    "PlasmaSolution", "SolverError", "SolverOptions", "constraint_mass",
    "minimize_energy", "solve_constrained",
    "solve_fixed_lambda", "steiner_symmetrize",
    "SpectralField", "apply_fractional",
    "__version__",
]
