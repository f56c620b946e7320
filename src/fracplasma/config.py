"""Experiment configuration and run reports.

Experiments are described by a JSON file mirroring ``ExperimentConfig``.
Each section is a dataclass (``solver`` is ``plasma.SolverOptions``), and
one parser reads every section from its fields: unknown keys anywhere in
the tree raise ``ConfigError`` with the offending names, so typos cannot
silently fall back to defaults, and each ``int``, ``float`` or ``str``
field is checked against its annotation.  Each section checks its ranges
when it is built, from JSON or in Python (which is not type-checked), so
out-of-range values raise ``ConfigError`` before anything is solved.
``refine`` produces a new, checked configuration with the grids scaled
for convergence studies.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .extension import build_ymesh
from .plasma import SolverOptions

__all__ = [
    "ConfigError",
    "DomainSpec",
    "ExtensionSpec",
    "FrequencySpec",
    "BlowupSpec",
    "ExperimentConfig",
    "load_config",
    "CheckResult",
    "RunReport",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _numbers(value, count: int) -> bool:
    """Whether ``value`` is a list of ``count`` finite numbers."""
    return (isinstance(value, (list, tuple)) and len(value) == count
            and all(_is_number(v) for v in value))


_KINDS = {int: (_is_int, "an integer"), float: (_is_number, "a finite number"),
          str: (lambda v: isinstance(v, str), "a string")}


def _parse(cls, data, path: str = ""):
    """Build the section ``cls`` from the JSON object ``data``.

    Unknown keys are refused; a field annotated ``int``, ``float`` or
    ``str`` must hold that type (an int passes as a float, None only where
    the default is None); a field typed by another section is parsed in
    turn.  Any ValueError of a constructor other than a ConfigError (those
    of ``SolverOptions``) becomes a ConfigError named after the section.
    ``path`` is the section's key, empty for the root.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'configuration root'} must be a JSON object")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {path or 'configuration'}: "
                          f"{sorted(unknown)}; allowed keys are {sorted(defaults)}")
    prefix = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        kind = hints[name]
        if is_dataclass(kind):
            value = _parse(kind, value, prefix + name)
        elif kind in _KINDS and not (value is None and defaults[name] is None):
            test, noun = _KINDS[kind]
            if not test(value):
                raise ConfigError(f"{prefix}{name} must be {noun}, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


@dataclass(frozen=True)
class DomainSpec:
    kind: str = "interval"
    n: object = None                   # int, or one int per axis; 129 if not given
    bounds: object = None              # [lo, hi], or [[lo, hi], [lo, hi]] in 2-D
    radius: float = None
    center: object = None

    def __post_init__(self):
        # only an interval has default bounds; a disk has no default size,
        # since a 129-node disk needs a dense eigh of about 11,400 nodes
        if self.bounds is None and self.kind == "interval":
            object.__setattr__(self, "bounds", (0.0, 3.141592653589793))
        if self.n is None and self.kind != "disk":
            object.__setattr__(self, "n", 129)
        if self.kind not in ("interval", "rectangle", "disk"):
            raise ConfigError(f"domain.kind must be interval/rectangle/disk, "
                              f"got {self.kind!r}")
        if self.kind == "disk" and (self.n is None or self.radius is None
                                    or self.center is None):
            raise ConfigError("disk domains need n, radius and center")
        dim = self.dim
        n = self.n
        if not (_is_int(n) or (isinstance(n, (list, tuple)) and len(n) == dim
                               and all(_is_int(k) for k in n))):
            raise ConfigError(f"domain.n must be an integer or a list of {dim} "
                              f"integers, got {n!r}")
        # one [lo, hi] pair per axis; an interval gives its pair bare
        pairs = [self.bounds] if dim == 1 else self.bounds
        if not (isinstance(pairs, (list, tuple)) and len(pairs) == dim
                and all(_numbers(b, 2) for b in pairs)):
            shape = "[lo, hi]" if dim == 1 else "[[lo, hi], [lo, hi]]"
            raise ConfigError(f"{self.kind} domains need bounds {shape} of finite "
                              f"numbers, got {self.bounds!r}")
        if self.center is not None and not _numbers(self.center, 2):
            raise ConfigError(f"domain.center must be [x, y], got {self.center!r}")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2


@dataclass(frozen=True)
class ExtensionSpec:
    span_factor: float = 20.0
    layers: int = 200
    grading: float = None

    def __post_init__(self):
        try:        # the mesh's own rules
            build_ymesh(0.5, 1.0, span_factor=self.span_factor, layers=self.layers,
                        grading=self.grading)
        except ValueError as exc:
            raise ConfigError(f"extension.{exc}") from None


@dataclass(frozen=True)
class FrequencySpec:
    centers: tuple = ()
    n_radii: int = 12
    r_max_fraction: float = 0.5

    def __post_init__(self):
        centers = self.centers
        if not (isinstance(centers, (list, tuple))
                and all(_is_number(pt) or _numbers(pt, 1) or _numbers(pt, 2)
                        for pt in centers)):
            raise ConfigError("frequency.centers must be a list of points of 1 or 2 "
                              f"numbers, got {centers!r}")
        object.__setattr__(self, "centers", tuple(
            tuple(float(c) for c in pt) if hasattr(pt, "__len__") else (float(pt),)
            for pt in centers))
        if self.n_radii < 1:
            raise ConfigError("frequency.n_radii must be positive")
        if not 0 < self.r_max_fraction <= 1:
            raise ConfigError("frequency.r_max_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class BlowupSpec:
    center: object = None
    radius: float = None
    ref_nodes: int = 65
    ref_layers: int = 48

    def __post_init__(self):
        if self.center is not None and not (_numbers(self.center, 1)
                                            or _numbers(self.center, 2)):
            raise ConfigError(f"blowup.center must be a list of 1 or 2 numbers, "
                              f"got {self.center!r}")
        if self.radius is not None and not 0 < self.radius < math.inf:
            raise ConfigError("blowup.radius must be positive")
        if self.ref_nodes < 9:
            raise ConfigError("blowup.ref_nodes must be at least 9")
        if self.ref_layers < 8:
            raise ConfigError("blowup.ref_layers must be at least 8")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run."""

    domain: DomainSpec = field(default_factory=DomainSpec)
    s: float = 0.5
    gamma: float = 0.1
    mode: str = "fixed_lambda"          # fixed_lambda | constrained | energy
    lambda_factor: float = 4.0          # lam = factor * lam_1^s
    lambda_value: float = None          # absolute lam, overrides the factor
    constraint_target: float = None
    basis_size: int = None              # None = full basis
    extension: ExtensionSpec = field(default_factory=ExtensionSpec)
    solver: SolverOptions = field(default_factory=SolverOptions)
    frequency: FrequencySpec = field(default_factory=FrequencySpec)
    blowup: BlowupSpec = field(default_factory=BlowupSpec)
    out_dir: str = "out"

    def __post_init__(self):
        if not 0 < self.s <= 1:
            raise ConfigError(f"s must lie in (0, 1], got {self.s}")
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.mode not in ("fixed_lambda", "constrained", "energy"):
            raise ConfigError(f"mode must be fixed_lambda/constrained/energy, "
                              f"got {self.mode!r}")
        if self.mode in ("constrained", "energy") and self.constraint_target is None:
            raise ConfigError(f"mode {self.mode!r} needs constraint_target")
        target = self.constraint_target
        if target is not None and not 0 < target < math.inf:
            raise ConfigError("constraint_target must be positive")
        if self.lambda_value is not None and not 0 <= self.lambda_value < math.inf:
            raise ConfigError("lambda_value must be nonnegative")
        if self.lambda_value is None and not 0 < self.lambda_factor < math.inf:
            raise ConfigError("lambda_factor must be positive")
        if self.basis_size is not None and self.basis_size < 1:
            raise ConfigError("basis_size must be positive when given")
        # points must live in the domain's thin space
        dim = self.domain.dim
        points = [("frequency.centers", pt) for pt in self.frequency.centers]
        if self.blowup.center is not None:
            points.append(("blowup.center", self.blowup.center))
        for name, pt in points:
            if len(pt) != dim:
                raise ConfigError(f"{name} needs points of {dim} coordinates on "
                                  f"a {self.domain.kind} domain, got {list(pt)!r}")

    from_dict = staticmethod(lambda data: _parse(ExperimentConfig, data))

    def to_dict(self) -> dict:
        return asdict(self)

    def refine(self, factor: float) -> "ExperimentConfig":
        """Scale grid resolution by ``factor`` (cell count, not node count)."""
        if not math.isfinite(factor):
            raise ConfigError(f"refinement factor must be finite, got {factor}")
        if factor <= 0:
            raise ConfigError("refinement factor must be positive")

        def scale_n(n):
            if hasattr(n, "__len__"):
                return [int(round((int(k) - 1) * factor)) + 1 for k in n]
            return int(round((int(n) - 1) * factor)) + 1

        return replace(
            self,
            domain=replace(self.domain, n=scale_n(self.domain.n)),
            extension=replace(self.extension,
                              layers=max(8, int(round(self.extension.layers * factor)))),
        )


def load_config(path: str) -> ExperimentConfig:
    """Read and check a JSON experiment configuration."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}")
    return ExperimentConfig.from_dict(data)


# -- run reports -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named check with its measured value and tolerance."""

    name: str
    passed: bool
    value: float = None
    tolerance: float = None
    note: str = ""


@dataclass(frozen=True)
class RunReport:
    """Bundle of check results written alongside run outputs."""

    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }

    def table(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            val = "" if c.value is None else f" value={c.value:.6g}"
            tol = "" if c.tolerance is None else f" tol={c.tolerance:.3g}"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"[{status}] {c.name}{val}{tol}{note}")
        return "\n".join(lines)
