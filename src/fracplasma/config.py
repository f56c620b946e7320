"""Experiment configuration and run reports.

Experiments are described by a JSON file mirroring ``ExperimentConfig``.
Parsing is strict: unknown keys anywhere in the tree raise
``ConfigError`` with the offending names, so typos cannot silently fall
back to defaults.  ``refine`` produces a new configuration with the
grids scaled for convergence studies.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

__all__ = [
    "ConfigError",
    "DomainSpec",
    "ExtensionSpec",
    "SolverSpec",
    "FrequencySpec",
    "BlowupSpec",
    "ExperimentConfig",
    "load_config",
    "CheckResult",
    "RunReport",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _take(d: dict, cls_name: str, allowed: dict):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown keys in {cls_name}: {sorted(unknown)}; "
            f"allowed keys are {sorted(allowed)}"
        )
    out = dict(allowed)
    out.update(d)
    return out


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


def _check_types(spec, prefix: str, types: dict) -> None:
    """Raise ConfigError unless each named field of ``spec`` holds its type
    (an int for float fields too); a field whose default is None may be None."""
    for name, kind in types.items():
        value = getattr(spec, name)
        if value is None and getattr(type(spec), name) is None:
            continue
        test, noun = _KINDS[kind]
        if not test(value):
            raise ConfigError(f"{prefix}{name} must be {noun}, got {value!r}")


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

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    def validate(self):
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
        if dim == 1:
            ok, shape = _numbers(self.bounds, 2), "[lo, hi]"
        else:
            ok = (isinstance(self.bounds, (list, tuple)) and len(self.bounds) == 2
                  and all(_numbers(b, 2) for b in self.bounds))
            shape = "[[lo, hi], [lo, hi]]"
        if not ok:
            raise ConfigError(f"{self.kind} domains need bounds {shape} of finite "
                              f"numbers, got {self.bounds!r}")
        if self.radius is not None and not _is_number(self.radius):
            raise ConfigError(f"domain.radius must be a number, got {self.radius!r}")
        if self.center is not None and not _numbers(self.center, 2):
            raise ConfigError(f"domain.center must be [x, y], got {self.center!r}")


@dataclass(frozen=True)
class ExtensionSpec:
    span_factor: float = 20.0
    layers: int = 200
    grading: float = None

    def validate(self):
        _check_types(self, "extension.",
                     {"span_factor": float, "layers": int, "grading": float})
        if self.span_factor <= 0:
            raise ConfigError("extension.span_factor must be positive")
        if self.layers < 8:
            raise ConfigError("extension.layers must be at least 8")


@dataclass(frozen=True)
class SolverSpec:
    tolerance: float = 1e-10
    constraint_kind: str = "quadratic"

    def validate(self):
        _check_types(self, "solver.", {"tolerance": float, "constraint_kind": str})
        if self.tolerance <= 0:
            raise ConfigError("solver.tolerance must be positive")
        if self.constraint_kind not in ("quadratic", "linear"):
            raise ConfigError("solver.constraint_kind must be quadratic or linear")


@dataclass(frozen=True)
class FrequencySpec:
    centers: tuple = ()
    n_radii: int = 12
    r_max_fraction: float = 0.5

    def validate(self):
        _check_types(self, "frequency.", {"n_radii": int, "r_max_fraction": float})
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

    def validate(self):
        _check_types(self, "blowup.",
                     {"radius": float, "ref_nodes": int, "ref_layers": int})
        if self.center is not None and not (_numbers(self.center, 1)
                                            or _numbers(self.center, 2)):
            raise ConfigError(f"blowup.center must be a list of 1 or 2 numbers, "
                              f"got {self.center!r}")
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
    solver: SolverSpec = field(default_factory=SolverSpec)
    frequency: FrequencySpec = field(default_factory=FrequencySpec)
    blowup: BlowupSpec = field(default_factory=BlowupSpec)
    out_dir: str = "out"

    def validate(self):
        _check_types(self, "", {
            "s": float, "gamma": float, "mode": str, "lambda_factor": float,
            "lambda_value": float, "constraint_target": float, "basis_size": int,
            "out_dir": str})
        if not 0 < self.s <= 1:
            raise ConfigError(f"s must lie in (0, 1], got {self.s}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.mode not in ("fixed_lambda", "constrained", "energy"):
            raise ConfigError(f"mode must be fixed_lambda/constrained/energy, "
                              f"got {self.mode!r}")
        if self.mode in ("constrained", "energy") and self.constraint_target is None:
            raise ConfigError(f"mode {self.mode!r} needs constraint_target")
        if self.lambda_value is None and self.lambda_factor <= 0:
            raise ConfigError("lambda_factor must be positive")
        if self.basis_size is not None and self.basis_size < 1:
            raise ConfigError("basis_size must be positive when given")
        self.domain.validate()
        self.extension.validate()
        self.solver.validate()
        self.frequency.validate()
        self.blowup.validate()
        # points must live in the domain's thin space
        dim = self.domain.dim
        points = [("frequency.centers", pt) for pt in self.frequency.centers]
        if self.blowup.center is not None:
            points.append(("blowup.center", self.blowup.center))
        for name, pt in points:
            if len(pt) != dim:
                raise ConfigError(f"{name} needs points of {dim} coordinates on "
                                  f"a {self.domain.kind} domain, got {list(pt)!r}")
        return self

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        sub = {
            "domain": DomainSpec, "extension": ExtensionSpec,
            "solver": SolverSpec, "frequency": FrequencySpec,
            "blowup": BlowupSpec,
        }
        defaults = {f: getattr(ExperimentConfig, "__dataclass_fields__")[f].name
                    for f in ExperimentConfig.__dataclass_fields__}
        merged = _take(data, "configuration", {k: None for k in defaults})
        kwargs = {}
        for key, value in merged.items():
            if value is None and key not in data:
                continue
            if key in sub:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key} must be a JSON object")
                spec_cls = sub[key]
                spec_defaults = {f: getattr(spec_cls, f)
                                 for f in spec_cls.__dataclass_fields__}
                spec_kwargs = _take(value, key, spec_defaults)
                if key == "frequency":
                    centers = spec_kwargs["centers"]
                    if not (isinstance(centers, (list, tuple))
                            and all(_is_number(pt) or _numbers(pt, 1) or _numbers(pt, 2)
                                    for pt in centers)):
                        raise ConfigError("frequency.centers must be a list of "
                                          f"points of 1 or 2 numbers, got {centers!r}")
                    spec_kwargs["centers"] = tuple(
                        tuple(float(c) for c in pt) if hasattr(pt, "__len__")
                        else (float(pt),)
                        for pt in spec_kwargs["centers"]
                    )
                kwargs[key] = spec_cls(**spec_kwargs)
            else:
                kwargs[key] = value
        return ExperimentConfig(**kwargs).validate()

    def to_dict(self) -> dict:
        return asdict(self)

    def refine(self, factor: float) -> "ExperimentConfig":
        """Scale grid resolution by ``factor`` (cell count, not node count)."""
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
        ).validate()


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration."""
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
