import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fracplasma import (ConfigError, ExperimentConfig, ExtensionField,
                        SolverOptions, build_domain, build_ymesh,
                        eigendecompose, extend_semianalytic, load_config)
from fracplasma.cli import main

BASE = {
    "domain": {"kind": "interval", "n": 65, "bounds": [0.0, 3.141592653589793]},
    "s": 0.5,
    "gamma": 0.1,
    "mode": "fixed_lambda",
    "lambda_factor": 4.0,
    "extension": {"span_factor": 12.0, "layers": 48},
    "frequency": {"centers": [[1.5707963267948966]], "n_radii": 8},
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    data = json.loads(json.dumps(BASE))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    if data["domain"]["kind"] != "interval" and "frequency" not in (overrides or {}):
        # BASE's frequency centre is a point of the interval
        data["frequency"]["centers"] = []
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# -- configuration parsing -----------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(str(path))
    assert cfg.domain.kind == "interval"
    assert cfg.s == 0.5
    assert cfg.extension.layers == 48
    assert cfg.frequency.centers == ((np.pi / 2,),)


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, {"wavelength": 3})
    with pytest.raises(ConfigError, match="unknown"):
        load_config(str(path))
    path2 = write_config(tmp_path, {"solver": {"turbo": True}}, name="c2.json")
    with pytest.raises(ConfigError, match="unknown"):
        load_config(str(path2))


def test_invalid_values_rejected(tmp_path):
    for overrides, fragment in (
        ({"s": 1.5}, "s must"),
        ({"gamma": -0.1}, "gamma"),
        ({"mode": "warp"}, "mode"),
        ({"mode": "constrained"}, "constraint_target"),
        ({"domain": {"kind": "torus"}}, "domain.kind"),
        ({"frequency": {"centers": None}}, "frequency.centers"),
    ):
        path = write_config(tmp_path, overrides, name="bad.json")
        with pytest.raises(ConfigError, match=fragment):
            load_config(str(path))


def _typed_fields(cls, path=""):
    """(dotted name, annotated type) of every field of ``cls`` and of the
    sections it holds."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            yield from _typed_fields(kind, f"{path}{f.name}.")
        else:
            yield f"{path}{f.name}", kind


def test_every_typed_field_refuses_a_wrong_type():
    typed = [(name, kind) for name, kind in _typed_fields(ExperimentConfig)
             if kind in (int, float, str)]
    assert {name.split(".")[0] for name, _ in typed} >= {
        "domain", "extension", "solver", "frequency", "blowup", "s"}
    for name, kind in typed:
        for value in ("7" if kind is not str else 7, True, float("nan")):
            data = value
            for key in reversed(name.split(".")):
                data = {key: data}
            with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be"):
                ExperimentConfig.from_dict(data)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/cfg.json")


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path))


def test_refine_scales_cells_and_layers():
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(BASE)))
    fine = cfg.refine(2.0)
    assert fine.domain.n == 129          # 64 cells -> 128 cells
    assert fine.extension.layers == 96


@pytest.mark.parametrize("factor", ["inf", "nan", "-inf"])
def test_cli_refine_refuses_non_finite_factor(tmp_path, capsys, factor):
    path = write_config(tmp_path)
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--out", str(out),
                 f"--refine={factor}"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: refinement factor must be finite, got {factor}\n")
    assert not out.exists()


def _python_config(section, **values):
    """ExperimentConfig with one section, or the root, built in Python."""
    from fracplasma import config as c
    if section is None:
        return ExperimentConfig(**values)
    kinds = {"domain": c.DomainSpec, "extension": c.ExtensionSpec,
             "frequency": c.FrequencySpec, "blowup": c.BlowupSpec}
    return ExperimentConfig(**{section: kinds[section](**values)})


@pytest.mark.parametrize("section, values", [
    (None, {"s": 2.0}),
    (None, {"gamma": 0.0}),
    (None, {"mode": "energy"}),
    (None, {"lambda_value": -1.0}),
    (None, {"basis_size": 0}),
    ("domain", {"kind": "torus"}),
    ("domain", {"kind": "rectangle", "bounds": [0.0, 1.0]}),
    ("domain", {"kind": "disk", "n": 25, "bounds": [[-1.5, 1.5]] * 2, "radius": 1.4}),
    ("domain", {"n": [9, 9]}),
    ("extension", {"layers": 2}),
    ("extension", {"span_factor": 0.0}),
    ("extension", {"grading": 0.5}),
    ("frequency", {"n_radii": 0}),
    ("frequency", {"r_max_fraction": 1.5}),
    ("frequency", {"centers": [[1.0, 2.0]]}),     # a 2-D point on an interval
    ("blowup", {"ref_nodes": 5}),
    ("blowup", {"center": [1.0, 2.0, 3.0]}),
])
def test_python_built_config_is_range_checked_like_json(section, values):
    with pytest.raises(ConfigError) as built:
        _python_config(section, **values)
    data = values if section is None else {section: values}
    with pytest.raises(ConfigError) as parsed:
        ExperimentConfig.from_dict(json.loads(json.dumps(data)))
    assert str(built.value) == str(parsed.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("section, name, message", [
    (None, "gamma", "gamma must be positive"),
    (None, "lambda_factor", "lambda_factor must be positive"),
    (None, "lambda_value", "lambda_value must be nonnegative"),
    (None, "constraint_target", "constraint_target must be positive"),
    ("extension", "span_factor", "extension.span_factor must be positive"),
    ("extension", "grading", "extension.grading must be >= 1"),
    ("solver", "tolerance", "tolerance must be positive"),
    ("blowup", "radius", "blowup.radius must be positive"),
])
def test_python_built_config_refuses_non_finite_numbers(section, name, message, value):
    # JSON refuses these numbers in the parser; a section built in Python
    # must refuse them in its range check
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        if section == "solver":
            ExperimentConfig(solver=SolverOptions(**{name: value}))
        else:
            _python_config(section, **{name: value})


def test_replace_rechecks_the_config():
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(BASE)))
    with pytest.raises(ConfigError, match=r"^gamma must be positive, got -1\.0$"):
        dataclasses.replace(cfg, gamma=-1.0)
    with pytest.raises(ConfigError, match="^extension.layers must be at least 8$"):
        dataclasses.replace(cfg.extension, layers=7)
    with pytest.raises(ConfigError, match="^domain.n must be an integer"):
        dataclasses.replace(cfg.domain, n="65")
    # several faults: the section is built, and refused, first
    from fracplasma.config import ExtensionSpec
    with pytest.raises(ConfigError, match="^extension.layers must be at least 8$"):
        ExperimentConfig(s=2.0, gamma=-1.0, extension=ExtensionSpec(layers=2))


# -- CLI subcommands -----------------------------------------------------------------


def test_csv_writer_bytes_match_per_value_formatting(tmp_path):
    from fracplasma.cli import _CSV_BLOCK, _write_csv
    table = np.array([
        [0, 1.0, -2.5, 1e-300],
        [3, -0.0, 5e-324, 123456789.123456789],
        [-7, np.pi, -1e-17, 2.0**60],
        [12, 1 / 3, -np.e, 7.0],
    ] * 3000)
    # columns that repeat a few values across block boundaries, 0.0 next to
    # -0.0, nan (two payloads), infinities and subnormals
    rng = np.random.default_rng(8)
    n = len(table)
    assert n > 2 * _CSV_BLOCK
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                        -2.2e-310, np.finfo(float).tiny, 0.1, 0.1 + 2e-17])
    special[3] = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]
    table = np.column_stack([
        table,
        np.repeat(np.arange(7) * 0.1, n // 7 + 1)[:n],
        special[rng.integers(0, len(special), size=n)],
        np.tile([0.0, -0.0], n // 2),
    ])
    assert np.signbit(table[1, -1]) and not np.signbit(table[0, -1])
    header = ["i", "a", "b", "c", "repeated", "special", "zeros"]
    _write_csv(tmp_path / "new.csv", header, [table])
    with open(tmp_path / "ref.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _reference_csv(path, header, axes, arrays, columns):
    """Full meshgrid table, its columns reordered, written value by value."""
    mesh = np.meshgrid(*axes, indexing="ij")
    table = np.column_stack([m.ravel() for m in mesh]
                            + [np.asarray(a).ravel() for a in arrays])[:, columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")


@pytest.mark.parametrize("shape, columns", [
    ((3, 37, 41), [1, 2, 0, 4, 3]),      # 4551 rows: one full block and a rest
    ((9000,), [0, 1, 2]),
])
def test_streamed_grid_rows_match_per_value_formatting(tmp_path, shape, columns):
    from fracplasma.cli import _CSV_BLOCK, _grid_rows, _write_csv
    rng = np.random.default_rng(len(shape))
    axes = tuple(np.sort(rng.standard_normal(n)) for n in shape)
    n = int(np.prod(shape))
    assert n > _CSV_BLOCK and n % _CSV_BLOCK
    u = rng.standard_normal(shape)
    u.flat[::5] = -0.0
    # a view in another axis order, as the CLI passes a slab's layers
    v = np.moveaxis(rng.standard_normal(shape[1:] + shape[:1]), -1, 0)
    arrays = [u, v][:len(columns) - len(shape)]
    header = [f"c{k}" for k in range(len(columns))]
    blocks = list(_grid_rows(axes, arrays, columns=columns))
    assert [len(b) for b in blocks[:-1]] == [_CSV_BLOCK] * (len(blocks) - 1)
    assert sum(len(b) for b in blocks) == n
    _write_csv(tmp_path / "new.csv", header, iter(blocks))
    _reference_csv(tmp_path / "ref.csv", header, axes, arrays, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_streamed_csv_memory_does_not_grow_with_the_grid():
    # square blow-ups of 33 nodes x 25 layers and 65 nodes x 49 layers:
    # 27,225 and 207,025 rows; the larger table alone is 6.6 MB of text
    import os
    import tracemalloc
    from fracplasma.cli import _grid_rows, _write_csv
    peaks = []
    for n, layers in ((33, 25), (65, 49)):
        x = np.linspace(-1.0, 1.0, n)
        y = (np.arange(layers) / (layers - 1)) ** 2
        values = np.random.default_rng(3).standard_normal((n, n, layers))
        tracemalloc.start()
        try:
            _write_csv(Path(os.devnull), ["x1", "x2", "y", "value"],
                       _grid_rows((y, x, x), [np.moveaxis(values, -1, 0)],
                                  columns=[1, 2, 0, 3]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 7.6 times the rows may add 0.25 MB, where building the tables would
    # add 5.7 MB
    assert max(peaks) <= 2e6
    assert peaks[1] - peaks[0] <= 0.25e6


def test_cli_solve_writes_outputs(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["status"] == "converged"
    assert payload["residual"] <= 1e-10
    assert (out / "u.csv").exists()
    assert (out / "extension_slices.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]


def test_cli_solution_records_forcing_of_each_step(tmp_path):
    from fracplasma.plasma import _MINRES_RTOL

    # the interval's plasma sets take direct steps (forcing 0); the 35-node
    # square, above the Green matrix cap, only MINRES steps, the first and
    # the last tight and some between at a looser forcing term
    square = {"domain": {"kind": "rectangle", "n": 35,
                         "bounds": [[0.0, np.pi], [0.0, np.pi]]},
              "lambda_factor": 3.2}
    for name, overrides in (("interval", {}), ("square", square)):
        out = tmp_path / name
        path = write_config(tmp_path, overrides, name=f"{name}.json")
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "solution.json").read_text())
        forcing, minres = payload["forcing"], payload["minres_iterations"]
        assert len(forcing) == len(minres) == payload["iterations"] > 0
        if name == "interval":
            assert forcing == [0.0] * len(minres) and not any(minres)
        else:
            assert all(minres) and forcing[0] == forcing[-1] == _MINRES_RTOL
            assert max(forcing) > _MINRES_RTOL


def test_cli_constrained_and_energy_solves_agree_on_lambda(tmp_path):
    lams = {}
    for mode, method in (("constrained", "active-set"), ("energy", "energy")):
        path = write_config(tmp_path, {
            "domain": {"kind": "rectangle", "n": 17,
                       "bounds": [[0.0, np.pi], [0.0, np.pi]]},
            "mode": mode, "constraint_target": 0.025,
        }, name=f"{mode}.json")
        out = tmp_path / mode
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["method"] == method
        lams[mode] = payload["lam"]
    assert lams["energy"] == pytest.approx(lams["constrained"], rel=1e-6)


@pytest.mark.parametrize("mode", ["fixed_lambda", "constrained", "energy"])
def test_cli_solver_check_reports_the_quantity_it_judges(tmp_path, mode):
    overrides = {"domain": {"kind": "rectangle", "n": 17,
                            "bounds": [[0.0, np.pi], [0.0, np.pi]]}, "mode": mode}
    if mode != "fixed_lambda":
        overrides["constraint_target"] = 0.025
    path = write_config(tmp_path, overrides)
    out = tmp_path / mode
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    check, = json.loads((out / "report.json").read_text())["checks"]
    assert check["name"] == "solver converged" and check["passed"]
    assert check["value"] <= check["tolerance"]
    expected = 1e-6 if mode == "energy" else 1e-10
    assert check["tolerance"] == expected


def test_cli_frequency_writes_profiles(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "freq"
    assert main(["frequency", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "profiles.csv").read_text().splitlines()
    header = text[0].split(",")
    for column in ("r", "frequency", "adjusted", "corrected"):
        assert column in header
    summary = json.loads((out / "frequency.json").read_text())
    assert summary["centers"][0]["corrected_violations"] == []


def test_cli_blowup_roundtrip(tmp_path):
    path = write_config(tmp_path, {
        "blowup": {"center": [1.5707963267948966], "radius": 0.5,
                   "ref_nodes": 33, "ref_layers": 16},
    })
    out = tmp_path / "bl"
    assert main(["blowup", "--config", str(path), "--out", str(out)]) == 0
    meta = json.loads((out / "blowup.json").read_text())
    assert meta["boundary_mass"] == pytest.approx(1.0, abs=1e-6)
    assert (out / "blowup.csv").exists()


def test_cli_extends_only_the_layers_it_reads(tmp_path, monkeypatch):
    import fracplasma.cli as cli
    meshes, calls = [], []

    def mesh_spy(*args, **kwargs):
        meshes.append(build_ymesh(*args, **kwargs))
        return meshes[-1]

    def spy(f, s, ymesh):
        w = extend_semianalytic(f, s, ymesh)
        calls.append((ymesh, w.ymesh.nodes))
        return w

    monkeypatch.setattr(cli, "build_ymesh", mesh_spy)
    monkeypatch.setattr(cli, "extend_semianalytic", spy)
    path = write_config(tmp_path, {
        "frequency": {"centers": [[1.0], [1.5707963267948966], [0.01]]},
        "blowup": {"center": [1.5707963267948966], "radius": 0.5},
    })
    for command in ("solve", "frequency", "blowup"):
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / command)]) == 0
    (solve, solve_nodes), (freq, freq_nodes), (blow, _) = calls
    # the solve's configured mesh, of which it extends the written layers
    full, picks = meshes[0], [0, 1, 2, 4, 6, 12, 24, 48]
    assert full.M == 48 and solve.grading == full.grading
    assert np.array_equal(solve.nodes, full.nodes[picks])
    assert np.array_equal(solve_nodes, full.nodes[picks])
    slices = np.loadtxt(tmp_path / "solve" / "extension_slices.csv", delimiter=",",
                        skiprows=1)
    assert np.array_equal(np.unique(slices[:, 0]), full.nodes[picks])
    # the largest ladder is the centre pi/2's: half its room
    reach = 0.5 * min(np.pi / 2, full.Y)
    assert freq_nodes[-2] < reach <= freq_nodes[-1] < full.Y
    assert np.array_equal(freq.nodes, full.nodes[:freq.M + 1])
    assert blow.nodes[-2] < 0.5 <= blow.nodes[-1]


def test_cli_verify_census_shifts_and_extends_only_its_prefix(tmp_path, monkeypatch):
    import fracplasma.cli as cli
    meshes, extended, shifted = {}, [], []

    def mesh_spy(*args, **kwargs):
        ym = build_ymesh(*args, **kwargs)
        meshes[ym.M] = ym
        return ym

    def spy(f, s, ymesh):
        extended.append((f.basis.domain.grid_shape, ymesh.M))
        return extend_semianalytic(f, s, ymesh)

    shift = ExtensionField.shifted

    def shift_spy(self, level):
        shifted.append((self.domain.grid_shape, self.ymesh.M))
        return shift(self, level)

    monkeypatch.setattr(cli, "build_ymesh", mesh_spy)
    monkeypatch.setattr(cli, "extend_semianalytic", spy)
    monkeypatch.setattr(ExtensionField, "shifted", shift_spy)
    path = write_config(tmp_path, {
        "domain": {"kind": "rectangle", "n": 25,
                   "bounds": [[0.0, np.pi], [0.0, np.pi]]},
        "s": 0.75, "extension": {"span_factor": 20.0, "layers": 64}})
    out = tmp_path / "verify"
    main(["verify", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    census = [c for c in report["checks"]
              if c["name"] == "census stable under refinement"]
    assert census[0]["note"] == "0 singular at base, 0 refined"
    # the base extension is the whole mesh (dtn and the y-sign check read
    # it); the refined one stops at the refined census's prefix
    assert extended[0] == ((25, 25), 64)
    assert extended[1][0] == (49, 49) and 0 < extended[1][1] < 128
    assert set(meshes) >= {64, 128}
    # each census shifts only a prefix, well short of its mesh
    assert [grid for grid, _ in shifted] == [(25, 25), (49, 49)]
    assert shifted[0][1] < 64 // 4
    assert extended[1][1] == shifted[1][1] < 128 // 4


def test_cli_frequency_without_a_ladder_does_not_extend(tmp_path, monkeypatch):
    import fracplasma.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("no centre has room for a ladder")

    monkeypatch.setattr(cli, "extend_semianalytic", forbidden)
    path = write_config(tmp_path, {"frequency": {"centers": [[0.01], [3.13]]}})
    out = tmp_path / "freq"
    assert main(["frequency", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "frequency.json").read_text())
    assert [c["skipped"] for c in summary["centers"]] == \
        ["no room for a radius ladder"] * 2
    assert (out / "profiles.csv").read_text() == \
        "center_index,r,energy,boundary,thin_mass,frequency,adjusted,corrected\n"


def test_cli_symmetrize_reports_energy(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sym"
    assert main(["symmetrize", "--config", str(path), "--out", str(out)]) == 0
    meta = json.loads((out / "symmetrize.json").read_text())
    assert meta["energy_after"] <= meta["energy_before"] * (1 + 1e-10) + 1e-12
    assert meta["mass_after"] == pytest.approx(meta["mass_before"], abs=1e-12)


def test_cli_symmetrize_on_readme_square(tmp_path):
    path = write_config(tmp_path, {
        "domain": {"kind": "rectangle", "n": 49,
                   "bounds": [[0.0, np.pi], [0.0, np.pi]]},
        "s": 0.75,
        "extension": {"span_factor": 20.0, "layers": 200},
    })
    out = tmp_path / "sym49"
    assert main(["symmetrize", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["passed"] for c in report["checks"]] == [True, True]


def test_cli_memory_error_is_clean_exit_1(tmp_path, monkeypatch, capsys):
    import fracplasma.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "eigendecompose", exhausted)
    path = write_config(tmp_path)
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "oom")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "out of memory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"),
                                   SystemError("error return without exception set")])
def test_cli_linear_algebra_error_is_clean_exit_1(tmp_path, monkeypatch, capsys,
                                                  error):
    import fracplasma.cli as cli

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "eigendecompose", broken)
    path = write_config(tmp_path)
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "linalg")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "linear algebra failure" in err
    assert str(error) in err
    assert "Traceback" not in err


def test_cli_verify_green_on_healthy_problem(tmp_path):
    path = write_config(tmp_path, {"extension": {"span_factor": 20.0,
                                                 "layers": 160}})
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "extension matches spectral operator" in names
    assert "census stable under refinement" in names
    # passing checks 2 and 3 carry no note
    notes = {c["name"]: c["note"] for c in report["checks"]}
    assert notes["extension nonincreasing in y"] == ""
    assert notes["level transitions within one cell"] == ""


def test_cli_verify_failing_checks_say_where(tmp_path, monkeypatch):
    import fracplasma.cli as cli
    from fracplasma import Domain, InclusionReport, UySignReport

    monkeypatch.setattr(cli, "check_uy_sign", lambda w: UySignReport(
        max_derivative=0.5, n_violations=3, worst_location=(10, 4), passed=False))
    monkeypatch.setattr(cli.fb, "check_boundary_inclusion",
                        lambda dom, u, level: InclusionReport(
                            max_gap_cells=2.0, violations=[(20.5,), (40.0,)],
                            passed=False))
    # the flux is off at node 12 and the mirror image at node 20; the census
    # finds no singular point at base and two on the refined grid
    dtn, census = cli.dtn, cli.fb.singular_census

    def bump(index, values):
        values = values.copy()
        values[index] += 1.0
        return values

    monkeypatch.setattr(cli, "dtn", lambda w, lam1: bump(12, dtn(w, lam1=lam1)))
    monkeypatch.setattr(Domain, "reflect",
                        lambda self, u, axis: bump(20, np.flip(u, axis)))
    found = iter([[], [(0.25,), (1.75,)]])
    monkeypatch.setattr(cli.fb, "singular_census", lambda *args: dataclasses.replace(
        census(*args), singular_locations=next(found)))
    path = write_config(tmp_path)
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    notes = {c["name"]: c["note"]
             for c in json.loads((out / "report.json").read_text())["checks"]}
    h = np.pi / 64
    assert notes["extension nonincreasing in y"] == (
        f"u_y > 0 at 3 node-layer pairs; largest at ({10 * h:.6g}) above layer 4")
    assert notes["level transitions within one cell"] == (
        f"2 unmatched transitions; first at ({20.5 * h:.6g})")
    assert notes["extension matches spectral operator"] == f"largest at ({12 * h:.6g})"
    assert notes["solution symmetric"] == (
        f"largest for the mirror in x1, at ({20 * h:.6g})")
    assert notes["census stable under refinement"] == (
        "0 singular at base, 2 refined; base at none, refined at (0.25), (1.75)")


def test_cli_bad_config_returns_2(tmp_path):
    path = write_config(tmp_path, {"s": 2.0})
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("overrides, key", [
    ({"seed": 3}, "seed"),
    ({"solver": {"damping": 0.5}}, "damping"),
    ({"solver": {"picard_budget": 300}}, "picard_budget"),
    ({"solver": {"constraint_kind": "quadratic"}}, "constraint_kind"),
])
def test_cli_removed_keys_are_unknown_exit_2(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, overrides)
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "unknown keys" in err
    assert repr(key) in err
    if "solver" in overrides:
        assert "allowed keys are ['tolerance']" in err


def test_cli_refine_flag(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "fine"
    assert main(["solve", "--config", str(path), "--out", str(out),
                 "--refine", "2.0"]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["n_interior"] == 127


@pytest.mark.parametrize("command", ["solve", "frequency", "blowup",
                                     "symmetrize", "verify"])
def test_cli_failed_solve_writes_report_exit_1(tmp_path, monkeypatch, capsys,
                                               command):
    import fracplasma.cli as cli
    from fracplasma import SolverError

    def diverged(*args, **kwargs):
        raise SolverError("no convergence", history=[1.0, 0.5])

    monkeypatch.setattr(cli, "solve_fixed_lambda", diverged)
    path = write_config(tmp_path, {
        "blowup": {"center": [1.5707963267948966], "radius": 0.5},
    })
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["name"] == command
    assert report["passed"] is False
    assert report["error"] == "no convergence"
    assert report["history"] == [1.0, 0.5]
    assert report["minres_iterations"] == report["forcing"] == []
    assert "solve failed: no convergence" in capsys.readouterr().err


# a solve that returns status 'failed' without raising: a tolerance below
# rounding, and a lam far above the branch's reach on the 33-node interval
# (residual 4.1e-5)
@pytest.mark.parametrize("command, overrides", [
    *[(command, {"solver": {"tolerance": 1e-300}})
      for command in ("solve", "frequency", "blowup", "symmetrize", "verify")],
    ("verify", {"lambda_factor": 1e12}),
], ids=["solve", "frequency", "blowup", "symmetrize", "verify", "verify-far-lam"])
def test_cli_unconverged_solve_is_failed_solve(tmp_path, capsys, command, overrides):
    path = write_config(tmp_path, {
        "domain": {"n": 33}, **overrides,
        "blowup": {"center": [1.5707963267948966], "radius": 0.5},
    })
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    # nothing of the unconverged field is written or analysed
    assert [p.name for p in out.iterdir()] == ["report.json"]
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False and "checks" not in report
    assert re.fullmatch(r"active-set(\+continuation)? solve failed \(residual \S+\)",
                        report["error"])
    assert len(report["history"]) > 1 and report["minres_iterations"]
    assert len(report["forcing"]) == len(report["minres_iterations"])
    assert capsys.readouterr().err.startswith("solve failed: active-set")


def test_cli_energy_target_below_resolution_is_failed_solve(tmp_path, capsys):
    # (t u - gamma)_+ rounds to zero where the square root of the target
    # mass is far below gamma times the rounding unit
    overrides = {"domain": {"n": 33}, "mode": "energy", "constraint_target": 1e-40}
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(write_config(tmp_path, overrides)),
                 "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False and "rounds to zero" in report["error"]
    err = capsys.readouterr().err
    assert err.startswith("solve failed: energy route:") and err.count("\n") == 1
    # targets far below gamma^2 times the rounding unit converge on target:
    # one node active, the scale has a closed form
    for target in (1e-20, 1e-18, 1e-16):
        overrides["constraint_target"] = target
        out = tmp_path / f"small{target:g}"
        assert main(["solve", "--config", str(write_config(tmp_path, overrides)),
                     "--out", str(out)]) == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["status"] == "converged"
        assert (abs(sol["constraint_value"] - target)
                <= SolverOptions.constraint_rtol * target)


def _solve_forbidden(*args, **kwargs):
    raise AssertionError("the request should be refused before the solve")


def test_cli_blowup_radius_below_five_cells_refused_before_solve(
        tmp_path, monkeypatch, capsys):
    import fracplasma.cli as cli

    monkeypatch.setattr(cli, "solve_fixed_lambda", _solve_forbidden)
    path = write_config(tmp_path, {
        "domain": {"kind": "rectangle", "n": 17,
                   "bounds": [[0.0, np.pi], [0.0, np.pi]]},
        "blowup": {"center": [1.5707963267948966, 1.5707963267948966],
                   "radius": 0.4},          # five cells are 5 pi / 16 = 0.98
    })
    out = tmp_path / "bl"
    assert main(["blowup", "--config", str(path), "--out", str(out)]) == 2
    assert "below five grid cells" in capsys.readouterr().err
    assert not out.exists()


def test_refused_domain_leaves_no_output_directory(tmp_path, capsys):
    # unequal spacing on the two axes: the domain is refused before the
    # output directory is made
    path = write_config(tmp_path, {"domain": {
        "kind": "rectangle", "n": [17, 17], "bounds": [[0.0, 3.14159], [0.0, 1.0]]}})
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: grid spacing must agree on both axes")
    assert not out.exists()


_SQUARE = {"kind": "rectangle", "bounds": [[0.0, np.pi], [0.0, np.pi]]}


@pytest.mark.parametrize("command, overrides, message", [
    ("solve", {"domain": {**_SQUARE, "n": 17}, "extension": {"grading": 0.5}},
     "extension.grading must be >= 1"),
    ("symmetrize", {"domain": {**_SQUARE, "n": 17}, "extension": {"grading": 0.5}},
     "extension.grading must be >= 1"),
    ("solve", {"mode": "constrained", "constraint_target": -1.0},
     "constraint_target must be positive"),
    ("solve", {"lambda_value": -1.0}, "lambda_value must be nonnegative"),
    ("blowup", {"domain": {**_SQUARE, "n": 25},
                "blowup": {"center": [0.3, 1.57], "radius": 0.7}},
     "blow-up ball of radius 0.7 leaves the domain (room 0.3)"),
    ("blowup", {"domain": {**_SQUARE, "n": 25},
                "blowup": {"center": [9.0, 1.57], "radius": 0.7}},
     "leaves the domain (room -5.858)"),
])
def test_out_of_range_values_refused_before_solve(tmp_path, monkeypatch, capsys,
                                                  command, overrides, message):
    import fracplasma.cli as cli

    monkeypatch.setattr(cli, "eigendecompose", _solve_forbidden)
    path = write_config(tmp_path, overrides)
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["frequency", "blowup", "symmetrize", "verify"])
def test_cli_extension_commands_refuse_s_one_before_solve(
        tmp_path, monkeypatch, capsys, command):
    import fracplasma.cli as cli

    monkeypatch.setattr(cli, "solve_fixed_lambda", _solve_forbidden)
    path = write_config(tmp_path, {
        "domain": {"n": 33},
        "s": 1.0,
        "blowup": {"center": [1.5707963267948966], "radius": 0.5},
    })
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "requires s in (0, 1)" in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("*.csv"))


def test_cli_solve_still_runs_at_s_one(tmp_path):
    path = write_config(tmp_path, {"domain": {"n": 33}, "s": 1.0})
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "u.csv").exists()
    assert not (out / "extension_slices.csv").exists()


def test_cli_verify_steiner_energy_matches_symmetrize(tmp_path, monkeypatch):
    # BASE has span_factor 12, so a mesh built with the default span differs
    import fracplasma.cli as cli

    meshes = []
    energy = cli.fd_energy

    def recording(basis, values, s, ymesh):
        meshes.append(ymesh.nodes)
        return energy(basis, values, s, ymesh)

    monkeypatch.setattr(cli, "fd_energy", recording)
    path = write_config(tmp_path)
    main(["symmetrize", "--config", str(path), "--out", str(tmp_path / "sym")])
    main(["verify", "--config", str(path), "--out", str(tmp_path / "ver")])
    assert len(meshes) == 4
    for nodes in meshes[1:]:
        np.testing.assert_array_equal(nodes, meshes[0])
    meta = json.loads((tmp_path / "sym" / "symmetrize.json").read_text())
    report = json.loads((tmp_path / "ver" / "report.json").read_text())
    steiner = {c["name"]: c for c in report["checks"]}["Steiner energy non-increasing"]
    assert steiner["value"] == meta["energy_after"] - meta["energy_before"]


def test_cli_keeps_no_green_matrix_after_its_solve(tmp_path, monkeypatch):
    import fracplasma.plasma as plasma

    builds = []
    build = plasma._green_matrix

    def counted(basis, s):
        builds.append(basis.domain.n_interior)
        return build(basis, s)

    monkeypatch.setattr(plasma, "_green_matrix", counted)
    path = write_config(tmp_path, {"domain": {**_SQUARE, "n": 25}, "s": 0.75,
                                   "extension": {"layers": 64}})
    for command in ("symmetrize", "verify"):
        main([command, "--config", str(path), "--out", str(tmp_path / command)])
        assert plasma._green_slot is None
    # verify's refined run, 47^2 interior nodes, is above the cap
    assert builds == [23 * 23] * 2


def _patch_every_binding(monkeypatch, module, name, replacement):
    """Replace ``module.name`` under every package module name bound to it,
    so calls through imported names reach the replacement too."""
    import sys

    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("fracplasma")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, replacement)
    return original


@pytest.mark.parametrize("command", ["symmetrize", "verify"])
def test_cli_energy_needs_no_slab(tmp_path, monkeypatch, command):
    import fracplasma.extension as extension

    def forbidden(*args, **kwargs):
        raise AssertionError("the Steiner energy needs no slab")

    for name in ("extend_fd", "weighted_energy"):
        _patch_every_binding(monkeypatch, extension, name, forbidden)
    path = write_config(tmp_path)
    main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    name = ("energy does not increase" if command == "symmetrize"
            else "Steiner energy non-increasing")
    assert {c["name"]: c for c in report["checks"]}[name]["passed"]


# BASE's 65-node interval has 63 interior nodes, and verify's refined run 127
@pytest.mark.parametrize("command, basis_size, sizes", [
    ("symmetrize", None, [63]),
    ("verify", None, [63, 127]),
    ("symmetrize", 20, [20, 63]),
])
def test_cli_energy_builds_the_complete_basis_once(tmp_path, monkeypatch,
                                                   command, basis_size, sizes):
    import fracplasma.domains as domains

    built = []

    def counting(domain, K):
        built.append(K)
        return build(domain, K)

    build = _patch_every_binding(monkeypatch, domains, "eigendecompose", counting)
    path = write_config(tmp_path, {"basis_size": basis_size})
    main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert built == sizes


def test_cli_verify_strip_note_says_where(tmp_path):
    from fracplasma import (build_domain, check_subharmonic_strip,
                            eigendecompose, solve_fixed_lambda)

    square = {"kind": "rectangle", "n": 25, "bounds": [[0.0, np.pi], [0.0, np.pi]]}
    path = write_config(tmp_path, {"domain": square, "s": 0.75,
                                   "extension": {"span_factor": 20.0, "layers": 64}})
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    strip = {c["name"]: c for c in report["checks"]}["subharmonic strip"]
    assert not strip["passed"]
    assert strip["value"] == pytest.approx(-0.657, abs=1e-3)

    dom = build_domain("rectangle", 25, bounds=((0.0, np.pi), (0.0, np.pi)))
    basis = eigendecompose(dom, dom.n_interior)
    lam = 4.0 * float(basis.eigenvalues[0] ** 0.75)
    sol = solve_fixed_lambda(basis, lam, 0.1, 0.75)
    ref = check_subharmonic_strip(dom, sol.trace, 0.1, 0.75)
    at = ", ".join(f"{c:.6g}" for c in ref.location)
    assert strip["value"] == ref.min_laplacian
    assert strip["note"] == f"minimum at ({at}) of {ref.n_nodes} strip nodes"


# -- malformed configurations end in exit 2 -------------------------------------------


@pytest.mark.parametrize("domain", [
    {"kind": "disk", "n": 25, "radius": 1.0, "center": [0.0, 0.0]},
    {"kind": "rectangle", "n": 25, "bounds": [0, 1]},
    {"kind": "interval", "n": 25, "bounds": [[0, 1], [0, 1]]},
])
def test_malformed_domain_is_config_error_exit_2(tmp_path, capsys, domain):
    path = write_config(tmp_path, {"domain": domain})
    with pytest.raises(ConfigError, match="bounds"):
        load_config(str(path))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


_GOOD_DOMAINS = {
    "interval": {"kind": "interval", "n": 17, "bounds": [0.0, np.pi]},
    "rectangle": {"kind": "rectangle", "n": 9,
                  "bounds": [[0.0, np.pi], [0.0, np.pi]]},
    "disk": {"kind": "disk", "n": 13, "bounds": [[-1.5, 1.5], [-1.5, 1.5]],
             "radius": 1.4, "center": [0.0, 0.0]},
}
# values of a wrong type or shape for any field
_JUNK = st.sampled_from([None, True, "7", "interval", 2.5, -3, 0, [], [1.0],
                         [1, 2, 3], [0, 1], [[0, 1]], [[0, 1], [0, 1]],
                         [["a", 1], [0, 1]], {"x": 1}, float("nan"),
                         [0, float("inf")]])
_DOMAIN_FIELDS = {
    "kind": st.sampled_from(["interval", "rectangle", "disk", "torus"]) | _JUNK,
    "n": st.integers(-1, 21) | st.lists(st.integers(2, 21), min_size=1,
                                        max_size=3) | _JUNK,
    "bounds": st.sampled_from([[0.0, np.pi], [np.pi, 0.0], [[0.0, np.pi]] * 2,
                               [[-1.5, 1.5]] * 2, [[0.0, 1.0], [0.0, 2.0]]]) | _JUNK,
    "radius": st.floats(-1.0, 2.0) | _JUNK,
    "center": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3) | _JUNK,
    "spacing": _JUNK,                  # not a field: an unknown key
}
# every other field of the configuration, with the value it is set to
_OTHER_FIELDS = [
    ("s",), ("gamma",), ("mode",), ("lambda_factor",), ("lambda_value",),
    ("constraint_target",), ("basis_size",), ("out_dir",),
    ("extension", "span_factor"), ("extension", "layers"),
    ("extension", "grading"), ("solver", "tolerance"), ("frequency", "centers"),
    ("frequency", "n_radii"), ("frequency", "r_max_fraction"),
    ("blowup", "center"), ("blowup", "radius"), ("blowup", "ref_nodes"),
    ("blowup", "ref_layers"),
]


# values of the right type but out of range, with the subcommand that reads
# them; the blow-up ball (its centre is put at 9 on every axis) leaves every
# domain above, and its radius is above five of their grid cells
_OUT_OF_RANGE = [
    ("solve", {"extension": {"grading": 0.5}}),
    ("solve", {"mode": "constrained", "constraint_target": -1}),
    ("solve", {"lambda_value": -1}),
    ("blowup", {"blowup": {"radius": 2.5}}),
]


@settings(max_examples=200)
@given(base=st.sampled_from(sorted(_GOOD_DOMAINS)),
       changes=st.fixed_dictionaries({}, optional=_DOMAIN_FIELDS),
       missing=st.sets(st.sampled_from(sorted(_DOMAIN_FIELDS))),
       other=st.none() | st.tuples(st.sampled_from(_OTHER_FIELDS), _JUNK),
       bad=st.none() | st.sampled_from(_OUT_OF_RANGE))
def test_any_domain_config_exits_cleanly(base, changes, missing, other, bad):
    # the solve stage is stubbed to fail at its first step, the eigenbasis,
    # so a config that gets through validation and domain construction
    # exits 1 with a report, and no example pays for a solve; an
    # out-of-range value is refused before that stub, with exit 2
    import fracplasma.cli as cli
    from fracplasma import SolverError

    def diverged(*args, **kwargs):
        raise SolverError("stub solve")

    data = json.loads(json.dumps(BASE))
    data["domain"] = {**_GOOD_DOMAINS[base], **changes}
    if base != "interval":
        data["frequency"]["centers"] = [[0.5, 0.5]]
    for key in missing:
        data["domain"].pop(key, None)
    if other is not None:
        path, value = other
        (data.setdefault(path[0], {}) if len(path) == 2 else data)[path[-1]] = value
    command = "solve"
    if bad is not None:
        command, values = bad
        for key, value in values.items():
            if isinstance(value, dict):
                data.setdefault(key, {}).update(value)
            else:
                data[key] = value
        if command == "blowup":
            data["blowup"]["center"] = [9.0] * (1 if base == "interval" else 2)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "eigendecompose", diverged), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        has_report = (out / "report.json").is_file()
    text = err.getvalue()
    event(f"exit {code}")
    assert "Traceback" not in text
    if bad is not None:
        assert code == 2, (bad, text)
    if code == 2:
        assert len(text.strip().splitlines()) == 1, text
    else:
        assert code == 1 and has_report, (code, text)


@pytest.mark.parametrize("command, overrides", [
    ("frequency", {"frequency": {"centers": [[1.0, 1.0]]}}),
    ("blowup", {"blowup": {"center": [1.0, 1.0], "radius": 0.5}}),
    ("frequency", {"domain": {"kind": "rectangle", "n": 17,
                              "bounds": [[0.0, np.pi], [0.0, np.pi]]},
                   "frequency": {"centers": [[1.0, 1.0], [1.0]]}}),
    ("blowup", {"domain": {"kind": "disk", "n": 13, "bounds": [[-1.5, 1.5]] * 2,
                           "radius": 1.4, "center": [0.0, 0.0]},
                "blowup": {"center": [0.2], "radius": 0.5}}),
])
def test_centre_of_another_dimension_refused_before_solve(
        tmp_path, monkeypatch, capsys, command, overrides):
    import fracplasma.cli as cli

    monkeypatch.setattr(cli, "eigendecompose", _solve_forbidden)
    path = write_config(tmp_path, overrides)
    with pytest.raises(ConfigError, match="coordinates"):
        load_config(str(path))
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_disk_without_n_refused_before_solve(tmp_path, monkeypatch, capsys):
    import fracplasma.cli as cli

    monkeypatch.setattr(cli, "eigendecompose", _solve_forbidden)
    path = write_config(tmp_path, {"domain": {
        "kind": "disk", "bounds": [[-1.5, 1.5]] * 2, "radius": 1.4,
        "center": [0.0, 0.0]}})
    data = json.loads(path.read_text())
    data["domain"].pop("n")
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="disk domains need n"):
        load_config(str(path))
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1
    assert not out.exists()
    # the other kinds keep their default size
    assert load_config(str(write_config(tmp_path, {"domain": {"n": None}}))).domain.n == 129


# scipy subpackages the package never loads on intervals, rectangles of at
# most 10,000 interior nodes, and their solvers
UNLOADED_SCIPY = ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.fft")


def _fresh_python(code, *args):
    """stdout of ``code`` run by a fresh interpreter that imports this tree's
    package (this one holds scipy.optimize and scipy.sparse through oracles)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_runs_import_no_optimize_spatial_sparse_or_fft(tmp_path):
    square = write_config(tmp_path, {
        "domain": {"kind": "rectangle", "n": 17, "bounds": [[0.0, np.pi], [0.0, np.pi]]},
        "s": 0.75, "frequency": {"centers": [[np.pi / 2, np.pi / 2]], "n_radii": 8}},
        name="square.json")
    interval = write_config(tmp_path, name="interval.json")
    code = """if True:
        import json
        import sys
        import numpy as np
        import fracplasma.cli
        from fracplasma import (build_domain, eigendecompose, minimize_energy,
                                solve_constrained, solve_fixed_lambda)
        square, interval, out, unloaded = sys.argv[1:]

        def loaded():
            return sorted(m for m in sys.modules if m.startswith(tuple(unloaded.split())))
        dom = build_domain("rectangle", 17, bounds=((0.0, np.pi),) * 2)
        basis = eigendecompose(dom, dom.n_interior)
        lam1s = float(basis.eigenvalues[0] ** 0.75)
        seen = [[solve_fixed_lambda(basis, 4 * lam1s, 0.1, 0.75).status,
                 solve_constrained(basis, 0.01, 0.1, 0.75).status,
                 minimize_energy(basis, 0.01, 0.1, 0.75).status] + loaded()]
        for command, path in (("verify", square), ("frequency", square),
                              ("frequency", interval)):
            code = fracplasma.cli.main([command, "--config", path, "--out", out])
            seen.append([command, code] + loaded())
        print(json.dumps(seen))
    """
    seen = json.loads(_fresh_python(code, square, interval, tmp_path / "out",
                                    " ".join(UNLOADED_SCIPY)).splitlines()[-1])
    assert seen[0] == ["converged"] * 3
    assert seen[1] in (["verify", 0], ["verify", 1])
    assert seen[2:] == [["frequency", 0], ["frequency", 0]]


def test_disk_and_large_grid_paths_load_their_scipy_parts(tmp_path):
    # the 17-node disk has 177 interior nodes: K = 4 takes eigsh, K = 40 eigh;
    # the 129-node square's transform is dstn
    code = """if True:
        import sys
        import numpy as np
        from fracplasma import build_domain, domains, eigendecompose
        dom = build_domain("disk", 17, bounds=((-1.5, 1.5),) * 2, radius=1.4,
                           center=(0.0, 0.0))
        loaded = ["scipy.sparse" in sys.modules]
        out = {}
        for K in (4, 40):
            basis = eigendecompose(dom, K)
            out[f"lam{K}"], out[f"vec{K}"] = basis.eigenvalues, basis.vectors
            loaded.append("scipy.sparse.linalg" in sys.modules)
        loaded.append("scipy.fft" in sys.modules)
        values = np.random.default_rng(0).standard_normal((127, 127, 2))
        out["dstn"] = domains._SineGrid((127, 127)).transform(values)
        loaded.append("scipy.fft" in sys.modules)
        np.savez(sys.argv[1], **out)
        print(*loaded)
    """
    from fracplasma import domains
    path = tmp_path / "lazy.npz"
    assert _fresh_python(code, path).split() == ["False", "True", "True", "False", "True"]
    got = np.load(path)
    dom = build_domain("disk", 17, bounds=((-1.5, 1.5),) * 2, radius=1.4,
                       center=(0.0, 0.0))
    assert dom.n_interior // 12 >= 4 and dom.n_interior // 12 < 40
    for K in (4, 40):
        basis = eigendecompose(dom, K)
        assert got[f"lam{K}"].tobytes() == basis.eigenvalues.tobytes()
        assert got[f"vec{K}"].tobytes() == basis.vectors.tobytes()
    values = np.random.default_rng(0).standard_normal((127, 127, 2))
    want = domains._SineGrid((127, 127)).transform(values)
    assert got["dstn"].tobytes() == want.tobytes()


def _script(name):
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frequency_sweep_skips_an_order_without_room(tmp_path, capsys):
    # on the 25-node square half the room is below five cells at both orders
    _script("frequency_sweep").main(["--domain", "square", "--n", "25",
                                     "--s", "0.5,0.75", "--out", str(tmp_path)])
    assert capsys.readouterr().out.count("no room for a radius ladder; skipped") == 2
    assert (tmp_path / "frequency_sweep.csv").read_text().count("\n") == 1


def test_refinement_study_writes_one_row_per_grid(tmp_path, capsys):
    _script("refinement_study").main(["--nodes", "9,13", "--out", str(tmp_path)])
    with open(tmp_path / "refinement_study.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "h", "residual", "mass", "fb_cells", "singular",
                       "unresolved", "max_d2"]
    assert [row[0] for row in rows[1:]] == ["9", "13"]
    assert "(2 rows)" in capsys.readouterr().out


def test_solver_grid_quick_matches_a_tree_with_itself(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    assert _script("solver_grid").main(["--parent", str(src), "--change", str(src),
                                        "--quick"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^parent: 88 cases, \d+ Newton updates, \d+ MINRES iterations "
                     r"\(\d+ in \d+ loose steps, \d+ in \d+ tight\), "
                     r"[1-9]\d* Green matrix builds, solves \d+\.\d\d s$",
                     out, re.M)
    assert out.endswith("88 cases match\n")


def test_solver_grid_names_each_mismatch():
    case = {"status": "converged", "method": "active-set", "active": 9,
            "iterations": 4, "direct": 3, "minres_steps": 1, "sup_u": 0.5,
            "minres_total": 12, "seconds": 0.1}
    # a constrained or energy case: status, |A| and lam
    con = {"status": "converged", "active": 9, "lam": 4.0, "seconds": 0.5}
    error = dict(con, status="SolverError: stub", active=None, lam=None)
    solver_grid = _script("solver_grid")
    mismatches, tally = solver_grid.mismatches, solver_grid.tally
    near = dict(case, sup_u=0.5 + 1e-11, minres_total=40, seconds=2.0)
    con_near = dict(con, lam=4.0 * (1 + 1e-11), seconds=2.0)
    assert mismatches({"a": case, "m": con, "e": error},
                      {"a": near, "m": con_near, "e": dict(error)}) == []
    assert tally({"a": case, "m": con}, {"a": near, "m": con_near}) == (
        "differing cases by field: status 0, method 0, active 0, iterations 0, "
        "direct 0, minres_steps 0, sup u 0, lam 0")
    far = dict(case, sup_u=0.5 + 1e-9, direct=2, minres_steps=2)
    con_far = dict(con, active=8, lam=4.0 * (1 + 1e-9))
    assert mismatches({"a": case, "b": case, "m": con, "e": con},
                      {"a": far, "m": con_far, "e": error}) == [
        "a: direct 3 -> 2", "a: minres_steps 1 -> 2", "a: sup u 0.5 -> 0.500000001",
        "b: only on the parent side", "e: active 9 -> None", "e: lam 4.0 -> None",
        "e: status converged -> SolverError: stub", "m: active 9 -> 8",
        "m: lam 4.0 -> 4.000000004"]
    # one count per case and field; a case on one side only counts nowhere
    mix = dict(case, direct=2, minres_steps=2)
    assert tally({"a": case, "b": case, "c": case, "d": case, "m": con, "e": con},
                 {"a": far, "b": mix, "c": dict(case, status="failed"),
                  "m": con_far, "e": error}) == (
        "differing cases by field: status 2, method 0, active 2, iterations 0, "
        "direct 2, minres_steps 2, sup u 1, lam 2")


def test_solver_grid_gives_the_largest_lam_difference_per_route():
    lam_gaps = _script("solver_grid").lam_gaps
    fixed = {"status": "converged", "active": 9, "sup_u": 0.5}
    con = {"status": "converged", "active": 9, "lam": 4.0}
    parent = {"a": fixed, "m1 constrained": con, "m1 energy": con,
              "m2 energy": con, "m3 energy": con}
    change = {"a": fixed, "m1 constrained": con, "m1 energy": dict(con, lam=4.0 + 2e-8),
              "m2 energy": dict(con, lam=4.0 - 4e-8), "m3 energy": dict(con, lam=None)}
    assert lam_gaps(parent, change) == (
        "largest relative lam difference: constrained 0, energy 1e-08")
    assert lam_gaps({"a": fixed}, {"a": fixed}) == ""


def test_solver_grid_prints_each_route_disagreement():
    route_gaps = _script("solver_grid").route_gaps
    con = {"status": "converged", "active": 9, "lam": 6.9217, "seconds": 0.5}
    cases = {
        "sq s=0.3 m=0.01 constrained": con,
        "sq s=0.3 m=0.01 energy": dict(con, lam=4.3486),
        "sq s=0.5 m=0.01 constrained": con,
        "sq s=0.5 m=0.01 energy": dict(con, lam=6.9217 * (1 + 1e-7)),
        "sq s=0.75 m=0.01 constrained": dict(con, lam=None),
        "sq s=0.75 m=0.01 energy": con,
        "sq s=0.3 f=4.0": {"status": "converged", "sup_u": 0.5},
    }
    assert route_gaps(cases) == [
        "sq s=0.3 m=0.01: energy lam 4.3486 against constrained 6.9217"]


def test_compare_outputs_reports_cost_and_identical_runs(tmp_path, capsys):
    path = write_config(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    compare_outputs = _script("compare_outputs")
    assert compare_outputs.main(["--parent", str(src), "--change", str(src),
                                 "--commands", "solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"cfg\.json solve: exit 0 / 0; parent \d+\.\d\d s, "
                        r"\d+\.\d MB; change \d+\.\d\d s, \d+\.\d MB\n"
                        r"identical\n", out)
    # an unknown subcommand is refused before anything runs
    with pytest.raises(SystemExit) as exc:
        compare_outputs.main(["--parent", str(src), "--change", str(src),
                              "--commands", "solve,plot", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unknown subcommand 'plot'" in captured.err
    assert captured.out == ""


def test_compare_outputs_bounds_numeric_differences():
    diff = _script("compare_outputs").numeric_difference
    # relative to the largest magnitude in the column, text compared as such
    assert diff("u.csv", b"x,u\n0,4\n1,-8\n", b"x,u\n0,4\n1,-7\n") == (
        " (largest relative difference 0.12 in 'u': -8 -> -7; non-numeric content equal)")
    assert diff("u.csv", b"x,note\n0,a\n", b"x,note\n0,b\n") == (
        " (numbers equal; non-numeric content differs)")
    assert diff("u.csv", b"x,u\n0,1\n", b"x,u\n0,1\n1,2\n").endswith("content differs)")
    # JSON fields ignore list indices; a bool is not a number
    old = json.dumps({"checks": [{"value": 1.0, "passed": True}, {"value": 2.0}]})
    new = json.dumps({"checks": [{"value": 1.5, "passed": True}, {"value": 2.0}]})
    assert diff("r.json", old.encode(), new.encode()) == (
        " (largest relative difference 0.25 in '.checks[].value': 1 -> 1.5; "
        "non-numeric content equal)")
    flipped = new.replace("true", "false")
    assert diff("r.json", new.encode(), flipped.encode()).endswith("content differs)")
    assert diff("out.txt", b"a", b"b") == ""
