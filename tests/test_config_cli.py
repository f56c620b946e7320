import json

import numpy as np
import pytest

from fracplasma import ConfigError, ExperimentConfig, load_config
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
    ):
        path = write_config(tmp_path, overrides, name="bad.json")
        with pytest.raises(ConfigError, match=fragment):
            load_config(str(path))


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


# -- CLI subcommands -----------------------------------------------------------------


def test_csv_writer_bytes_match_per_value_formatting(tmp_path):
    from fracplasma.cli import _write_csv
    table = np.array([
        [0, 1.0, -2.5, 1e-300],
        [3, -0.0, 5e-324, 123456789.123456789],
        [-7, np.pi, -1e-17, 2.0**60],
        [12, 1 / 3, -np.e, 7.0],
    ] * 3000)
    header = ["i", "a", "b", "c"]
    _write_csv(tmp_path / "new.csv", header, table)
    with open(tmp_path / "ref.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
        assert payload["constraint_kind"] == "quadratic"
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


def test_cli_bad_config_returns_2(tmp_path):
    path = write_config(tmp_path, {"s": 2.0})
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("overrides, key", [
    ({"seed": 3}, "seed"),
    ({"solver": {"damping": 0.5}}, "damping"),
    ({"solver": {"picard_budget": 300}}, "picard_budget"),
])
def test_cli_removed_keys_are_unknown_exit_2(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, overrides)
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "unknown keys" in err
    assert repr(key) in err


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
    assert "solve failed: no convergence" in capsys.readouterr().err


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
    extend = cli.extend_fd

    def recording(dom, values, s, ymesh):
        meshes.append(ymesh.nodes)
        return extend(dom, values, s, ymesh)

    monkeypatch.setattr(cli, "extend_fd", recording)
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
