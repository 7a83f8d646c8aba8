import json

import numpy as np
import pytest

from trackcop import GridCopula, psi_bounds
from trackcop.cli import main, read_grid, read_grid_csv, write_grid_csv
from conftest import diagonal_spec


def write_spec(tmp_path, name="spec.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def fig2_spec_file(tmp_path):
    return write_spec(tmp_path, diagonal="fig2", psi="lower", mesh=51)


def test_validate_ok(tmp_path, capsys):
    spec = write_spec(tmp_path, diagonal="indep", mesh=51)
    assert main(["validate", spec]) == 0
    out = capsys.readouterr().out
    assert "copula exists: True" in out
    assert out.count("ok") >= 6


def test_validate_rejects_bad_diagonal(tmp_path, capsys):
    spec = write_spec(tmp_path, diagonal={"x": [0, 0.4, 0.5, 1],
                                          "y": [0, 0.25, 0.5, 1]}, mesh=51)
    assert main(["validate", spec]) == 1
    out = capsys.readouterr().out
    assert "condition (d): FAIL" in out
    assert "witness interval: [0.4, 0.5]" in out


def test_malformed_spec_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_unknown_diagonal_exits_2(tmp_path):
    spec = write_spec(tmp_path, diagonal="nope", mesh=51)
    assert main(["validate", spec]) == 2


def test_bad_psi_request_exits_2(tmp_path):
    spec = write_spec(tmp_path, diagonal="fig2", psi="blend:1.5", mesh=51)
    assert main(["bounds", spec, "--out", str(tmp_path)]) == 2


def test_bounds_writes_extremes(tmp_path, fig2_spec_file):
    assert main(["bounds", fig2_spec_file, "--out", str(tmp_path), "--quiet"]) == 0
    spec = diagonal_spec("fig2", 51)
    bounds = psi_bounds(spec)
    for fname, target in (("psi_lower.csv", bounds.psi_low),
                          ("psi_upper.csv", bounds.psi_up)):
        rows = (tmp_path / fname).read_text().strip().splitlines()
        assert rows[0] == "x,value"
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert np.array_equal(data[:, 0], target.x)
        assert np.array_equal(data[:, 1], target.y)


def test_build_outputs_and_exit(tmp_path, fig2_spec_file, capsys):
    assert main(["build", fig2_spec_file, "--out", str(tmp_path)]) == 0
    assert "copula checks: pass" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["copula_ok"] and report["two_increasing"]
    assert not (tmp_path / "grid.csv").exists()
    grid = read_grid(tmp_path / "grid.npy")
    assert grid.values[0, 0] == 0.0 and grid.values[-1, -1] == 1.0
    region = (tmp_path / "region.csv").read_text().splitlines()
    assert region[0] == "x,g,h"


def test_grid_csv_roundtrip_is_bit_exact(tmp_path, rng):
    mesh = np.concatenate(([0.0], np.sort(rng.random(7)), [1.0]))
    grid = GridCopula(mesh, rng.random((len(mesh), len(mesh))))
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    back = read_grid_csv(path)
    assert np.array_equal(back.mesh, grid.mesh)
    assert np.array_equal(back.values, grid.values)


def test_compare_extremes_exit_3(tmp_path, fig2_spec_file, capsys):
    code = main(["compare", fig2_spec_file, "lower", "upper",
                 "--out", str(tmp_path)])
    assert code == 3
    payload = json.loads((tmp_path / "comparison.json").read_text())
    assert payload["relation"] == "incomparable"
    assert payload["product"] < 0


def test_compare_equal_exit_0(tmp_path, fig2_spec_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["compare", fig2_spec_file, "lower", "lower", "--quiet"]) == 0
    # without --out, compare writes nothing
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_compare_ineligible_psi_exit_1(tmp_path, fig2_spec_file):
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps({"x": [0, 1], "y": [0, 1 / np.pi]}))
    assert main(["compare", fig2_spec_file, str(psi_path), "upper", "--quiet"]) == 1


def test_envelope_roundtrip(tmp_path, fig2_spec_file, capsys):
    assert main(["build", fig2_spec_file, "--out", str(tmp_path), "--quiet"]) == 0
    code = main(["envelope", str(tmp_path / "grid.npy"), fig2_spec_file,
                 "--out", str(tmp_path)])
    assert code == 0
    assert "max pointwise gain" in capsys.readouterr().out
    env = read_grid(tmp_path / "envelope_grid.npy")
    grid = read_grid(tmp_path / "grid.npy")
    assert (env.values - grid.values).min() >= -2.0 / 51


def test_splice_exit_0_and_quasi(tmp_path, fig2_spec_file, capsys):
    code = main(["splice", fig2_spec_file, "lower", "upper",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "quasi-copula checks: pass" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["quasi_ok"] and not report["copula_ok"]


def test_blend_psi_build(tmp_path):
    spec = write_spec(tmp_path, diagonal="fig2", psi="blend:0.5", mesh=51)
    assert main(["build", spec, "--out", str(tmp_path), "--quiet"]) == 0
