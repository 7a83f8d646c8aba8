"""Memory ceilings of the n x n grid kernels, measured with tracemalloc.

A kernel that builds a grid holds that grid plus about one row block, so
materialize_grid and splice_grid peak at no more than 1.25 times the grid's
n * n * 8 bytes. check_grid, compare, extract_psi and write_grid only read
their grids and add at most 0.25 times that on top of them. read_grid of a
CSV file builds its grid the same way, one text row at a time. numpy reports
its array buffers to tracemalloc, so the peak counts every temporary.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from trackcop import (
    check_grid,
    compare,
    extract_psi,
    make_splice,
    materialize_grid,
    merge_knots,
    psi_bounds,
    quadruplet,
    splice_grid,
)
from trackcop.cli import MESH_BUDGET_BYTES, MeshTooLarge, default_mesh, load_problem, main, \
    read_grid, write_grid

from conftest import added_peak, diagonal_spec
from test_grid_blocks import knot_track_spec

BUILD_CEILING = 1.25
READ_CEILING = 0.25


@pytest.mark.parametrize("n", [1001, 2001])
@pytest.mark.parametrize("track", ["identity", "knot"])
def test_grid_kernel_peaks(track, n, traced, tmp_path):
    spec = diagonal_spec("fig2", 1001) if track == "identity" else knot_track_spec()
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    mesh = merge_knots(np.linspace(0.0, 1.0, n), spec.knots, spec.phi_values())
    grid_bytes = len(mesh) ** 2 * 8.0

    ratios = {}
    grid, peak = added_peak(materialize_grid, spec, low, mesh)
    ratios["materialize_grid"] = peak / grid_bytes
    other = materialize_grid(spec, up, mesh)
    spliced, peak = added_peak(splice_grid, make_splice(up, low), mesh)
    ratios["splice_grid"] = peak / grid_bytes
    del spliced
    for name, call, args in [("check_grid", check_grid, (grid,)),
                             ("compare", compare, (grid, other)),
                             ("extract_psi", extract_psi, (grid, spec.track)),
                             ("write_grid", write_grid, (tmp_path / "grid", grid, "npy"))]:
        _, peak = added_peak(call, *args)
        ratios[name] = peak / grid_bytes

    builders = ("materialize_grid", "splice_grid")
    over = {k: r for k, r in ratios.items()
            if r > (BUILD_CEILING if k in builders else READ_CEILING)}
    assert not over, f"peaks over their ceilings (x grid bytes): {over}"


def test_csv_grid_read_peak(traced, tmp_path):
    spec = diagonal_spec("fig2", 1001)
    mesh = merge_knots(np.linspace(0.0, 1.0, 1001), spec.knots)
    grid = materialize_grid(spec, quadruplet(spec, psi_bounds(spec).psi_low), mesh)
    path = write_grid(tmp_path / "grid", grid, "csv")
    del grid
    read, peak = added_peak(read_grid, path)
    assert len(read.mesh) >= 1001
    assert peak / (len(mesh) ** 2 * 8.0) <= BUILD_CEILING


# ---------------------------------------------------------------------------
# the CLI's grid commands hold row blocks, not grids

COMMAND_CEILING = 0.25
KNOT_SPEC = Path(__file__).parent / "data" / "csv_v0" / "knot_spec.json"


@pytest.mark.parametrize("command", [["build"], ["compare", "lower", "upper"], ["envelope"],
                                     ["splice", "upper", "lower"]], ids=lambda c: c[0])
def test_grid_command_peaks(command, tmp_path, traced):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**json.loads(KNOT_SPEC.read_text()), "mesh": 1001}))
    n = len(default_mesh(load_problem(spec)))
    if command == ["envelope"]:
        assert main(["build", str(spec), "--out", str(tmp_path), "--quiet"]) == 0
        argv = ["envelope", str(tmp_path / "grid.npy"), str(spec)]
    else:
        argv = [command[0], str(spec), *command[1:]]
    code, peak = added_peak(main, argv + ["--out", str(tmp_path / "out"), "--quiet"])
    assert code == (3 if command[0] == "compare" else 0)
    assert peak / (n * n * 8.0) < COMMAND_CEILING


# ---------------------------------------------------------------------------
# the CLI's mesh budget

HUGE = "100000"  # a grid of 80 GB


def spec_file(tmp_path, **fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"diagonal": "w-diag", "psi": "lower", "mesh": 51, **fields}))
    return str(path)


@pytest.mark.parametrize("how", ["--mesh", "spec"])
@pytest.mark.parametrize("command", [["build"], ["compare", "lower", "upper"],
                                     ["splice", "upper", "lower"]],
                         ids=lambda c: c[0])
def test_mesh_over_budget_exits_2_before_any_grid(command, how, tmp_path, capsys, traced):
    spec = spec_file(tmp_path, mesh=int(HUGE)) if how == "spec" else spec_file(tmp_path)
    out = tmp_path / "out"
    argv = [command[0], spec, *command[1:], "--out", str(out)]
    if how == "--mesh":
        argv += ["--mesh", HUGE]
    code, peak = added_peak(main, argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: a mesh of {HUGE} points is over the 11585-point limit")
    assert "budget" in err and "grid file" in err
    assert not out.exists()
    assert peak < 16 * 2**20  # refused before any grid was allocated


def test_mesh_budget_admits_4001_points(tmp_path):
    problem = load_problem(spec_file(tmp_path, diagonal="fig2"))
    assert len(default_mesh(problem, 4001)) >= 4001
    side = int((MESH_BUDGET_BYTES / 8) ** 0.5)  # a grid of this side fills the budget
    with pytest.raises(MeshTooLarge):
        default_mesh(problem, side + 1)


# A built-in diagonal is sampled at the spec's mesh as the spec loads, so a
# mesh this large would be a 72.8 TiB allocation, which numpy refuses outright.
ENORMOUS = 10**13


@pytest.mark.parametrize("command", [["validate"], ["bounds"], ["build"],
                                     ["compare", "lower", "upper"], ["envelope"],
                                     ["splice", "upper", "lower"]], ids=lambda c: c[0])
def test_spec_mesh_over_budget_exits_2_as_the_spec_loads(command, tmp_path, capsys, traced):
    spec = spec_file(tmp_path, diagonal="fig2", mesh=ENORMOUS)
    out = tmp_path / "out"
    operands = [str(tmp_path / "grid.npy"), spec] if command == ["envelope"] else [spec]
    argv = [command[0], *operands, *command[1:]]
    if command != ["validate"]:
        argv += ["--out", str(out)]
    code, peak = added_peak(main, argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: a mesh of {ENORMOUS} points is over the 11585-point limit")
    assert err.count("\n") == 1
    assert not out.exists()
    assert peak < 16 * 2**20


def test_knot_spec_mesh_over_budget_is_checked_only_where_it_is_used(tmp_path, capsys):
    # A knot diagonal is never sampled at the spec's mesh, so validate and
    # bounds take the spec, and --mesh overrides it; only a grid at it is refused.
    raw = json.loads((Path(__file__).parent / "data" / "csv_v0" / "knot_spec.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**raw, "mesh": ENORMOUS}))
    assert main(["validate", str(spec)]) == 0
    assert main(["bounds", str(spec), "--out", str(tmp_path / "b")]) == 0
    assert main(["build", str(spec), "--mesh", "101", "--out", str(tmp_path / "g")]) == 0
    capsys.readouterr()
    assert main(["build", str(spec), "--out", str(tmp_path / "h")]) == 2
    assert capsys.readouterr().err.startswith(f"error: a mesh of {ENORMOUS} points is over")
