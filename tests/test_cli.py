import json
from pathlib import Path

import numpy as np
import pytest

import trackcop.cli as cli
from trackcop import GridCopula, PLFunction, blend, construction, merge_knots, psi_bounds, \
    quadruplet
from trackcop.cli import ProblemSpec, load_problem, main, read_grid, read_grid_csv, \
    resolve_candidate, write_grid
from conftest import diagonal_spec
from test_kernels import same_bits
from test_point_queries import decreasing_delta_spec


KNOT_SPEC = Path(__file__).parent / "data" / "csv_v0" / "knot_spec.json"


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
    write_grid(path, grid, "csv")
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


@pytest.mark.parametrize("command", ["compare", "splice"])
@pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe[1]", b"[0, 1]"],
                         ids=["missing", "unparsable", "not-utf8", "not-knots"])
def test_malformed_psi_file_exits_2(tmp_path, fig2_spec_file, command, content, capsys):
    psi_path = tmp_path / "psi.json"
    if content is not None:
        psi_path.write_bytes(content)
    code = main([command, fig2_spec_file, str(psi_path), "upper",
                 "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["compare", "splice"])
def test_unanchored_psi_file_exits_1(tmp_path, fig2_spec_file, command):
    # a well-formed file whose psi fails the mathematics: psi(0) != 0
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps({"x": [0, 1], "y": [0.1, 0.2]}))
    assert main([command, fig2_spec_file, str(psi_path), "upper",
                 "--out", str(tmp_path), "--quiet"]) == 1


def knot_track_spec(tmp_path):
    return write_spec(tmp_path, track={"x": [0, 0.35, 1], "y": [0, 0.55, 1]},
                      diagonal={"x": [0, 0.35, 1], "y": [0, 0.1, 1]}, mesh=51)


def test_mesh_option_on_build_compare_splice(tmp_path, monkeypatch):
    spec_path = knot_track_spec(tmp_path)
    spec = load_problem(spec_path).spec
    expected = merge_knots(np.linspace(0.0, 1.0, 11), spec.knots, spec.phi_values())
    assert len(expected) == 13  # 11 uniform points, the knot 0.35 and its image 0.55
    # compare writes no grid, so spy on the mesh of each construction it compares
    sources = []
    construction_rows = cli._ConstructionRows
    monkeypatch.setattr(cli, "_ConstructionRows",
                        lambda *args: sources.append(construction_rows(*args)) or sources[-1])
    assert main(["compare", spec_path, "lower", "upper", "--mesh", "11", "--quiet"]) == 3
    assert len(sources) == 2 and all(np.array_equal(s.mesh, expected) for s in sources)
    out = tmp_path / "out"
    assert main(["splice", spec_path, "upper", "lower", "--mesh", "11",
                 "--out", str(out), "--quiet"]) == 0
    assert np.array_equal(read_grid(out / "splice_grid.npy").mesh, expected)
    assert main(["build", spec_path, "--mesh", "11", "--out", str(out), "--quiet"]) == 0
    assert np.array_equal(read_grid(out / "grid.npy").mesh, expected)
    # without --mesh the spec's 51 points are used
    assert main(["build", spec_path, "--out", str(out), "--quiet"]) == 0
    assert len(read_grid(out / "grid.npy").mesh) == 53


@pytest.mark.parametrize("argv", [["validate", "{spec}"], ["bounds", "{spec}"],
                                  ["envelope", "grid.npy", "{spec}"],
                                  ["build", "{spec}", "--mesh", "2"],
                                  ["compare", "{spec}", "lower", "upper", "--mesh", "x"]])
def test_mesh_option_refused_where_unused_or_invalid(tmp_path, fig2_spec_file, argv):
    argv = [a.format(spec=fig2_spec_file) for a in argv]
    if "--mesh" not in argv:
        argv += ["--mesh", "11"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["bounds", "build", "compare", "envelope", "splice"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, fig2_spec_file, command, out, capsys):
    assert main(["build", fig2_spec_file, "--out", str(tmp_path), "--quiet"]) == 0
    (tmp_path / "afile").write_text("")
    operands = {"bounds": [fig2_spec_file], "build": [fig2_spec_file],
                "compare": [fig2_spec_file, "lower", "upper"],
                "envelope": [str(tmp_path / "grid.npy"), fig2_spec_file],
                "splice": [fig2_spec_file, "lower", "upper"]}[command]
    assert main([command, *operands, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize("command, target", [
    ("bounds", "psi_lower.csv"), ("build", "grid.npy"), ("build", "report.json"),
    ("compare", "comparison.json"), ("envelope", "envelope_grid.npy"),
    ("envelope", "psi_extracted.csv"), ("splice", "splice_grid.npy")])
def test_unwritable_target_exits_2(tmp_path, fig2_spec_file, command, target, capsys):
    # --out is a directory, but a directory stands where the command writes a file
    assert main(["build", fig2_spec_file, "--out", str(tmp_path), "--quiet"]) == 0
    operands = {"bounds": [fig2_spec_file], "build": [fig2_spec_file],
                "compare": [fig2_spec_file, "lower", "upper"],
                "envelope": [str(tmp_path / "grid.npy"), fig2_spec_file],
                "splice": [fig2_spec_file, "upper", "lower"]}[command]
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    assert main([command, *operands, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / target}: ") and err.count("\n") == 1
    assert not list(out.glob(".*.part"))


def test_unwritable_target_error_names_only_the_target(tmp_path, fig2_spec_file, monkeypatch,
                                                       capsys):
    # the rename's OSError names the hidden .part file and absolute paths; the
    # error line gives the path as asked for and the reason alone
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "psi_lower.csv").mkdir(parents=True)
    assert main(["bounds", fig2_spec_file, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write out/psi_lower.csv: Is a directory\n"
    assert ".part" not in err and str(tmp_path) not in err


@pytest.mark.parametrize("command, target", [
    ("bounds", "psi_lower.csv"), ("bounds", "psi_upper.csv"), ("build", "region.csv"),
    ("build", "report.json"), ("compare", "comparison.json"),
    ("envelope", "psi_extracted.csv"), ("splice", "report.json")])
def test_failed_write_leaves_its_target(tmp_path, fig2_spec_file, command, target,
                                        monkeypatch, capsys):
    # the disk fills halfway through writing the target: the earlier file stays
    assert main(["build", fig2_spec_file, "--out", str(tmp_path), "--quiet"]) == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / target).write_text("earlier\n")

    class HalfFull:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, text):
            self._fh.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

    def open_(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return HalfFull(fh) if str(path).endswith(f".{target}.part") else fh

    monkeypatch.setattr(cli, "open", open_, raising=False)
    operands = {"bounds": [fig2_spec_file], "build": [fig2_spec_file],
                "compare": [fig2_spec_file, "lower", "upper"],
                "envelope": [str(tmp_path / "grid.npy"), fig2_spec_file],
                "splice": [fig2_spec_file, "upper", "lower"]}[command]
    assert main([command, *operands, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / target}: ") and err.count("\n") == 1
    assert (out / target).read_text() == "earlier\n"
    assert not list(out.glob(".*.part"))


@pytest.mark.parametrize("fmt", ["npy", "csv"])
def test_envelope_may_overwrite_its_own_input(tmp_path, fig2_spec_file, fmt, capsys):
    # re-enveloping a grid in place, the input named as the output: the run
    # must read the input, not the envelope it is writing over it
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["splice", fig2_spec_file, "upper", "lower", "--out", str(out),
                 "--format", fmt, "--quiet"]) == 0
    target = out / f"envelope_grid.{fmt}"
    (out / f"splice_grid.{fmt}").rename(target)
    copy = tmp_path / f"copy.{fmt}"
    copy.write_bytes(target.read_bytes())
    capsys.readouterr()
    assert main(["envelope", str(copy), fig2_spec_file, "--out", str(ref), "--format", fmt]) == 0
    expected = capsys.readouterr().out
    assert float(expected.split(":")[1]) > 0.1
    assert main(["envelope", str(target), fig2_spec_file, "--out", str(out),
                 "--format", fmt]) == 0
    assert capsys.readouterr().out == expected
    assert target.read_bytes() == (ref / target.name).read_bytes()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["report.json", "psi_extracted.csv", target.name])


@pytest.mark.parametrize("command", ["build", "envelope", "splice"])
def test_failed_grid_pass_leaves_its_target(tmp_path, fig2_spec_file, command, monkeypatch,
                                            capsys):
    out = tmp_path / "out"
    assert main(["build", fig2_spec_file, "--out", str(out), "--quiet"]) == 0
    assert main(["envelope", str(out / "grid.npy"), fig2_spec_file, "--out", str(out),
                 "--quiet"]) == 0
    assert main(["splice", fig2_spec_file, "upper", "lower", "--out", str(out), "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    add = cli._TableRows.add

    def add_then_fail(self, rows, block):
        add(self, rows, block)
        if rows.stop > 10:
            raise cli.SpecFileError("the pass failed")

    monkeypatch.setattr(construction, "_BLOCK_BYTES", 8 * 80 * 3)
    monkeypatch.setattr(cli._TableRows, "add", add_then_fail)
    operands = {"build": [fig2_spec_file], "envelope": [str(out / "grid.npy"), fig2_spec_file],
                "splice": [fig2_spec_file, "upper", "lower"]}[command]
    assert main([command, *operands, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the pass failed\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
def test_bad_tol_exits_2(fig2_spec_file, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", fig2_spec_file, "--tol", tol])
    assert exc.value.code == 2
    assert f"got {tol!r}" in capsys.readouterr().err


def test_bad_tol_from_environment_exits_2(fig2_spec_file, monkeypatch, capsys):
    monkeypatch.setenv("TRACKCOP_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["validate", fig2_spec_file])
    assert exc.value.code == 2
    assert "TRACKCOP_TOL" in capsys.readouterr().err
    # an explicit --tol wins over the environment
    assert main(["validate", fig2_spec_file, "--tol", "1e-9", "--quiet"]) == 0


@pytest.mark.parametrize("env", [None, "0", "1e-6"])
def test_tol_zero_and_environment_accepted(fig2_spec_file, monkeypatch, env):
    if env is not None:
        monkeypatch.setenv("TRACKCOP_TOL", env)
    assert main(["validate", fig2_spec_file, "--tol", "0", "--quiet"]) == 0
    args = cli.build_parser().parse_args(["validate", fig2_spec_file])
    assert args.tol == (1e-9 if env is None else float(env))


def test_blend_request_is_read_off_the_band_at_the_callers_tol(fig2_spec_file):
    problem = load_problem(fig2_spec_file)
    bounds = psi_bounds(problem.spec)
    low, up = quadruplet(problem.spec, bounds.psi_low), quadruplet(problem.spec, bounds.psi_up)
    for t in (0.0, 0.25, 0.5, 1.0):
        got, want = resolve_candidate(problem, ("blend", t), tol=0.0), blend(low, up, t)
        assert same_bits(got.psi.x, want.psi.x) and same_bits(got.psi.y, want.psi.y)
        assert got.eligible
    # psi_U - psi_L falls by 0.05 here, an even blend's differences by 0.025:
    # within tol 0.1, though not within the default tol
    problem = ProblemSpec(decreasing_delta_spec(), ("blend", 0.5), 21)
    assert resolve_candidate(problem, tol=0.1).eligible


def inline_blend_request(problem, t, tol):
    """The CLI's blend before it called blend: its arithmetic on the band's knots, kept as oracle."""
    bounds = psi_bounds(problem.spec, tol=tol)
    return quadruplet(problem.spec, PLFunction(problem.spec.knots,
                                               (1.0 - t) * bounds.psi_low.y + t * bounds.psi_up.y),
                      tol=tol)


@pytest.mark.parametrize("spec_file", ["fig2", "knot"])
def test_blend_request_matches_the_inline_arithmetic(fig2_spec_file, spec_file):
    problem = load_problem(fig2_spec_file if spec_file == "fig2" else KNOT_SPEC)
    for tol in (0.0, 1e-9, 1e-3):
        for t in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
            got = resolve_candidate(problem, ("blend", t), tol)
            want = inline_blend_request(problem, t, tol)
            assert same_bits(got.psi.x, want.psi.x) and same_bits(got.psi.y, want.psi.y)
            assert (got.eligible, got.violation) == (want.eligible, want.violation)


NOT_NUMBERS = {"x": [0, 1], "y": ["a", "b"]}
# each subcommand's operands after its spec; envelope loads the spec before it reads the grid
OPERANDS = {"validate": [], "bounds": [], "build": [], "compare": ["lower", "upper"],
            "envelope": [], "splice": ["lower", "upper"]}


def run_on_spec(tmp_path, command, spec):
    argv = [command, *([str(tmp_path / "grid.npy")] if command == "envelope" else []),
            spec, *OPERANDS[command]]
    return main(argv + ([] if command == "validate" else ["--out", str(tmp_path / "out")]))


@pytest.mark.parametrize("command", list(OPERANDS))
@pytest.mark.parametrize("shape", [
    {"diagonal": NOT_NUMBERS},
    {"track": NOT_NUMBERS, "diagonal": "fig2"},
    {"diagonal": "fig2", "psi": NOT_NUMBERS},
    {"diagonal": {"x": "abc", "y": [0, 1]}},
    {"diagonal": {"x": {"a": 0}, "y": [0, 1]}},
], ids=["diagonal", "track", "psi", "string-abscissas", "dict-abscissas"])
def test_knots_that_are_not_numbers_exit_2(tmp_path, command, shape, capsys):
    spec = write_spec(tmp_path, mesh=11, **shape)
    assert run_on_spec(tmp_path, command, spec) == 2
    assert capsys.readouterr().err.startswith("error: expected a valid knot object")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compare", "splice"])
def test_psi_file_of_knots_that_are_not_numbers_blames_the_knots(tmp_path, fig2_spec_file,
                                                                 command, capsys):
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps(NOT_NUMBERS))
    assert main([command, fig2_spec_file, str(psi_path), "upper",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: expected a valid knot object")


@pytest.mark.parametrize("text, argv, message", [
    ("[1, 2]", ["build"], "spec file must contain a JSON object"),
    ('{"diagonal": "fig2", "mesh": 2}', ["build"], "mesh must be an integer >= 3, got 2"),
    ('{"diagonal": "fig2", "mesh": "51"}', ["build"], "mesh must be an integer >= 3, got '51'"),
    ('{"mesh": 51}', ["build"], "spec file must name a diagonal"),
    ('{"diagonal": "fig2", "psi": "blend:half"}', ["build"], "bad blend weight in 'blend:half'"),
    ('{"diagonal": "fig2", "psi": "middle"}', ["build"], "bad psi request 'middle'"),
    ('{"diagonal": {"x": [0, 1], "y": [0, 0.5, 1]}}', ["build"],
     "expected a valid knot object {'x': [...], 'y': [...]}:"
     " knot lists must be 1-d and of equal length"),
    ('{"diagonal": {"x": [0, 0.5, 1], "y": [0, NaN, 1]}}', ["build"],
     "expected a valid knot object {'x': [...], 'y': [...]}: knots must be finite"),
    ('{"diagonal": "fig2", "mesh": 11}', ["envelope", "{grid}"],
     "grid file {grid}: 4 columns cannot form a square table in 9 bytes"),
    ('{"track": "circle", "diagonal": "fig2"}', ["build"], "unknown track 'circle'"),
    ('{"track": 5, "diagonal": "fig2"}', ["build"],
     'track must be "identity" or a knot object'),
], ids=["not-an-object", "small-mesh", "string-mesh", "no-diagonal", "blend-word",
        "unknown-psi", "unequal-lengths", "not-finite", "csv-too-small", "unknown-track",
        "track-not-an-object"])
def test_spec_and_grid_refusals_exit_2(tmp_path, text, argv, message, capsys):
    spec, grid, out = tmp_path / "spec.json", tmp_path / "grid.csv", tmp_path / "out"
    spec.write_text(text)
    grid.write_text(",0,0.5,1\n")
    argv = [a.replace("{grid}", str(grid)) for a in argv]
    assert main([*argv, str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.replace('{grid}', str(grid))}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec_file", ["fig2", "knot"])
def test_psi_as_knots_builds_the_bytes_of_its_request(tmp_path, fig2_spec_file, spec_file):
    # psi_L's knots, as bounds writes them, build what "lower" builds
    raw = json.loads(Path(fig2_spec_file if spec_file == "fig2" else KNOT_SPEC).read_text())
    lower = write_spec(tmp_path, "lower.json", **{**raw, "psi": "lower"})
    assert main(["bounds", lower, "--out", str(tmp_path / "bounds"), "--quiet"]) == 0
    rows = (tmp_path / "bounds" / "psi_lower.csv").read_text().splitlines()[1:]
    x, y = zip(*([float(v) for v in row.split(",")] for row in rows))
    knots = write_spec(tmp_path, "knots.json", **{**raw, "psi": {"x": x, "y": y}})
    for name, spec in (("lower", lower), ("knots", knots)):
        assert main(["build", spec, "--out", str(tmp_path / name), "--quiet"]) == 0
    for fname in ("grid.npy", "region.csv"):
        assert (tmp_path / "knots" / fname).read_bytes() == \
            (tmp_path / "lower" / fname).read_bytes()
