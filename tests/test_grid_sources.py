"""Differential tests: the CLI's row-block sources against the whole-grid path.

The CLI never holds an n x n grid. build and splice check and write each
block of a construction as it is computed, compare takes its two
constructions a block at a time over the half j >= i, and envelope reads a
C-order .npy file at row offsets. The public grid functions take a
GridCopula or any of these sources. Every result must be bit-identical to
the GridCopula path and to the whole-grid oracles in loop_reference.py,
with the block budget patched down to 1, 2 and 7 rows so that block edges
fall everywhere; only the extracted psi is held to its oracle within
len(mesh) ulps of 1 (see tests/test_grid_blocks.py). Every .npy file,
malformed ones included, must give the exit code, output and files of the
whole-file reader in loop_reference.py; two malformed files get a different
error line, named in CHANGED_ERRORS.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from trackcop import GridCopula, TrackSectionMismatch, compare, dominating_envelope, \
    extract_psi, make_splice, materialize_grid, merge_knots, splice_grid
from trackcop import cli, construction
from trackcop.cli import _grid_rows, main, read_grid
from trackcop.construction import _ConstructionRows, _feed
from trackcop.splice import _SpliceRows
from trackcop.verification import _GridCheck

from loop_reference import whole_check_grid, whole_compare, whole_extract_psi, whole_npy_bytes, \
    whole_read_npy_grid
from test_grid_blocks import assert_near_oracle, candidates, knot_track_spec, same, use_block_rows
from test_grid_io import npy_bytes, table
from test_kernels import same_bits

BLOCK_ROWS = [1, 2, 7, None]  # None: the library's own block size
TOLS = [0.0, 1e-9]
CSV_V0 = Path(__file__).parent / "data" / "csv_v0"


def knot_mesh(spec, n=41):
    return merge_knots(np.linspace(0.0, 1.0, n), spec.knots, spec.phi_values())


def streamed_report(source, tol):
    check = _GridCheck(source.mesh, tol)
    _feed(source, check)
    return check.report()


# ---------------------------------------------------------------------------
# compare: one pass over the upper half

def random_pair(seed, n=12):
    """Two grids whose differences are multiples of 1/4, so that many mirror products tie."""
    rng = np.random.default_rng(seed)
    mesh = np.linspace(0.0, 1.0, n)
    base = np.minimum(mesh[:, None], mesh[None, :])
    d = rng.choice([-0.25, 0.0, 0.0, 0.25], size=(n, n))
    return GridCopula(mesh, base + d), GridCopula(mesh, base)


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
def test_half_triangle_witness_matches_whole_grid(rows, monkeypatch):
    use_block_rows(monkeypatch, rows, 12)
    for seed in range(30):
        a, b = random_pair(seed)
        for tol in TOLS:
            for x, y in ((a, b), (b, a), (a, a)):
                assert same(compare(x, y, tol), whole_compare(x, y, tol))


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
def test_half_triangle_ties_beside_the_diagonal_and_across_a_block_edge(rows, monkeypatch):
    mesh = np.linspace(0.0, 1.0, 9)
    base = np.minimum(mesh[:, None], mesh[None, :])
    d = np.zeros((9, 9))
    d[3, 3] = -0.5                  # the diagonal: a square, never a witness
    d[4, 5], d[5, 4] = 0.5, -0.5    # beside the diagonal, product -1/4
    d[6, 2], d[2, 6] = 0.5, -0.5    # the same product, first met at (2, 6) in row 2
    d[7, 1], d[1, 7] = -0.5, 0.5    # and again, first met at (1, 7): the witness
    a, b = GridCopula(mesh, base + d), GridCopula(mesh, base)
    use_block_rows(monkeypatch, rows, len(mesh))
    result = compare(a, b, 0.0)
    assert same(result, whole_compare(a, b, 0.0))
    assert result.witness_pair == (mesh[1], mesh[7]) and result.product == -0.25


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
def test_compare_of_constructions_matches_their_grids(rows, monkeypatch):
    spec = knot_track_spec()
    mesh = knot_mesh(spec)
    use_block_rows(monkeypatch, rows, len(mesh))
    cands = candidates(spec)
    grids = [materialize_grid(spec, c, mesh) for c in cands]
    for tol in TOLS:
        for i, a in enumerate(cands):
            for j, b in enumerate(cands):
                result = compare(_ConstructionRows(a, mesh), _ConstructionRows(b, mesh), tol)
                assert same(result, whole_compare(grids[i], grids[j], tol))
                assert same(result, compare(grids[i], grids[j], tol))


# ---------------------------------------------------------------------------
# check, extraction and section check on streamed sources

@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
def test_streamed_checks_match_grid_copula_input(rows, monkeypatch, tmp_path):
    spec = knot_track_spec()
    mesh = knot_mesh(spec)
    low, up, mix = candidates(spec)
    grids = [materialize_grid(spec, c, mesh) for c in (low, up, mix)]
    grids.append(splice_grid(make_splice(up, low), mesh))
    # extracted in one block, the library's own size at this mesh
    unblocked = [extract_psi(grid, spec.track) for grid in grids[:3]]
    use_block_rows(monkeypatch, rows, len(mesh))
    sources = [_ConstructionRows(c, mesh) for c in (low, up, mix)]
    sources.append(_SpliceRows(make_splice(up, low), mesh))
    for k, (source, grid) in enumerate(zip(sources, grids)):
        path = tmp_path / f"grid{k}.npy"
        path.write_bytes(whole_npy_bytes(grid))
        from_file = _grid_rows(path)
        assert isinstance(from_file, cli._NpyRows)
        for tol in TOLS:
            expected = whole_check_grid(grid, "copula", tol)
            assert same(streamed_report(source, tol), expected)
            assert same(streamed_report(from_file, tol), expected)
        if k == 3:  # a splice is no copula; it has no envelope
            continue
        want = unblocked[k]
        assert_near_oracle(want, whole_extract_psi(grid, spec.track))
        for src in (source, from_file, grid):
            for psi in (extract_psi(src, spec.track),
                        dominating_envelope(src, spec.track, spec, 1e-9).candidate.psi):
                assert same_bits(psi.x, want.x) and same_bits(psi.y, want.y)


def test_section_mismatch_and_failed_checks_keep_their_order(tmp_path):
    # a grid whose section deviates and that also fails the copula checks:
    # the section error comes first, as dominating_envelope always raised it
    spec = knot_track_spec()
    grid = materialize_grid(spec, candidates(spec)[0], knot_mesh(spec))
    values = grid.values.copy()
    values[1:-1, 1:-1] = 0.5
    bad = GridCopula(grid.mesh, values)
    path = tmp_path / "bad.npy"
    path.write_bytes(whole_npy_bytes(bad))
    for src in (bad, _grid_rows(path)):
        with pytest.raises(TrackSectionMismatch):
            dominating_envelope(src, spec.track, spec, 1e-9)


# ---------------------------------------------------------------------------
# the CLI: each block computed once, outputs equal to the whole-grid path

def spec_file(tmp_path, mesh=41):
    spec = json.loads((CSV_V0 / "knot_spec.json").read_text())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "mesh": mesh}))
    return str(path)


@pytest.mark.parametrize("rows", [1, 2, 7], ids=lambda r: f"rows{r}")
@pytest.mark.parametrize("command, constructions", [(["build"], 1),
                                                    (["splice", "upper", "lower"], 2)],
                         ids=["build", "splice"])
def test_build_and_splice_compute_each_row_once(command, constructions, rows, tmp_path,
                                                monkeypatch):
    spec = spec_file(tmp_path)
    n = len(cli.default_mesh(cli.load_problem(spec)))
    use_block_rows(monkeypatch, rows, n)
    seen = {}
    block = construction._ConstructionRows.block

    def spy(self, rows, cols=slice(None)):
        assert cols == slice(None)
        seen.setdefault(id(self), []).extend(range(*rows.indices(n)))
        return block(self, rows, cols)

    monkeypatch.setattr(construction._ConstructionRows, "block", spy)
    main([command[0], spec, *command[1:], "--out", str(tmp_path / "out"), "--quiet"])
    # build has one construction, splice its upper and its lower one
    assert len(seen) == constructions
    assert all(sorted(r) == list(range(n)) for r in seen.values())


@pytest.mark.parametrize("rows", [1, 2, 7], ids=lambda r: f"rows{r}")
def test_cli_outputs_match_the_whole_grid_path(rows, tmp_path, monkeypatch):
    spec_path = spec_file(tmp_path)
    problem = cli.load_problem(spec_path)
    spec, mesh = problem.spec, cli.default_mesh(problem)
    use_block_rows(monkeypatch, rows, len(mesh))
    low, up = cli.resolve_candidate(problem, "lower"), cli.resolve_candidate(problem, "upper")
    out = tmp_path / "out"
    for argv in (["build"], ["splice", "upper", "lower"], ["compare", "lower", "upper"]):
        main([argv[0], spec_path, *argv[1:], "--out", str(out), "--quiet"])
    grid = materialize_grid(spec, up, mesh)  # the spec's psi is "upper"
    spliced = splice_grid(make_splice(up, low), mesh)
    assert (out / "grid.npy").read_bytes() == whole_npy_bytes(grid)
    assert (out / "splice_grid.npy").read_bytes() == whole_npy_bytes(spliced)
    report = json.loads((out / "report.json").read_text())
    assert report == json.loads(json.dumps(whole_check_grid(spliced, "quasi", 1e-9).as_dict()))
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison == json.loads(json.dumps(whole_compare(
        materialize_grid(spec, low, mesh), grid).as_dict()))
    main(["envelope", str(out / "grid.npy"), spec_path, "--out", str(tmp_path / "env"), "--quiet"])
    psi = extract_psi(grid, spec.track)
    assert_near_oracle(psi, whole_extract_psi(grid, spec.track))
    extracted = np.loadtxt(tmp_path / "env" / "psi_extracted.csv", delimiter=",", skiprows=1)
    assert same_bits(extracted[:, 0], psi.x) and same_bits(extracted[:, 1], psi.y)


# ---------------------------------------------------------------------------
# the .npy reader against the whole-file reader

def npy_cases():
    """.npy payloads: the knot-track grid of knot_spec.json as written, and malformed variants."""
    spec = knot_track_spec()
    grid = materialize_grid(spec, candidates(spec)[0], knot_mesh(spec, 21))
    t = np.full((len(grid.mesh) + 1,) * 2, np.nan)
    t[0, 1:], t[1:, 0], t[1:, 1:] = grid.mesh, grid.mesh, grid.values
    late = t.copy()
    late[-2, 0] += 1e-3
    early = t.copy()
    early[1, 0] = 0.25
    nan = t.copy()
    nan[0, 5] = nan[5, 0] = np.nan
    repeated = t.copy()
    repeated[0, 5] = repeated[5, 0] = repeated[0, 4]
    return {
        "plain": npy_bytes(t),
        "trailing-bytes": npy_bytes(t) + b"\0" * 24,
        "truncated": npy_bytes(t)[:-20],
        "npz": _npz(t),
        "int-dtype": npy_bytes(np.nan_to_num(t).astype(np.int64)),
        "float32": npy_bytes(t.astype(np.float32)),
        "big-endian": npy_bytes(t.astype(">f8")),
        "fortran": npy_bytes(np.asfortranarray(t)),
        "non-square": npy_bytes(t[:, :-1]),
        "meshes-disagree-first-row": npy_bytes(early),
        "meshes-disagree-late-row": npy_bytes(late),
        "nan-mesh": npy_bytes(nan),
        "repeated-mesh": npy_bytes(repeated),
        "two-point-mesh": npy_bytes(table([0.0, 1.0])),
    }


def _npz(t):
    buf = io.BytesIO()
    np.savez(buf, grid=t)
    return buf.getvalue()


# how _grid_rows takes each file: streamed, read whole, or refused at once
STREAMED = {"plain", "trailing-bytes", "float32", "big-endian", "meshes-disagree-first-row",
            "meshes-disagree-late-row"}
WHOLE = {"fortran"}
CASES = npy_cases()

# The streamed reader checks the mesh row before it reads any other row, and
# np.load with a memory map checks the file's length against its header.
CHANGED_ERRORS = {
    "truncated": "error: cannot read grid file {path}: mmap length is greater than file size\n",
    "nan-mesh": "error: grid file {path}: mesh must be finite\n",
}


def reader_kind(path):
    try:
        source = _grid_rows(path)
    except cli.SpecFileError:
        return "refused"
    return {cli._NpyRows: "streamed", GridCopula: "whole"}[type(source)]


def run_envelope(path, spec_path, out, capsys):
    code = main(["envelope", str(path), spec_path, "--out", str(out)])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("rows", [2, None], ids=lambda r: f"rows{r}")
@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_npy_reader_matches_whole_read(case, rows, tmp_path, monkeypatch, capsys):
    path = tmp_path / "grid.npy"
    path.write_bytes(CASES[case])
    spec_path = str(CSV_V0 / "knot_spec.json")
    use_block_rows(monkeypatch, rows, 30)
    assert reader_kind(path) == ("streamed" if case in STREAMED else
                                 "whole" if case in WHOLE else "refused")
    streamed = run_envelope(path, spec_path, tmp_path / "streamed", capsys)
    monkeypatch.setattr(cli, "_grid_rows", whole_read_npy_grid)
    whole = run_envelope(path, spec_path, tmp_path / "whole", capsys)
    code, out, err, files = streamed
    if case in CHANGED_ERRORS:
        assert err == CHANGED_ERRORS[case].format(path=path)
        assert (code, out, files) == (whole[0], whole[1], whole[3]) and whole[2] != err
    else:
        assert streamed == whole
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


def test_streamed_reader_reads_the_same_grid(tmp_path):
    path = tmp_path / "grid.npy"
    for case in ("plain", "trailing-bytes", "float32", "big-endian"):
        path.write_bytes(CASES[case])
        grid = whole_read_npy_grid(path)
        assert same_bits(read_grid(path).values, grid.values)
        rows = _grid_rows(path)
        assert same_bits(rows.mesh, grid.mesh)
        assert same_bits(rows.block(slice(3, 9)), grid.values[3:9])
        assert same_bits(rows.block(slice(0, len(grid.mesh)), slice(2, 5)), grid.values[:, 2:5])


@pytest.mark.parametrize("shape", [(0, 0), ()], ids=str)
def test_empty_npy_table_exits_2(shape, tmp_path, capsys):
    path = tmp_path / "grid.npy"
    path.write_bytes(npy_bytes(np.zeros(shape)))
    code = main(["envelope", str(path), str(CSV_V0 / "knot_spec.json"), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: grid file {path}: expected a square (n+1) x (n+1)"
                                       f" table, got shape {shape}\n")
