"""Differential tests: the row-blocked grid kernels against the whole-grid kernels they replaced.

Grids, verification reports (worst_cell and min_cell_volume included),
comparison results and grid file bytes must be bit-identical to the
versions in loop_reference.py. The extracted psi is held to the oracle
within len(mesh) ulps of 1: the extraction telescopes the cells wholly
below the track instead of weighing each by an area share that rounds to
about 1, and its column sums add in another order. The block budget is
patched down to 1, 2 and 7 rows, so that block edges fall everywhere, and
also left at the library's own size.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcop import (
    GridCopula,
    NotACopula,
    blend,
    check_grid,
    compare,
    extract_psi,
    identity_track,
    make_splice,
    materialize_grid,
    merge_knots,
    psi_bounds,
    quadruplet,
    splice_grid,
)
from trackcop import construction
from trackcop.cli import load_problem, read_grid, write_grid
from trackcop.construction import _ConstructionRows, _feed
from trackcop.verification import _PsiExtraction

from conftest import diagonal_spec
from loop_reference import (
    reference_section_deviation,
    whole_check_grid,
    whole_compare,
    whole_csv_bytes,
    whole_extract_psi,
    whole_grid_values,
    whole_npy_bytes,
    whole_splice_grid,
)
from strategies import sections
from test_kernels import same_bits

BLOCK_ROWS = [1, 2, 7, None]  # None: the library's own block size
TOLS = [0.0, 1e-9]


def use_block_rows(monkeypatch, rows, n):
    """Make a row block of an n-column grid `rows` rows high (None leaves the default)."""
    if rows is not None:
        monkeypatch.setattr(construction, "_BLOCK_BYTES", 8 * n * rows)


def same(a, b):
    """Bit-identical reports or comparison results: repr round-trips every float."""
    return repr(a.as_dict()) == repr(b.as_dict())


def assert_near_oracle(psi, oracle):
    """psi on the oracle's knots, within len(mesh) ulps of 1 of the oracle's values."""
    assert same_bits(psi.x, oracle.x)
    assert np.abs(psi.y - oracle.y).max() <= len(psi.x) * np.finfo(float).eps


def outcome(call, *args):
    try:
        return call(*args), None
    except NotACopula as exc:
        return None, str(exc)


def candidates(spec):
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    return low, up, blend(low, up, 0.3)


def knot_track_spec():
    """The four-knot track and eight-knot section of tests/data/csv_v0/knot_spec.json."""
    return load_problem(Path(__file__).parent / "data" / "csv_v0" / "knot_spec.json").spec


SPECS = {
    "fig2": lambda: diagonal_spec("fig2", 31),
    "w-diag": lambda: diagonal_spec("w-diag", 31),
    "knot-track": knot_track_spec,
}


def assert_kernels_match(spec, mesh, tmp_path):
    """Every blocked kernel against its whole-grid oracle on the constructions of `spec`."""
    cands = candidates(spec)
    grids = []
    for cand in cands:
        values = _ConstructionRows(cand, mesh).block(slice(None))
        assert same_bits(values, whole_grid_values(spec, cand, mesh))
        grids.append(materialize_grid(spec, cand, mesh))
        assert same_bits(grids[-1].values, values)
    spliced = make_splice(cands[1], cands[0])
    grids.append(splice_grid(spliced, mesh))
    assert same_bits(grids[-1].values, whole_splice_grid(spliced, mesh).values)
    for tol in TOLS:
        for grid in grids:
            assert same(check_grid(grid, "copula", tol), whole_check_grid(grid, "copula", tol))
            new, err_new = outcome(extract_psi, grid, spec.track, tol)
            old, err_old = outcome(whole_extract_psi, grid, spec.track, tol)
            assert err_new == err_old
            if new is not None:
                assert_near_oracle(new, old)
        for a in grids:
            for b in grids:
                assert same(compare(a, b, tol), whole_compare(a, b, tol))
    for grid in grids:
        assert_files_match(grid, tmp_path)


def assert_files_match(grid, tmp_path):
    assert write_grid(tmp_path / "grid", grid, "npy").read_bytes() == whole_npy_bytes(grid)
    assert write_grid(tmp_path / "grid", grid, "csv").read_bytes() == whole_csv_bytes(grid)


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
@pytest.mark.parametrize("name", sorted(SPECS))
def test_blocked_kernels_match_whole_grid(name, rows, monkeypatch, tmp_path):
    spec = SPECS[name]()
    mesh = merge_knots(np.linspace(0.0, 1.0, 41), spec.knots, spec.phi_values())
    use_block_rows(monkeypatch, rows, len(mesh))
    assert_kernels_match(spec, mesh, tmp_path)


@given(spec=sections(max_knots=12), n=st.integers(3, 30), rows=st.sampled_from(BLOCK_ROWS))
@settings(max_examples=40, deadline=None)
def test_blocked_kernels_match_on_random_sections(spec, n, rows, tmp_path_factory):
    mesh = merge_knots(np.linspace(0.0, 1.0, n), spec.knots, spec.phi_values())
    with pytest.MonkeyPatch.context() as mp:
        use_block_rows(mp, rows, len(mesh))
        assert_kernels_match(spec, mesh, tmp_path_factory.mktemp("npy"))


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general"])
@given(data=st.data(), n=st.integers(3, 60))
@settings(max_examples=30, deadline=None)
def test_extraction_weighs_only_the_cells_the_track_crosses(identity, data, n):
    spec = data.draw(sections(identity=identity, max_knots=12))
    mesh = merge_knots(np.linspace(0.0, 1.0, n), spec.knots, spec.phi_values())
    crossed = len(_PsiExtraction(mesh, spec.track, 1e-9)._share)
    # one cell per strip on the identity; on any track each strip's last crossed
    # cell lies no higher than the next strip's first, so the counts telescope
    if identity:
        assert crossed == len(mesh) - 1
    assert crossed <= 2 * (len(mesh) - 1)


def frechet_mixes(mesh):
    """Grids of M, Pi, W and four mixes of them: copulas with sections of their own."""
    x, y = mesh[:, None], mesh[None, :]
    m, p, w = np.minimum(x, y), x * y, np.maximum(x + y - 1.0, 0.0)
    weights = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5),
               (0.4, 0.3, 0.3)]
    return [GridCopula(mesh, a * m + b * p + c * w) for a, b, c in weights]


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
@pytest.mark.parametrize("images", [True, False], ids=["with-images", "without-images"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_section_deviation_matches_the_column_loop(name, images, rows, monkeypatch):
    # without the track images phi(x) mostly falls between mesh points, and
    # each column is read at the nearest one, with its Lipschitz allowance
    spec = SPECS[name]()
    images = (spec.phi_values(),) if images else ()
    mesh = merge_knots(np.linspace(0.0, 1.0, 41), spec.knots, *images)
    use_block_rows(monkeypatch, rows, len(mesh))
    constructions = [materialize_grid(spec, c, mesh) for c in candidates(spec)]
    for k, grid in enumerate(constructions + frechet_mixes(mesh)):
        extraction = _PsiExtraction(mesh, spec.track, 1e-9)
        _feed(grid, extraction)
        deviation = extraction.deviation(spec.delta)
        assert same_bits(deviation, reference_section_deviation(grid, spec.track, spec.delta))
        if k < len(constructions):  # C_psi has the section, up to rounding
            assert deviation <= 4 * np.finfo(float).eps


def grid_from_cells(cells):
    """The grid on a uniform mesh whose cell volumes are `cells` (dyadic, so sums are exact)."""
    m = len(cells) + 1
    values = np.zeros((m, m))
    values[1:, 1:] = np.cumsum(np.cumsum(cells, axis=0), axis=1)
    return GridCopula(np.linspace(0.0, 1.0, m), values)


def tied_cells():
    """Cell volumes of 1/64, but -1/4 at cells (1, 5) and (2, 0): the least volume ties."""
    cells = np.full((8, 8), 1.0 / 64)
    cells[1, 5] = cells[2, 0] = -0.25
    return cells


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
def test_worst_cell_tie_across_a_block_edge(rows, monkeypatch):
    # with 1 or 2 rows a block, cell rows 1 and 2 fall in different blocks
    grid = grid_from_cells(tied_cells())
    use_block_rows(monkeypatch, rows, len(grid.mesh))
    report = check_grid(grid, "copula", 0.0)
    assert same(report, whole_check_grid(grid, "copula", 0.0))
    assert report.min_cell_volume == -0.25
    assert report.worst_cell == (float(grid.mesh[1]), float(grid.mesh[5]))


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
def test_mirror_witness_tie_across_a_block_edge(rows, monkeypatch):
    mesh = np.linspace(0.0, 1.0, 9)
    base = np.minimum(mesh[:, None], mesh[None, :])
    d = np.zeros((9, 9))
    d[1, 5], d[5, 1] = 0.5, -0.5   # product -1/4, first at (1, 5)
    d[2, 3], d[3, 2] = -0.5, 0.5   # product -1/4 as well, first at (2, 3)
    a, b = GridCopula(mesh, base + d), GridCopula(mesh, base)
    use_block_rows(monkeypatch, rows, len(mesh))
    result = compare(a, b, 0.0)
    assert same(result, whole_compare(a, b, 0.0))
    assert result.witness_pair == (mesh[1], mesh[5]) and result.product == -0.25


@pytest.mark.parametrize("rows", BLOCK_ROWS, ids=lambda r: f"rows{r}")
def test_grid_holding_a_nan(rows, monkeypatch, tmp_path):
    # read_grid accepts NaN in the body; np.argmin reports the first NaN cell,
    # here a block after the least finite volume
    cells = tied_cells()
    cells[0, 3] = -0.5
    grid = grid_from_cells(cells)
    values = grid.values.copy()
    values[4, 3] = np.nan
    (tmp_path / "nan.npy").write_bytes(whole_npy_bytes(GridCopula(grid.mesh, values)))
    grid = read_grid(tmp_path / "nan.npy")
    other = grid_from_cells(tied_cells())
    use_block_rows(monkeypatch, rows, len(grid.mesh))
    for tol in TOLS:
        report = check_grid(grid, "copula", tol)
        assert same(report, whole_check_grid(grid, "copula", tol))
        assert np.isnan(report.min_cell_volume)
        assert report.worst_cell == (float(grid.mesh[3]), float(grid.mesh[2]))
        for a, b in ((grid, other), (other, grid), (grid, grid)):
            assert same(compare(a, b, tol), whole_compare(a, b, tol))
        with pytest.raises(NotACopula):
            extract_psi(grid, identity_track(), tol)
    assert_files_match(grid, tmp_path)
