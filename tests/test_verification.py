import numpy as np
import pytest

from trackcop import (
    BadMesh,
    GridCopula,
    MeshMismatch,
    NoCopulaExists,
    NotACopula,
    SpecMismatch,
    TrackSectionMismatch,
    check_grid,
    compare,
    dominating_envelope,
    extract_psi,
    identity_track,
    make_diagonal,
    make_pl,
    make_splice,
    make_track,
    materialize_grid,
    merge_knots,
    pointwise_upper_bound,
    psi_bounds,
    quadruplet,
    splice_grid,
)

from test_grid_blocks import knot_track_spec

MESH3 = np.array([0.0, 0.5, 1.0])
M_GRID = GridCopula(MESH3, np.minimum(MESH3[:, None], MESH3[None, :]))
W_GRID = GridCopula(MESH3, np.maximum(MESH3[:, None] + MESH3[None, :] - 1.0, 0.0))


def product_grid(n=201):
    mesh = np.linspace(0.0, 1.0, n)
    return GridCopula(mesh, mesh[:, None] * mesh[None, :])


def test_check_grid_frechet_bounds():
    for grid in (M_GRID, W_GRID, product_grid(51)):
        report = check_grid(grid, mode="copula")
        assert report.copula_ok and report.quasi_ok
        assert report.min_cell_volume >= -1e-12


def test_check_grid_flags_broken_monotonicity():
    vals = np.array(M_GRID.values, copy=True)
    vals[1, 1] = 0.6
    report = check_grid(GridCopula(MESH3, vals))
    assert report.grounded and report.margins
    assert not report.monotone
    assert not report.two_increasing
    assert report.worst_cell == (0.0, 0.5)
    assert not report.copula_ok and not report.quasi_ok


def test_check_grid_flags_ungrounded():
    vals = np.array(M_GRID.values, copy=True)
    vals[0, 1] = 0.01
    report = check_grid(GridCopula(MESH3, vals))
    assert not report.grounded


def test_check_grid_flags_bad_margin():
    vals = np.array(M_GRID.values, copy=True)
    vals[2, 1] = 0.45
    report = check_grid(GridCopula(MESH3, vals))
    assert not report.margins


def test_check_grid_rejects_non_square():
    # a grid checks its own shape and mesh as it is built, before check_grid sees it
    with pytest.raises(BadMesh):
        GridCopula(MESH3, np.zeros((3, 4)))
    for mesh in ([0.0, 1.0], [0.0, 0.5, 0.9], [0.0, np.nan, 1.0], [0.0, 0.3, np.nan, 1.0],
                 [0.0, 0.3, np.inf, 1.0], [0.0, 0.6, 0.3, 1.0], [0.0, 0.5, 0.5, 1.0]):
        with pytest.raises(BadMesh):
            GridCopula(mesh, np.zeros((len(mesh), len(mesh))))


# A knot track and section (8 + 46 knots) whose mesh-1001 splice of psi_U over
# psi_L has a 1.1e-7-wide cell: a knot lies that close to a uniform mesh line.
THIN_CELL_TRACK = (
    [0.0, 0.12345929561935033, 0.27487740750161643, 0.43711289363739336,
     0.5721599734023026, 0.7216242865634571, 0.8651071212009602, 1.0],
    [0.0, 0.18561331785608473, 0.2384491955418255, 0.4562828880784643,
     0.608041973078257, 0.738532579431676, 0.8468486408213141, 1.0])
THIN_CELL_SECTION = (
    [0.0, 0.0347272569160058, 0.04166049510367427, 0.08313723012910022,
     0.10465740769768185, 0.11879233295583456, 0.12345929561935033, 0.15040819306607792,
     0.17699020809720845, 0.19848298108325907, 0.23369437634898618, 0.25516391574695974,
     0.27487740750161643, 0.28647804788885967, 0.30505511965546583, 0.3241883213511646,
     0.3633989723943961, 0.3893958010010542, 0.40168502158712804, 0.43518897280384977,
     0.43711289363739336, 0.4606196111199792, 0.4956897637050427, 0.5148254489694695,
     0.534511637179064, 0.5719104147744479, 0.5721599734023026, 0.5861262502835197,
     0.6200281320589053, 0.6346384583265919, 0.6608229416400742, 0.685040698673481,
     0.7216242865634571, 0.7245298126735045, 0.7372658136216524, 0.7644079337503425,
     0.7887713825255904, 0.8267253531849539, 0.8461944351247845, 0.8651071212009602,
     0.8658121795026148, 0.9057564796062553, 0.9295427191810552, 0.9448331540475241,
     0.9709272545943147, 1.0],
    [0.0, 0.005478129248912338, 0.006793726164945904, 0.016206548976101062,
     0.022131881365070487, 0.02641094488840396, 0.027891184268444263, 0.03470203830519368,
     0.04167388688202227, 0.0474951779651069, 0.056127842246822816, 0.06054481579342291,
     0.0647452710388334, 0.0704804136412615, 0.08004921093899822, 0.09039949532346955,
     0.11318044999566004, 0.1290781226814397, 0.13653864192609252, 0.15793081104974724,
     0.15920599326226725, 0.1739850773473754, 0.2035848015324779, 0.23140178961633712,
     0.2604578761399199, 0.31688299151521854, 0.31726490619838427, 0.33645045018042163,
     0.3837456012764667, 0.4044440778577949, 0.44201622235901555, 0.47731085231621206,
     0.5316195876923411, 0.5357340883537138, 0.5538463185044991, 0.5928634224648092,
     0.6283702077695968, 0.6834357648226435, 0.7120834357819322, 0.7401924140215176,
     0.7414954887782537, 0.816261743222283, 0.8616633931149584, 0.8911954333385492,
     0.9422202372412184, 1.0])


@pytest.fixture(scope="module")
def thin_cell_splice():
    track = make_track(make_pl(*THIN_CELL_TRACK))
    spec = make_diagonal(make_pl(*THIN_CELL_SECTION), track)
    bounds = psi_bounds(spec)
    spliced = make_splice(quadruplet(spec, bounds.psi_up), quadruplet(spec, bounds.psi_low))
    mesh = merge_knots(np.linspace(0.0, 1.0, 1001), spec.knots, spec.phi_values())
    return splice_grid(spliced, mesh)


def test_lipschitz_allows_rounding_on_thin_cells(thin_cell_splice):
    mesh, v = thin_cell_splice.mesh, thin_cell_splice.values
    dx = np.diff(mesh)
    assert dx.min() < 2e-7
    # the values exceed the bare relative bound by rounding alone
    assert (np.diff(v, axis=1) - dx[None, :] * (1.0 + 1e-9)).max() > 0.0
    report = check_grid(thin_cell_splice, mode="quasi")
    assert report.lipschitz and report.quasi_ok


def test_lipschitz_flags_real_excess_on_thin_cells(thin_cell_splice):
    mesh = thin_cell_splice.mesh
    dx = np.diff(mesh)
    i = int(np.argmin(dx))
    m_vals = np.minimum(mesh[:, None], mesh[None, :])
    assert check_grid(GridCopula(mesh, m_vals), mode="quasi").lipschitz
    # M has slope exactly 1 in x above the diagonal: raise one step by a real excess
    vals = m_vals.copy()
    j = len(mesh) - 2
    vals[i + 1, j] += 1e-6 * dx[i] + 1e-10
    report = check_grid(GridCopula(mesh, vals), mode="quasi")
    assert not report.lipschitz and not report.quasi_ok
    assert check_grid(GridCopula(mesh, vals.T), mode="quasi").lipschitz is False


def test_compare_orderings():
    assert compare(M_GRID, M_GRID).relation == "equal"
    assert compare(M_GRID, W_GRID).relation == "first-dominates"
    assert compare(W_GRID, M_GRID).relation == "second-dominates"


def test_compare_mesh_mismatch():
    other = GridCopula(np.array([0.0, 0.25, 1.0]), M_GRID.values)
    with pytest.raises(MeshMismatch):
        compare(M_GRID, other)


@pytest.fixture(scope="module")
def fig2_grids(fig2_spec_201):
    bounds = psi_bounds(fig2_spec_201)
    mesh = fig2_spec_201.knots
    low = materialize_grid(fig2_spec_201, quadruplet(fig2_spec_201, bounds.psi_low), mesh)
    up = materialize_grid(fig2_spec_201, quadruplet(fig2_spec_201, bounds.psi_up), mesh)
    return low, up


def test_compare_extremes_incomparable(fig2_grids):
    low, up = fig2_grids
    result = compare(low, up)
    assert result.relation == "incomparable"
    u, v = result.witness_pair
    assert result.product < -1e-4
    d = low.values - up.values
    i = int(np.argmin(np.abs(low.mesh - u)))
    j = int(np.argmin(np.abs(low.mesh - v)))
    assert d[i, j] * d[j, i] == pytest.approx(result.product, abs=1e-15)


def test_compare_mirror_product_reference(fig2_grids):
    low, up = fig2_grids
    mesh = low.mesh
    i = int(np.argmin(np.abs(mesh - 0.5)))
    j = int(np.argmin(np.abs(mesh - 0.6)))
    d = low.values - up.values
    assert d[i, j] * d[j, i] == pytest.approx(-0.0071269, abs=1e-4)


def test_pointwise_upper_bound_reference(fig2_spec):
    assert pointwise_upper_bound(fig2_spec, 0.5, 0.6) == pytest.approx(0.2816901, abs=1e-5)
    assert pointwise_upper_bound(fig2_spec, 0.6, 0.5) == pytest.approx(0.2816901, abs=1e-5)


def test_pointwise_upper_bound_dominates_extremes(fig2_spec_201, fig2_grids):
    low, up = fig2_grids
    mesh = low.mesh[::10]
    for x in mesh:
        for y in mesh:
            bound = pointwise_upper_bound(fig2_spec_201, x, y)
            i = int(np.argmin(np.abs(low.mesh - x)))
            j = int(np.argmin(np.abs(low.mesh - y)))
            assert bound >= low.values[i, j] - 1e-9
            assert bound >= up.values[i, j] - 1e-9


def test_pointwise_upper_bound_requires_existence():
    d = make_pl([0, 0.4, 0.5, 1], [0, 0.25, 0.5, 1])
    spec = make_diagonal(d, identity_track(), validate=False)
    with pytest.raises(NoCopulaExists):
        pointwise_upper_bound(spec, 0.5, 0.5)


def test_extract_psi_product_copula():
    grid = product_grid(201)
    psi = extract_psi(grid, identity_track())
    assert np.abs(psi.y - grid.mesh**2 / 2.0).max() <= 1e-12


def test_extract_psi_shuffle():
    mesh = np.linspace(0, 1, 201)
    grid = GridCopula(mesh, np.maximum(mesh[:, None] + mesh[None, :] - 1.0, 0.0))
    psi = extract_psi(grid, identity_track())
    assert np.abs(psi.y - np.maximum(mesh - 0.5, 0.0)).max() <= 1e-12


def test_extract_psi_m_copula():
    mesh = np.linspace(0, 1, 101)
    grid = GridCopula(mesh, np.minimum(mesh[:, None], mesh[None, :]))
    psi = extract_psi(grid, identity_track())
    # checkerboard spreading puts half of each diagonal cell below the track
    assert np.abs(psi.y - mesh / 2.0).max() <= 1e-12


def test_extract_psi_rejects_non_copula():
    vals = np.array(M_GRID.values, copy=True)
    vals[1, 1] = 0.6
    with pytest.raises(NotACopula):
        extract_psi(GridCopula(MESH3, vals), identity_track())


def test_extract_psi_needs_track_knots_in_mesh():
    from trackcop import make_track

    track = make_track(make_pl([0, 0.3, 1], [0, 0.7, 1]))
    with pytest.raises(BadMesh):
        extract_psi(M_GRID, track)


def test_envelope_of_product_grid(indep_spec):
    grid = product_grid(201)
    cpsi = dominating_envelope(grid, identity_track(), indep_spec)
    env = materialize_grid(indep_spec, cpsi.candidate, grid.mesh)
    gains = env.values - grid.values
    assert gains.min() >= -2.0 / 201
    i = int(np.argmin(np.abs(grid.mesh - 0.4)))
    j = int(np.argmin(np.abs(grid.mesh - 0.6)))
    assert gains[i, j] == pytest.approx(0.02, abs=1e-3)


def test_envelope_roundtrip_recovers_psi(fig2_spec_201, rng):
    from conftest import random_eligible_psi

    mesh = fig2_spec_201.knots
    cand = quadruplet(fig2_spec_201, random_eligible_psi(fig2_spec_201, rng))
    grid = materialize_grid(fig2_spec_201, cand, mesh)
    cpsi = dominating_envelope(grid, identity_track(), fig2_spec_201)
    dev = np.abs(cpsi.candidate.psi(mesh) - cand.psi(mesh)).max()
    assert dev <= 2.0 / 201


def test_envelope_rejects_wrong_section(fig2_spec_201):
    grid = product_grid(201)
    with pytest.raises(TrackSectionMismatch):
        dominating_envelope(grid, identity_track(), fig2_spec_201)


def test_envelope_checks_the_section_in_every_column():
    # phi(x) falls on this mesh only at x = 0 and 1, where every copula has
    # the section; in the other columns M is far from the knot spec's delta
    spec = knot_track_spec()
    mesh = merge_knots(np.linspace(0.0, 1.0, 21), spec.track.phi.x)
    grid = GridCopula(mesh, np.minimum(mesh[:, None], mesh[None, :]))
    with pytest.raises(TrackSectionMismatch, match=r"deviates by 0\.286 > 0\.087"):
        dominating_envelope(grid, spec.track, spec)


def test_envelope_refuses_a_track_not_the_specs(fig2_spec_201):
    spec, mesh = fig2_spec_201, fig2_spec_201.knots
    grid = materialize_grid(spec, quadruplet(spec, psi_bounds(spec).psi_low), mesh)
    # psi along this track, judged against the spec's, would pass unnoticed
    nearly_identity = make_track(make_pl([0.0, 0.5, 1.0], [0.0, 0.5 + 1e-9, 1.0]))
    with pytest.raises(SpecMismatch):
        dominating_envelope(grid, nearly_identity, spec)
    # a track equal to the spec's in value is the spec's
    same = dominating_envelope(grid, identity_track(), spec).candidate.psi
    assert np.array_equal(same.y, dominating_envelope(grid, spec.track, spec).candidate.psi.y)


@pytest.mark.parametrize("n", [201, 1001])
def test_envelope_names_a_missing_knot_of_delta(n):
    # psi_L gridded off the spec's knots comes back ineligible however fine
    # the mesh; the error names the first knot of delta the mesh misses
    spec = knot_track_spec()
    cand = quadruplet(spec, psi_bounds(spec).psi_low)
    uniform = np.linspace(0.0, 1.0, n)
    grid = materialize_grid(spec, cand, merge_knots(uniform, spec.track.phi.x))
    with pytest.raises(BadMesh, match=r"^mesh must include knot 0\.128628"):
        dominating_envelope(grid, spec.track, spec)
    grid = materialize_grid(spec, cand, merge_knots(uniform, spec.track.phi.x, spec.knots))
    assert dominating_envelope(grid, spec.track, spec).candidate.eligible
