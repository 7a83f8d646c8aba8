import numpy as np
import pytest

from trackcop import (
    BadMesh,
    IneligiblePsi,
    SpecMismatch,
    blend,
    c_psi_value,
    check_grid,
    identity_track,
    make_diagonal,
    make_pl,
    materialize_grid,
    psi_bounds,
    quadruplet,
    region_functions,
    s_t_split,
)
from trackcop.funcspace import INTERNAL_TOL
from conftest import random_eligible_psi
from test_common_knots import case_section


@pytest.fixture(scope="module")
def fig2_cands(fig2_spec):
    bounds = psi_bounds(fig2_spec)
    return (quadruplet(fig2_spec, bounds.psi_low),
            quadruplet(fig2_spec, bounds.psi_up))


def test_value_reference_points(fig2_spec, fig2_cands):
    low, up = fig2_cands
    assert c_psi_value(fig2_spec, low, 0.5, 0.6) == pytest.approx(0.2816901, abs=1e-5)
    assert c_psi_value(fig2_spec, up, 0.5, 0.6) == pytest.approx(0.1972693, abs=1e-5)
    assert c_psi_value(fig2_spec, up, 0.6, 0.5) == pytest.approx(0.2816901, abs=1e-5)


def test_value_matches_diagonal_on_track(fig2_spec, fig2_cands):
    low, up = fig2_cands
    for x in np.linspace(0, 1, 21):
        d = fig2_spec.delta(x)
        assert c_psi_value(fig2_spec, low, x, x) == pytest.approx(d, abs=1e-12)
        assert c_psi_value(fig2_spec, up, x, x) == pytest.approx(d, abs=1e-12)


def test_value_rejects_ineligible(fig2_spec):
    bad = quadruplet(fig2_spec, make_pl([0, 1], [0, 1 / np.pi]))
    with pytest.raises(IneligiblePsi):
        c_psi_value(fig2_spec, bad, 0.5, 0.5)


def test_independence_closed_form(indep_spec):
    xs = indep_spec.knots
    psi = quadruplet(indep_spec, make_pl(xs, xs**2 / 2.0))
    assert psi.eligible
    grid = materialize_grid(indep_spec, psi, xs)
    oracle = np.minimum(
        np.minimum(xs[:, None], xs[None, :]),
        (xs[:, None] ** 2 + xs[None, :] ** 2) / 2.0,
    )
    assert np.abs(grid.values - oracle).max() <= 1e-12


def test_w_diagonal_values(w_spec):
    cand = quadruplet(w_spec, psi_bounds(w_spec).psi_low)
    assert c_psi_value(w_spec, cand, 0.7, 0.3) == pytest.approx(0.2, abs=1e-12)
    assert c_psi_value(w_spec, cand, 0.25, 0.75) == pytest.approx(0.25, abs=1e-12)


def test_zero_gap_short_circuit_is_exact(fig1_spec):
    # zeta vanishes at 0.5, so the copula is exactly min on the split rectangles
    bounds = psi_bounds(fig1_spec)
    for psi in (bounds.psi_low, bounds.psi_up):
        cand = quadruplet(fig1_spec, psi)
        for x in np.linspace(0, 0.5, 11):
            for y in np.linspace(0.5, 1, 11):
                assert c_psi_value(fig1_spec, cand, x, y) == min(x, y)
                assert c_psi_value(fig1_spec, cand, y, x) == min(x, y)


def test_s_t_split_sums_to_value(fig2_spec_201, rng):
    for _ in range(5):
        cand = quadruplet(fig2_spec_201, random_eligible_psi(fig2_spec_201, rng))
        for x, y in rng.random((20, 2)):
            parts = s_t_split(fig2_spec_201, cand, x, y)
            total = parts["s"] + parts["t"]
            assert total == pytest.approx(
                c_psi_value(fig2_spec_201, cand, x, y), abs=1e-12)
            assert parts["s"] >= -1e-15 and parts["t"] >= -1e-15


def test_region_functions_fig2(fig2_spec, fig2_cands):
    low, up = fig2_cands
    g_low = region_functions(fig2_spec, low)["g"]
    g_up = region_functions(fig2_spec, up)["g"]
    assert g_low(0.5) == pytest.approx(0.0, abs=1e-12)
    assert g_up(0.5) == pytest.approx(0.1816901, abs=1e-5)


@pytest.fixture(scope="module")
def band_cases(fig2_spec):
    """(spec, candidate) for psi_L, psi_U and a blend, on fig2 and on a general track.

    On the general track (aligned seed 3) chi of psi_L and eta of psi_U
    both dip, by ulps.
    """
    cases = []
    for spec in (fig2_spec, make_diagonal(*case_section("aligned", False, 3))):
        bounds = psi_bounds(spec)
        low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
        cases += [(spec, cand) for cand in (low, up, blend(low, up, 0.37))]
    return cases


def test_region_band_brackets_track(band_cases):
    for spec, cand in band_cases:
        region = region_functions(spec, cand)
        g, h = region["g"], region["h"]
        for x in np.linspace(0, 1, 41):
            phi_x = spec.track.phi(x)
            assert g(x) <= phi_x + 1e-12
            assert h(x) >= phi_x - 1e-12


def test_copula_is_min_outside_band(band_cases):
    # beyond the midpoints below g and above h, at every knot of eta above h
    for spec, cand in band_cases:
        region = region_functions(spec, cand)
        eta_knots = cand.eta.x
        for x in np.linspace(0.05, 0.95, 19):
            g_x, h_x = region["g"](x), region["h"](x)
            below = g_x / 2.0
            above = (h_x + 1.0) / 2.0
            assert c_psi_value(spec, cand, x, below) == pytest.approx(min(x, below), abs=1e-12)
            assert c_psi_value(spec, cand, x, above) == pytest.approx(min(x, above), abs=1e-12)
            for y in eta_knots[eta_knots > h_x]:
                assert abs(c_psi_value(spec, cand, x, y) - min(x, y)) <= INTERNAL_TOL


def test_region_rejects_ineligible(fig2_spec):
    bad = quadruplet(fig2_spec, make_pl([0, 1], [0, 1 / np.pi]))
    with pytest.raises(IneligiblePsi):
        region_functions(fig2_spec, bad)


def test_region_for_m_diagonal_collapses():
    xs = np.linspace(0, 1, 51)
    from trackcop import identity_track, make_diagonal

    spec = make_diagonal(make_pl(xs, xs), identity_track())
    cand = quadruplet(spec, psi_bounds(spec).psi_low)
    region = region_functions(spec, cand)
    # with zero sub-track mass the band degenerates onto the track itself
    assert np.allclose(region["g"].y, region["g"].x, atol=1e-12)


def test_materialize_grid_passes_copula_checks(fig2_spec_201, rng):
    mesh = fig2_spec_201.knots
    for _ in range(3):
        cand = quadruplet(fig2_spec_201, random_eligible_psi(fig2_spec_201, rng))
        grid = materialize_grid(fig2_spec_201, cand, mesh)
        assert check_grid(grid, mode="copula").copula_ok


def test_materialize_grid_rejects_bad_mesh(fig2_spec_201, fig2_spec):
    cand = quadruplet(fig2_spec_201, psi_bounds(fig2_spec_201).psi_low)
    with pytest.raises(BadMesh):
        materialize_grid(fig2_spec_201, cand, [0.0, 1.0])
    with pytest.raises(BadMesh):
        materialize_grid(fig2_spec_201, cand, [0.0, 0.5, 0.9])
    for mesh in ([0.0, np.nan, 1.0], [0.0, 0.3, np.nan, 1.0], [0.0, 0.3, np.inf, 1.0]):
        with pytest.raises(BadMesh):
            materialize_grid(fig2_spec_201, cand, mesh)


def test_materialize_grid_refuses_a_foreign_spec():
    # gridded with the other spec, psi_L of delta(1/2) = 0.3 would take that
    # spec's delta and be off by 0.1 at (1/2, 1/2), with nothing raised
    track, mesh = identity_track(), np.linspace(0.0, 1.0, 5)
    own = make_diagonal(make_pl([0.0, 0.5, 1.0], [0.0, 0.3, 1.0]), track)
    foreign = make_diagonal(make_pl([0.0, 0.5, 1.0], [0.0, 0.4, 1.0]), track)
    cand = quadruplet(own, psi_bounds(own).psi_low)
    with pytest.raises(SpecMismatch):
        materialize_grid(foreign, cand, mesh)
    # a spec with the candidate's knot data is its own
    twin = make_diagonal(make_pl([0.0, 0.5, 1.0], [0.0, 0.3, 1.0]), identity_track())
    grid = materialize_grid(twin, cand, mesh)
    assert np.array_equal(grid.values, materialize_grid(own, cand, mesh).values)
    assert grid.values[2, 2] == 0.3
