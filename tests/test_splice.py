import re

import numpy as np
import pytest

from trackcop import (
    IneligiblePsi,
    PLFunction,
    SpecMismatch,
    c_psi_value,
    check_grid,
    make_splice,
    pointwise_upper_bound,
    psi_bounds,
    quadruplet,
    splice_grid,
)


@pytest.fixture(scope="module")
def fig2_splice(fig2_spec_201):
    bounds = psi_bounds(fig2_spec_201)
    low = quadruplet(fig2_spec_201, bounds.psi_low)
    up = quadruplet(fig2_spec_201, bounds.psi_up)
    return make_splice(low, up)


def test_splice_rejects_mismatched_specs(fig2_spec_201, indep_spec):
    a = quadruplet(fig2_spec_201, psi_bounds(fig2_spec_201).psi_low)
    b = quadruplet(indep_spec, psi_bounds(indep_spec).psi_low)
    with pytest.raises(SpecMismatch):
        make_splice(a, b)


def test_splice_rejects_an_ineligible_constituent(fig2_spec_201):
    # as materialize_grid and c_psi_value do
    bounds = psi_bounds(fig2_spec_201)
    low = quadruplet(fig2_spec_201, bounds.psi_low)
    bad = quadruplet(fig2_spec_201, PLFunction(bounds.psi_up.x, 1.3 * bounds.psi_up.y))
    assert not bad.eligible
    for upper, lower in ((bad, low), (low, bad)):
        with pytest.raises(IneligiblePsi, match=re.escape(bad.violation)):
            make_splice(upper, lower)


def test_splice_continuous_on_track(fig2_spec_201, fig2_splice):
    # on the identity track the upper constituent holds from y = x up, the lower below
    for x in np.linspace(0, 1, 21):
        upper_side = c_psi_value(fig2_spec_201, fig2_splice.upper, x, x)
        lower_side = (c_psi_value(fig2_spec_201, fig2_splice.lower, x, x - 1e-12) if x > 0
                      else upper_side)
        assert upper_side == pytest.approx(fig2_spec_201.delta(x), abs=1e-12)
        assert lower_side == pytest.approx(upper_side, abs=1e-9)


def test_splice_grid_is_quasi_but_not_copula(fig2_spec_201, fig2_splice):
    grid = splice_grid(fig2_splice, fig2_spec_201.knots)
    report = check_grid(grid, mode="quasi")
    assert report.quasi_ok
    assert not report.copula_ok
    assert report.min_cell_volume < -1e-6


def test_splice_attains_pointwise_upper_bound(fig2_spec_201, fig2_splice):
    grid = splice_grid(fig2_splice, fig2_spec_201.knots)
    mesh = grid.mesh
    for i in range(0, len(mesh), 20):
        for j in range(0, len(mesh), 20):
            bound = pointwise_upper_bound(fig2_spec_201, mesh[i], mesh[j])
            assert grid.values[i, j] == pytest.approx(bound, abs=1e-9)


def test_degenerate_splice_is_the_copula(fig2_spec_201):
    low = quadruplet(fig2_spec_201, psi_bounds(fig2_spec_201).psi_low)
    grid = splice_grid(make_splice(low, low), fig2_spec_201.knots)
    report = check_grid(grid, mode="copula")
    assert report.copula_ok and report.quasi_ok
