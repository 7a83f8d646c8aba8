"""Verdicts on sections whose diagonal touches the main diagonal at knots.

The library once returned exactly min(x, y) on the identity track wherever
zeta = x - delta vanishes at a knot between x and y. It now evaluates the
one formula of the construction everywhere. check_grid, compare and the
envelope must reach the same verdicts on grids of either kernel, at tol 0
and at the default tol, and the values must agree to rounding.
"""

import itertools
import json

import numpy as np
import pytest

from trackcop import (
    GridCopula,
    TrackcopError,
    blend,
    c_psi_value,
    check_grid,
    compare,
    dominating_envelope,
    identity_track,
    make_diagonal,
    make_pl,
    materialize_grid,
    merge_knots,
    psi_bounds,
    quadruplet,
)
from trackcop.cli import builtin_diagonal, main
from trackcop.funcspace import INTERNAL_TOL, USER_TOL

from loop_reference import reference_c_psi_grid_values, reference_c_psi_value

VALUE_BOUND = 1e-15
EPS = np.finfo(float).eps


# the hand-made section: zeta vanishes at 0.3 and 0.6 between the ends
INTERIOR = {"x": [0, 0.15, 0.3, 0.45, 0.6, 0.8, 1], "y": [0, 0.1, 0.3, 0.4, 0.6, 0.7, 1]}


def zero_gap_spec(name):
    """A section whose zeta vanishes at knots.

    zeta vanishes everywhere on m-diag, at 0, 0.5 and 1 on fig1, and only at
    the ends on w-diag; the builtins take 201 knots. "interior" is a
    hand-made section with zeros at 0.3 and 0.6 between the ends.
    """
    if name == "interior":
        delta = make_pl(INTERIOR["x"], INTERIOR["y"])
    else:
        delta = builtin_diagonal(name, 201)
    return make_diagonal(delta, identity_track())


VERDICTS = ("grounded", "margins", "monotone", "lipschitz", "two_increasing",
            "copula_ok", "quasi_ok")


def outcome(call, *args):
    try:
        return call(*args), None
    except TrackcopError as exc:
        return None, type(exc)


def extremal_and_blend(spec):
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    return low, up, blend(low, up, 0.5)


@pytest.mark.parametrize("name", ["m-diag", "w-diag", "fig1", "interior"])
def test_zero_gap_values_match_short_circuit(name):
    spec = zero_gap_spec(name)
    points = np.concatenate((np.linspace(0.0, 1.0, 21), spec.knots[spec.knots - spec.delta.y == 0.0]))
    for cand in extremal_and_blend(spec):
        for x, y in itertools.product(points, repeat=2):
            new, old = c_psi_value(spec, cand, x, y), reference_c_psi_value(spec, cand, x, y)
            assert abs(new - old) <= VALUE_BOUND


@pytest.mark.parametrize("tol", [0.0, USER_TOL], ids=["tol0", "default-tol"])
@pytest.mark.parametrize("name", ["m-diag", "w-diag", "fig1", "interior"])
def test_zero_gap_verdicts_match_short_circuit(name, tol):
    spec = zero_gap_spec(name)
    mesh = merge_knots(np.linspace(0.0, 1.0, 101), spec.knots)
    candidates = extremal_and_blend(spec)
    new = [materialize_grid(spec, c, mesh) for c in candidates]
    old = [GridCopula(mesh, reference_c_psi_grid_values(spec, c, mesh)) for c in candidates]

    for a, b in zip(new, old):
        assert np.abs(a.values - b.values).max() <= VALUE_BOUND
        for mode in ("copula", "quasi"):
            ra, rb = check_grid(a, mode, tol), check_grid(b, mode, tol)
            assert [getattr(ra, k) for k in VERDICTS] == [getattr(rb, k) for k in VERDICTS]
            assert abs(ra.min_cell_volume - rb.min_cell_volume) <= VALUE_BOUND

    for i, j in itertools.permutations(range(len(candidates)), 2):
        ra, rb = compare(new[i], new[j], tol), compare(old[i], old[j], tol)
        assert (ra.relation, ra.witness_pair) == (rb.relation, rb.witness_pair)
        if ra.product is not None:
            assert abs(ra.product - rb.product) <= VALUE_BOUND

    for a, b in zip(new, old):
        env_a, err_a = outcome(dominating_envelope, a, spec.track, spec, tol)
        env_b, err_b = outcome(dominating_envelope, b, spec.track, spec, tol)
        assert err_a == err_b
        if err_a is not None:
            continue
        assert np.abs(env_a.candidate.psi.y - env_b.candidate.psi.y).max() <= VALUE_BOUND
        # the envelope's grid, as `trackcop envelope` builds it from the extracted psi
        grid_a = materialize_grid(spec, env_a.candidate, mesh).values
        grid_b = reference_c_psi_grid_values(spec, env_b.candidate, mesh)
        gain_a, gain_b = (grid_a - a.values).max(), (grid_b - b.values).max()
        assert abs(gain_a - gain_b) <= VALUE_BOUND
        # The extracted psi is a cumulative sum over the mesh, and the short
        # circuit hid its rounding at zero gaps; that rounding is n ulps at most.
        assert np.abs(grid_a - grid_b).max() <= len(mesh) * EPS


def test_tol0_monotone_check_allows_rounding_only():
    # psi_U's grid on the hand-made section steps down by -5.55e-17 in
    # places: rounding, which check_grid's INTERNAL_TOL covers at tol 0
    spec = zero_gap_spec("interior")
    mesh = merge_knots(np.linspace(0.0, 1.0, 101), spec.knots)
    grid = materialize_grid(spec, quadruplet(spec, psi_bounds(spec).psi_up), mesh)
    assert min(np.diff(grid.values, axis=0).min(), np.diff(grid.values, axis=1).min()) < 0.0
    report = check_grid(grid, "quasi", 0.0)
    assert report.monotone and report.copula_ok and report.quasi_ok

    values = grid.values.copy()
    values[50, 61] = values[50, 60] - 2 * INTERNAL_TOL  # a decrease twice that slack
    report = check_grid(GridCopula(mesh, values), "quasi", 0.0)
    assert not report.monotone and not report.quasi_ok


def test_tol0_splice_of_the_hand_made_section_passes(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"diagonal": INTERIOR, "mesh": 101}))
    out = tmp_path / "out"
    assert main(["splice", str(spec), "upper", "lower", "--tol", "0",
                 "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "report.json").read_text())["quasi_ok"] is True
