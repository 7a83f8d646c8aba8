"""Every public function that takes a user tol rejects one that is not a finite number >= 0.

A NaN tol makes every comparison false, so without the check a section with
no copula passed existence, and each call left a memo entry its NaN key
could never hit again.
"""

import json

import numpy as np
import pytest

from trackcop import (
    BadTolerance,
    TrackcopError,
    check_grid,
    compare,
    diagonal_conditions,
    dominating_envelope,
    eligibility_by_variation,
    existence_check,
    extract_psi,
    identity_track,
    make_diagonal,
    make_pl,
    materialize_grid,
    pointwise_upper_bound,
    psi_bounds,
    quadruplet,
)
from trackcop.cli import load_problem, main, resolve_candidate
from trackcop.funcspace import check_tol

BAD_TOLS = [float("nan"), -1.0, float("inf"), np.float64("nan"), "1e-9", None]


def no_copula_spec():
    """An identity-track section with no copula: delta falls from 0.4 to 0.3."""
    delta = make_pl([0.0, 0.4, 0.5, 1.0], [0.0, 0.4, 0.3, 1.0])
    return make_diagonal(delta, identity_track(), validate=False)


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """Each public function with a user tol, called on valid data with the given tol."""
    spec = make_diagonal(make_pl([0.0, 0.5, 1.0], [0.0, 0.2, 1.0]), identity_track())
    psi = psi_bounds(spec).psi_low
    cand = quadruplet(spec, psi)
    mesh = np.linspace(0.0, 1.0, 11)
    grid = materialize_grid(spec, cand, mesh)
    spec_path = tmp_path_factory.mktemp("tol") / "spec.json"
    spec_path.write_text(json.dumps({"diagonal": "fig2", "mesh": 11}))
    problem = load_problem(spec_path)
    return {
        "diagonal_conditions": lambda tol: diagonal_conditions(spec.delta, spec.track, tol),
        "make_diagonal": lambda tol: make_diagonal(spec.delta, spec.track, tol),
        "make_diagonal-unvalidated":
            lambda tol: make_diagonal(spec.delta, spec.track, tol, validate=False),
        "existence_check": lambda tol: existence_check(spec, tol),
        "psi_bounds": lambda tol: psi_bounds(spec, tol),
        "quadruplet": lambda tol: quadruplet(spec, psi, tol),
        "eligibility_by_variation": lambda tol: eligibility_by_variation(spec, psi, tol),
        "pointwise_upper_bound": lambda tol: pointwise_upper_bound(spec, 0.3, 0.6, tol),
        "check_grid": lambda tol: check_grid(grid, "quasi", tol),
        "compare": lambda tol: compare(grid, grid, tol),
        "extract_psi": lambda tol: extract_psi(grid, spec.track, tol),
        "dominating_envelope": lambda tol: dominating_envelope(grid, spec.track, spec, tol),
        "load_problem": lambda tol: load_problem(spec_path, tol),
        "resolve_candidate": lambda tol: resolve_candidate(problem, tol=tol),
    }


FUNCTIONS = ["diagonal_conditions", "make_diagonal", "make_diagonal-unvalidated",
             "existence_check", "psi_bounds", "quadruplet", "eligibility_by_variation",
             "pointwise_upper_bound", "check_grid", "compare", "extract_psi",
             "dominating_envelope", "load_problem", "resolve_candidate"]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_bad_tol_is_rejected(calls, name, tol):
    with pytest.raises(BadTolerance):
        calls[name](tol)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_good_tols_are_accepted(calls, name):
    for tol in (0.0, 0, 1e-9, np.float64(0.5)):
        try:
            calls[name](tol)
        except BadTolerance:
            raise
        except TrackcopError:
            pass  # a verdict at this tol: at 0 the extracted psi is ineligible by rounding


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")], ids=repr)
def test_bad_tol_leaves_the_memos_alone(tol):
    spec = no_copula_spec()
    assert not existence_check(spec).exists
    memo = dict(spec._existence)
    for call in (existence_check, psi_bounds):
        for _ in range(3):
            with pytest.raises(BadTolerance):
                call(spec, tol=float(repr(tol)))  # a fresh float object each time
    with pytest.raises(BadTolerance):
        pointwise_upper_bound(spec, 0.45, 0.5, tol=tol)
    assert spec._existence == memo


def test_check_tol_returns_a_good_tol():
    assert check_tol(0.0) == 0.0 and check_tol(2) == 2
    with pytest.raises(BadTolerance, match="finite number >= 0"):
        check_tol(float("nan"))


# ---------------------------------------------------------------------------
# At tol 0 two verdicts still trip on rounding. The tolerance rule of the
# roadmap (tol as modelling slack for 1-D data, a fixed rounding bound for
# grids) should let both commands succeed; until then each test fails, and
# strict=True turns the fix into a visible pass.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="psi_U's xi dips by rounding, which tol 0 forbids")
def test_build_of_psi_upper_succeeds_at_tol_0(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"diagonal": "fig2", "psi": "upper", "mesh": 501}))
    code = main(["build", str(spec), "--tol", "0", "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0, capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the extracted psi's chi dips by rounding at tol 0")
def test_envelope_of_a_constructed_grid_succeeds_at_tol_0(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"diagonal": "w-diag", "mesh": 101}))
    assert main(["build", str(spec), "--out", str(tmp_path / "build"), "--quiet"]) == 0
    code = main(["envelope", str(tmp_path / "build" / "grid.npy"), str(spec), "--tol", "0",
                 "--out", str(tmp_path / "envelope"), "--quiet"])
    assert code == 0, capsys.readouterr().err
