"""Every public function that takes a user tol rejects one that is not a finite number >= 0.

A NaN tol makes every comparison false, so without the check a section with
no copula passed existence, and each call left a memo entry its NaN key
could never hit again. A valid tol, 0 included, goes through the one rule
for monotone tests, checked at the end of this file.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from trackcop import (
    BadTolerance,
    PLFunction,
    blend,
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
        "blend": lambda tol: blend(cand, cand, 0.5, tol),
        "pointwise_upper_bound": lambda tol: pointwise_upper_bound(spec, 0.3, 0.6, tol),
        "check_grid": lambda tol: check_grid(grid, "quasi", tol),
        "compare": lambda tol: compare(grid, grid, tol),
        "extract_psi": lambda tol: extract_psi(grid, spec.track, tol),
        "dominating_envelope": lambda tol: dominating_envelope(grid, spec.track, spec, tol),
        "load_problem": lambda tol: load_problem(spec_path, tol),
        "resolve_candidate": lambda tol: resolve_candidate(problem, tol=tol),
    }


FUNCTIONS = ["diagonal_conditions", "make_diagonal", "make_diagonal-unvalidated",
             "existence_check", "psi_bounds", "quadruplet", "eligibility_by_variation", "blend",
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
        calls[name](tol)  # a valid section and grid: no verdict fails at any of these


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
# The tolerance rule. `tol` is the user's slack, and every monotone test, of
# the 1-D data (funcspace.first_decrease) and of a grid's steps alike, allows
# a fall of tol + INTERNAL_TOL, INTERNAL_TOL covering rounding. So at tol 0 a
# dip of a few ulps fails nothing: psi_U builds and splices, and the envelope
# of a constructed grid comes out eligible. A fall of more than tol fails,
# however small each step of it is.

KNOT_SPEC = Path(__file__).resolve().parent / "data" / "csv_v0" / "knot_spec.json"
TOL_0_SPECS = {**{name: {"diagonal": name, "mesh": 501} for name in ("fig1", "fig2", "indep")},
               "knot": json.loads(KNOT_SPEC.read_text())}


@pytest.mark.parametrize("name", TOL_0_SPECS)
def test_psi_upper_build_splice_and_envelope_succeed_at_tol_0(tmp_path, capsys, name):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**TOL_0_SPECS[name], "psi": "upper"}))
    build, tol_0 = tmp_path / "build", ["--tol", "0", "--quiet"]
    for argv in (["build", str(spec), "--out", str(build)],
                 ["splice", str(spec), "upper", "blend:0.25", "--out", str(tmp_path / "splice")],
                 ["envelope", str(build / "grid.npy"), str(spec), "--out", str(tmp_path / "env")]):
        assert main(argv + tol_0) == 0, (argv[0], capsys.readouterr().err)


def test_drift_in_sub_tol_steps_is_ineligible(tmp_path):
    # fig2's psi_L, dropped by 0.8 tol at each of four knots from 0.2 on: no
    # step falls by tol, but psi - psi_L falls by 1.6 tol from 0.198 to 0.202
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"diagonal": "fig2", "mesh": 501}))
    spec = load_problem(spec_path).spec
    low = psi_bounds(spec).psi_low
    k = int(np.searchsorted(low.x, 0.2))
    drift = np.minimum(0.0008 * np.maximum(np.arange(len(low.x)) - k + 1, 0), 0.0032)
    psi = PLFunction(low.x, low.y - drift)
    candidate = quadruplet(spec, psi, tol=1e-3)
    result = eligibility_by_variation(spec, psi, tol=1e-3)
    assert not candidate.eligible and not result.eligible
    assert result.witness == (low.x[k - 1], low.x[k + 1]) == (0.198, 0.202)
    assert candidate.violation == "psi - psi_L decreasing on [0.198, 0.202]"


def test_envelope_of_a_constructed_grid_succeeds_at_tol_0(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"diagonal": "w-diag", "mesh": 101}))
    assert main(["build", str(spec), "--out", str(tmp_path / "build"), "--quiet"]) == 0
    code = main(["envelope", str(tmp_path / "build" / "grid.npy"), str(spec), "--tol", "0",
                 "--out", str(tmp_path / "envelope"), "--quiet"])
    assert code == 0, capsys.readouterr().err
