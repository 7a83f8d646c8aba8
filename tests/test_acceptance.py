"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single pass/fail line (bypassing capture) so a plain
pytest run doubles as an acceptance report.
"""

import numpy as np
import pytest

from trackcop import (
    PLFunction,
    check_grid,
    compare,
    eligibility_by_variation,
    existence_check,
    identity_track,
    make_diagonal,
    make_pl,
    make_splice,
    materialize_grid,
    merge_knots,
    pointwise_upper_bound,
    psi_bounds,
    quadruplet,
    splice_grid,
)
from trackcop.verification import dominating_envelope, extract_psi
from trackcop.construction import GridCopula
from conftest import diagonal_spec, perturb_ineligible, random_eligible_psi


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_comonotone_diagonal_collapse(capsys, rng):
    xs = np.linspace(0.0, 1.0, 201)
    spec = make_diagonal(make_pl(xs, xs), identity_track())
    m = np.minimum(xs[:, None], xs[None, :])
    worst = 0.0
    for _ in range(20):
        cand = quadruplet(spec, random_eligible_psi(spec, rng))
        grid = materialize_grid(spec, cand, xs)
        worst = max(worst, float(np.abs(grid.values - m).max()))
    report(capsys, 1, "comonotone diagonal collapses to min", worst <= 1e-12)


def test_02_independence_closed_form(capsys, indep_spec):
    xs = indep_spec.knots
    cand = quadruplet(indep_spec, make_pl(xs, xs**2 / 2.0))
    grid = materialize_grid(indep_spec, cand, xs)
    oracle = np.minimum(np.minimum(xs[:, None], xs[None, :]),
                        (xs[:, None] ** 2 + xs[None, :] ** 2) / 2.0)
    dev = float(np.abs(grid.values - oracle).max())
    report(capsys, 2, "independence diagonal closed form", dev <= 1e-12)


def test_03_countermonotone_uniqueness_and_shuffle(capsys, w_spec):
    bounds = psi_bounds(w_spec)
    target = np.maximum(bounds.psi_low.x - 0.5, 0.0)
    unique_ok = (np.abs(bounds.psi_low.y - target).max() <= 1e-12
                 and np.abs(bounds.psi_up.y - target).max() <= 1e-12)
    cand = quadruplet(w_spec, bounds.psi_low)
    from trackcop import c_psi_value

    values_ok = (abs(c_psi_value(w_spec, cand, 0.7, 0.3) - 0.2) <= 1e-12
                 and abs(c_psi_value(w_spec, cand, 0.25, 0.75) - 0.25) <= 1e-12)
    mesh = merge_knots(np.linspace(0.0, 1.0, 201), w_spec.knots)
    grid_ok = check_grid(materialize_grid(w_spec, cand, mesh)).copula_ok
    report(capsys, 3, "countermonotone diagonal shuffle", unique_ok and values_ok and grid_ok)


def test_04_sine_gap_reference_values(capsys, fig2_spec):
    bounds = psi_bounds(fig2_spec)
    low = quadruplet(fig2_spec, bounds.psi_low)
    up = quadruplet(fig2_spec, bounds.psi_up)
    from trackcop import c_psi_value

    refs_ok = (abs(bounds.psi_low(0.6) - 0.0155792) <= 1e-4
               and abs(bounds.psi_up(0.5) - 0.1816901) <= 1e-4
               and abs(c_psi_value(fig2_spec, low, 0.5, 0.6) - 0.2816901) <= 1e-4
               and abs(c_psi_value(fig2_spec, up, 0.5, 0.6) - 0.1972693) <= 1e-4)
    mesh = fig2_spec.knots
    diag_ok = True
    grids_ok = True
    for cand in (low, up):
        grid = materialize_grid(fig2_spec, cand, mesh)
        rep = check_grid(grid)
        grids_ok = grids_ok and rep.copula_ok and rep.min_cell_volume >= -1e-12
        diag = np.diagonal(grid.values)
        diag_ok = diag_ok and float(np.abs(diag - fig2_spec.delta.y).max()) <= 1e-9
    report(capsys, 4, "sine-gap diagonal reference values", refs_ok and grids_ok and diag_ok)


def test_05_split_rectangles_exact_min(capsys, fig1_spec):
    mesh = fig1_spec.knots
    mid = int(np.argmin(np.abs(mesh - 0.5)))
    m = np.minimum(mesh[:, None], mesh[None, :])
    bounds = psi_bounds(fig1_spec)
    ok = True
    for psi in (bounds.psi_low, bounds.psi_up):
        grid = materialize_grid(fig1_spec, quadruplet(fig1_spec, psi), mesh)
        ok = ok and np.array_equal(grid.values[: mid + 1, mid:], m[: mid + 1, mid:])
        ok = ok and np.array_equal(grid.values[mid:, : mid + 1], m[mid:, : mid + 1])
    report(capsys, 5, "zero-gap split rectangles equal min exactly", ok)


def test_06_mirror_point_incomparability(capsys, fig2_spec_201, rng):
    spec = fig2_spec_201
    mesh = spec.knots
    bounds = psi_bounds(spec)
    low = materialize_grid(spec, quadruplet(spec, bounds.psi_low), mesh)
    up = materialize_grid(spec, quadruplet(spec, bounds.psi_up), mesh)
    result = compare(low, up)
    extremes_ok = (result.relation == "incomparable"
                   and result.product is not None and result.product <= -1e-4)
    never_dominates = True
    for _ in range(50):
        a = materialize_grid(spec, quadruplet(spec, random_eligible_psi(spec, rng)), mesh)
        b = materialize_grid(spec, quadruplet(spec, random_eligible_psi(spec, rng)), mesh)
        relation = compare(a, b).relation
        never_dominates = never_dominates and relation in ("equal", "incomparable")
    report(capsys, 6, "distinct constructions are never ordered",
           extremes_ok and never_dominates)


def test_07_eligibility_three_way_equivalence(capsys, rng):
    specs = [diagonal_spec("fig1", 201), diagonal_spec("fig2", 201),
             make_diagonal(make_pl([0, 0.5, 1], [0, 0, 1]), identity_track()),
             diagonal_spec("indep", 201)]
    disagreements = 0
    for spec in specs:
        mesh = merge_knots(np.linspace(0.0, 1.0, 201), spec.knots)
        for i in range(100):
            psi = random_eligible_psi(spec, rng)
            if i % 2:
                psi = perturb_ineligible(spec, psi, rng)
            cand = quadruplet(spec, psi)
            by_var = eligibility_by_variation(spec, psi)
            if cand.eligible != by_var.eligible:
                disagreements += 1
                continue
            if cand.eligible:
                grid = materialize_grid(spec, cand, mesh)
                if not check_grid(grid).copula_ok:
                    disagreements += 1
            elif cand.violation is None:
                disagreements += 1
    report(capsys, 7, "eligibility equivalences agree", disagreements == 0)


def _random_track_diagonal(rng):
    n = int(rng.integers(4, 12))
    xs = np.concatenate(([0.0], np.sort(rng.random(n - 2)), [1.0]))
    xs = np.unique(xs)
    phi_inc = rng.random(len(xs) - 1) + 1e-3
    phi = np.concatenate(([0.0], np.cumsum(phi_inc)))
    phi /= phi[-1]
    s = rng.random(len(xs) - 1) * 1.4
    d_inc = s * (np.diff(xs) + np.diff(phi))
    d = np.concatenate(([0.0], np.cumsum(d_inc)))
    if d[-1] > 0:
        d = d / d[-1]
    d = np.minimum(d, np.minimum(xs, phi))
    d[-1] = 1.0
    from trackcop import make_track

    track = make_track(PLFunction(xs, phi))
    return make_diagonal(PLFunction(xs, d), track, validate=False)


def test_08_existence_criteria_agree(capsys, rng):
    disagreements = 0
    verdicts = set()
    for _ in range(100):
        spec = _random_track_diagonal(rng)
        result = existence_check(spec)
        verdicts.add(result.exists)
        if result.variational_ok != result.lipschitz_ok:
            disagreements += 1
    report(capsys, 8, "existence criteria agree",
           disagreements == 0 and verdicts == {True, False})


def test_09_envelope_characterization(capsys, indep_spec, rng):
    mesh = np.linspace(0.0, 1.0, 201)
    pi_grid = GridCopula(mesh, mesh[:, None] * mesh[None, :])
    env = dominating_envelope(pi_grid, identity_track(), indep_spec)
    env_grid = materialize_grid(indep_spec, env.candidate, mesh)
    gains = env_grid.values - pi_grid.values
    i = int(np.argmin(np.abs(mesh - 0.4)))
    j = int(np.argmin(np.abs(mesh - 0.6)))
    pi_ok = (gains.min() >= -1e-12 and gains.max() >= 0.015
             and abs(gains[i, j] - 0.02) <= 1e-3)
    extracted = extract_psi(pi_grid, identity_track())
    extract_ok = float(np.abs(extracted.y - mesh**2 / 2.0).max()) <= 2.0 / 201
    spec = diagonal_spec("fig2", 201)
    cand = quadruplet(spec, psi_bounds(spec).psi_low)
    grid = materialize_grid(spec, cand, spec.knots)
    round_env = dominating_envelope(grid, identity_track(), spec)
    round_ok = float(np.abs(round_env.candidate.psi(spec.knots)
                            - cand.psi(spec.knots)).max()) <= 2.0 / 201
    report(capsys, 9, "dominating envelope characterization",
           pi_ok and extract_ok and round_ok)


def test_10_splice_quasi_copula(capsys, fig2_spec_201):
    spec = fig2_spec_201
    bounds = psi_bounds(spec)
    low = quadruplet(spec, bounds.psi_low)
    up = quadruplet(spec, bounds.psi_up)
    grid = splice_grid(make_splice(low, up), spec.knots)
    rep = check_grid(grid, mode="quasi")
    mesh = grid.mesh
    # closed-form pointwise upper bound for the identity track, vectorized
    z = mesh - spec.delta(mesh)
    tv_cum = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(z)))))
    tv = np.abs(tv_cum[:, None] - tv_cum[None, :])
    kappa = np.maximum(mesh[:, None], mesh[None, :]) \
        - 0.5 * (tv + z[:, None] + z[None, :])
    bound = np.minimum(np.minimum(mesh[:, None], mesh[None, :]), kappa)
    bound_dev = float(np.abs(grid.values - bound).max())
    spot_ok = abs(pointwise_upper_bound(spec, 0.5, 0.6)
                  - bound[np.argmin(np.abs(mesh - 0.5)),
                          np.argmin(np.abs(mesh - 0.6))]) <= 1e-9
    degenerate = splice_grid(make_splice(low, low), spec.knots)
    degen_ok = check_grid(degenerate).copula_ok
    report(capsys, 10, "splice is the quasi-copula upper envelope",
           rep.quasi_ok and bound_dev <= 1e-9 and spot_ok and degen_ok)
