"""Differential tests: the vectorized 1-D kernels against the loops they replaced.

Witness pairs, psi_L and psi_U must be bit-identical to the loop versions in
loop_reference.py. g and h come from np.interp on the inverted companion's
suffix minimum, whose arithmetic rounds differently, and must be within
LEVEL_ULPS of the loop's formula taken exactly on that suffix minimum.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackcop import (
    BadMesh,
    PLFunction,
    SpecMismatch,
    blend,
    c_psi_value,
    eligibility_by_variation,
    eval_pl,
    existence_check,
    identity_track,
    make_diagonal,
    make_pl,
    make_track,
    merge_knots,
    psi_bounds,
    quadruplet,
    region_functions,
    s_t_split,
)
from trackcop.cli import main
from trackcop.construction import _rightmost_level, _validate_mesh
from trackcop.funcspace import INTERNAL_TOL, first_decrease

from loop_reference import (
    exact_rightmost_level,
    first_decrease_violation,
    first_increase_violation,
    first_knot_off_mesh,
    reference_eligibility_witness,
    reference_existence,
    reference_psi_bounds,
    reference_region,
    rightmost_level,
    suffix_minimum,
)

TOLS = st.sampled_from([0.0, 1e-9, 0.3])
ULP = 2.0 ** -52


# np.interp's slope * (c - lo) + x0 against x0 + (c - lo) * (x1 - x0) / (hi - lo) taken exactly
LEVEL_ULPS = 2

# A point query's psi(x) + eta(y) against the oracle's psi(x) - psi(w) + delta(w):
# an absolute bound on values in [0, 1], 4 ulps of 1.
POINT_QUERY_BOUND = 4 * ULP


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def ulps_apart(a, b):
    """Elementwise number of floats from a to b; +0.0 and -0.0 are one float."""
    def ordered(v):
        i = np.asarray(v, dtype=float).view(np.int64)
        return np.where(i < 0, -(i & np.int64(0x7FFFFFFFFFFFFFFF)), i)
    return np.abs(ordered(a) - ordered(b))


def same_level_inverse(new, expected):
    """new is within LEVEL_ULPS of the exact level inverse expected."""
    return bool(np.all(ulps_apart(new, expected) <= LEVEL_ULPS))


def same_region(region, reference):
    """g and h of region_functions against reference_region's: psi's abscissas, same_level_inverse values."""
    return all(same_bits(new.x, old.x) and same_level_inverse(new.y, old.y)
               for new, old in ((region["g"], reference[0]), (region["h"], reference[1])))


def nudge(value, ulps):
    """value moved by `ulps` representable floats."""
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.copysign(np.inf, ulps))
    return float(value)


# Few distinct levels, so ties and flat runs are common; each value may be
# nudged by a few ulps, so near-ties are too.
tie_prone_value = st.builds(
    nudge,
    st.sampled_from([-1.0, -0.3, 0.0, 0.1, 0.2, 0.3, 0.6, 1.0]),
    st.integers(-3, 3),
)
values_strategy = st.lists(tie_prone_value | st.floats(-2.0, 2.0), min_size=1, max_size=40)


@given(values_strategy, TOLS)
@settings(max_examples=500, deadline=None)
def test_first_decrease_matches_loops(values, tol):
    values = np.array(values)
    knots = np.linspace(0.0, 1.0, len(values))
    assert first_decrease(values, knots, tol) == first_decrease_violation(values, knots, tol)
    assert first_decrease(-values, knots, tol) == first_increase_violation(values, knots, tol)


def test_first_decrease_picks_latest_running_maximum():
    knots = np.linspace(0.0, 1.0, 6)
    # running maximum 0.5 is attained at indices 1 and 3; index 4 falls below it
    assert first_decrease([0.0, 0.5, 0.45, 0.5, 0.1, 0.9], knots, 0.1) == (knots[3], knots[4])
    assert first_decrease([0.0, 0.5, 0.5, 0.6], knots[:4], 0.0) is None
    assert first_decrease([0.0, 0.5, 0.45], knots[:3], 0.1) is None
    assert first_decrease([0.2], knots[:1], 0.0) is None


@st.composite
def level_problem(draw):
    """Strictly increasing knots, levels, and values that are nearly increasing
    (flat runs, ulp dips) or, in half the draws, also fall by steps of up to 1.

    In half the draws the rises are instead 0 or a few subnormals, with no
    dips, so that np.interp's slope overflows on them; a level may lie one
    float above a value, so inside such a rise.
    """
    n = draw(st.integers(2, 25))
    falls = [-1e-9, -0.25, -1.0] if draw(st.booleans()) else []
    subnormal = draw(st.booleans())
    rises = [0.0, 5e-324, 1.5e-323] if subnormal else [0.0, 0.0, 0.1, 0.25, 1.0]
    steps = draw(st.lists(st.sampled_from(rises + falls), min_size=n - 1, max_size=n - 1))
    vals = np.concatenate(([0.0], np.cumsum(steps)))
    if not subnormal:
        dips = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        vals = vals + np.array(dips) * ULP * np.maximum(np.abs(vals), 1e-3)
    knots = np.linspace(0.0, 1.0, n)
    at_value = st.sampled_from(list(vals))
    above_value = at_value.map(lambda v: float(np.nextafter(v, np.inf)))
    levels = draw(st.lists(at_value | above_value | st.floats(vals.min() - 0.5, vals.max() + 0.5),
                           min_size=1, max_size=30))
    if draw(st.booleans()):
        levels = sorted(levels)
    return knots, vals, np.array(levels)


@given(level_problem())
@example((np.linspace(0.0, 1.0, 16),
          np.array([0.0] + [ULP * 1e-3] * 3 + [0.1] * 12),
          np.array([2.22507386e-309])))
@settings(max_examples=500, deadline=None)
def test_rightmost_level_matches_scalar_loop(problem):
    # The float loop is no yardstick: in the example its (c - lo) * (x1 - x0)
    # underflows to a subnormal and lands 83 ulps from the exact inverse, and
    # np.interp lands within one. So np.interp is held to the loop's formula
    # taken exactly, on the suffix minimum of vals.
    knots, vals, levels = problem
    suffix_min = suffix_minimum(vals)
    expected = [exact_rightmost_level(knots, suffix_min, c) for c in levels]
    assert same_level_inverse(_rightmost_level(knots, vals, levels), expected)


@pytest.mark.parametrize("n_levels", [3, 40], ids=["levels-fewer-than-knots", "levels-more"])
def test_rightmost_level_ties_and_ends_are_exact(n_levels):
    # np.interp(levels, vals, knots) on nondecreasing vals, which numpy does not
    # document: a flat run gives its last knot, a level equal to a value gives
    # that value's knot (the last of its run), and levels below vals[0] or at
    # or above vals[-1] give knots[0] or knots[-1]. Eight knots take np.interp's
    # bisection, not its linear scan of four or fewer; more levels than knots
    # take its precomputed slopes, which are infinite on the flat runs.
    knots = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.85, 1.0])
    vals = np.array([0.2, 0.2, 0.2, 0.4, 0.7, 0.7, 0.9, 0.9])
    cases = {0.2: 0.25, 0.4: 0.3, 0.7: 0.6, 0.9: 1.0, -1.0: 0.0, 0.1: 0.0,
             np.nextafter(0.2, 0.0): 0.0, 0.95: 1.0, 5.0: 1.0}
    rng = np.random.default_rng(n_levels)
    for order in (np.arange, rng.permutation):
        idx = order(len(cases))
        levels = np.resize(np.array(list(cases))[idx], n_levels)
        expected = np.resize(np.array(list(cases.values()))[idx], n_levels)
        assert same_bits(np.interp(levels, vals, knots), expected)
        assert same_bits(_rightmost_level(knots, vals, levels), expected)
        assert same_bits([rightmost_level(knots, vals, c) for c in levels], expected)


def test_rightmost_level_is_the_last_knot_at_or_below_the_level():
    # f(1) = 1 <= 3.5, so the largest y with f(y) <= 3.5 is 1, however far
    # f rises above 3.5 before it; on the suffix minimum [0, 1, 1] the level
    # 0.5 lies on the first segment.
    knots = np.array([0.0, 0.5, 1.0])
    vals = np.array([0.0, 5.0, 1.0])
    assert same_bits(_rightmost_level(knots, vals, np.array([0.5, 3.5])), [0.25, 1.0])


@given(level_problem())
@settings(max_examples=500, deadline=None)
def test_rightmost_level_lies_after_the_last_knot_at_or_below_the_level(problem):
    # j, the last index with vals[j] <= c, is the definition's answer at the
    # knots; between knots[j] and knots[j + 1] f crosses c. np.interp's
    # slope * (c - lo) + x0 may round past either end, by up to LEVEL_ULPS.
    knots, vals, levels = problem
    out = _rightmost_level(knots, vals, levels)
    for c, y in zip(levels, out):
        at_or_below = np.flatnonzero(vals <= c)
        if len(at_or_below) == 0:
            assert y == knots[0]
        elif at_or_below[-1] == len(vals) - 1:
            assert y == knots[-1]
        else:
            j = at_or_below[-1]
            assert ulps_apart(y, np.clip(y, knots[j], knots[j + 1])) <= LEVEL_ULPS


def test_rightmost_level_on_a_subnormal_rise_stays_on_its_segment():
    # np.interp's slope (x1 - x0) / (hi - lo) overflows to inf on this rise
    # of two subnormals; the answer is taken again with the ratio first.
    y = _rightmost_level(np.array([0.0, 1.0]), np.array([-5e-324, 5e-324]), np.array([0.0]))
    assert same_bits(y, [0.5])


def test_mesh_knot_check_matches_loop():
    # knots on a mesh line, INTERNAL_TOL = 1e-12 from one, a few ulps beyond that,
    # 2e-12 away, or anywhere; the verdict and the first offending knot must agree
    rng = np.random.default_rng(41)
    offsets = [0.0, 0.0, 0.0, 1e-12, -1e-12, 1e-12 + 4 * ULP, -1e-12 - 4 * ULP, 2e-12]
    seen = set()
    for _ in range(400):
        mesh = np.unique(np.concatenate(([0.0, 1.0], rng.random(rng.integers(1, 40)))))
        knots = rng.choice(mesh, 6) + rng.choice(offsets, 6)
        if rng.random() < 0.2:
            knots[rng.integers(6)] = rng.random()
        knot = first_knot_off_mesh(mesh, knots)
        expected = None if knot is None else f"mesh must include knot {knot}"
        try:
            _validate_mesh(mesh, knots)
            message = None
        except BadMesh as exc:
            message = str(exc)
        assert message == expected
        seen.add(message is None)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# whole sections at benchmark-like sizes


def jittered(rng, n):
    base = np.arange(n, dtype=float)
    base[1:-1] += 0.8 * (rng.random(n - 2) - 0.5)
    return base / (n - 1)


def section(rng, n, identity, bumped=False):
    """Admissible diagonal delta = C(x, phi(x)) for a mix of M, W and Pi.

    The W share leaves delta flat where x + phi(x) <= 1, which gives chi and
    eta flat stretches. `bumped` raises one knot past the slope bound.
    """
    if identity:
        track = identity_track()
        tx = np.array([0.0, 1.0])
    else:
        tx, ty = jittered(rng, 9), jittered(rng, 9)
        track = make_track(make_pl(tx, ty))
    u = np.union1d(jittered(rng, n), tx)
    p = track.phi(u)
    d = 0.45 * np.minimum(u, p) + 0.35 * np.maximum(u + p - 1.0, 0.0) + 0.2 * u * p
    d[0], d[-1] = 0.0, 1.0
    if bumped:
        k = len(u) // 3
        d[k] += (u[k] - u[k - 1]) + (p[k] - p[k - 1]) - (d[k] - d[k - 1]) + 1e-3
    return make_diagonal(make_pl(u, d), track, validate=not bumped)


def assert_existence_matches(spec, tol=1e-9):
    result = existence_check(spec, tol=tol)
    w_var, w_lip = reference_existence(spec, tol)
    assert result.variational_ok == (w_var is None)
    assert result.lipschitz_ok == (w_lip is None)
    assert result.exists == (w_var is None)
    assert result.witness == (w_var or w_lip)
    return result


@pytest.mark.parametrize("n", [1_000, 30_000])
@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_large_sections_match_loops(n, identity):
    rng = np.random.default_rng([n, int(identity)])
    spec = section(rng, n, identity)
    assert assert_existence_matches(spec).exists

    bounds = psi_bounds(spec)
    low, up = reference_psi_bounds(spec)
    assert same_bits(bounds.psi_low.y, low) and same_bits(bounds.psi_up.y, up)

    c_low = quadruplet(spec, bounds.psi_low)
    c_up = quadruplet(spec, bounds.psi_up)
    mix = blend(c_low, c_up, 0.37)
    for cand in (c_low, c_up, mix):
        assert same_region(region_functions(spec, cand), reference_region(spec, cand))

    assert eligibility_by_variation(spec, mix.psi).witness is None
    for shift in (0.01, -0.01):
        vals = mix.psi.y.copy()
        vals[len(vals) // 2:] += shift
        psi = PLFunction(mix.psi.x, vals)
        result = eligibility_by_variation(spec, psi)
        witness = reference_eligibility_witness(spec, psi, 1e-9)
        assert witness is not None
        assert result.witness == witness and not result.eligible

    # scalar evaluation reads only the segment around the point
    for t in np.concatenate((rng.random(50), mix.psi.x[::max(1, n // 50)])):
        expected = np.interp(t, mix.psi.x.copy(), mix.psi.y.copy())
        assert eval_pl(mix.psi, t) == expected and eval_pl(mix.psi, float(t)) == expected

    bumped = section(rng, n, identity, bumped=True)
    result = assert_existence_matches(bumped)
    assert not result.exists and not result.lipschitz_ok


def test_diagonal_spec_and_track_stay_frozen(w_spec):
    with pytest.raises(dataclasses.FrozenInstanceError):
        w_spec.delta = w_spec.track.phi
    with pytest.raises(dataclasses.FrozenInstanceError):
        w_spec.track.phi = w_spec.track.phi_inv
    # the cached arrays are computed once and cannot be written through
    assert w_spec.phi_values() is w_spec.phi_values()
    with pytest.raises(ValueError):
        w_spec.phi_values()[0] = 1.0


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_point_queries_refuse_a_foreign_spec(identity):
    rng = np.random.default_rng([7, int(identity)])
    a, b = section(rng, 200, identity), section(rng, 200, identity)
    candidate = quadruplet(a, psi_bounds(a).psi_low)
    for query in (c_psi_value, s_t_split):
        with pytest.raises(SpecMismatch):
            query(b, candidate, 0.3, 0.6)
        # a spec with the candidate's knot data is its own
        twin = make_diagonal(a.delta, a.track)
        assert query(twin, candidate, 0.3, 0.6) == query(a, candidate, 0.3, 0.6)


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_region_functions_refuses_a_foreign_spec(identity):
    # as the point queries do; it used to give the region of the candidate's
    # own spec whatever spec it was handed
    rng = np.random.default_rng([8, int(identity)])
    a, b = section(rng, 200, identity), section(rng, 200, identity)
    candidate = quadruplet(a, psi_bounds(a).psi_low)
    with pytest.raises(SpecMismatch):
        region_functions(b, candidate)
    own = region_functions(a, candidate)
    twin = region_functions(make_diagonal(a.delta, a.track), candidate)
    assert all(same_bits(twin[k].y, own[k].y) for k in ("g", "h"))


# ---------------------------------------------------------------------------
# the band at exact-tol ties

TIE_X = [0.0, 0.55, 0.595, 0.64, 0.685, 0.73, 0.775, 0.82, 0.865, 0.91, 0.955, 1.0]
# slope 1/0.45 on [0.55, 1]: the gap psi_U - psi_L falls by 0.01 per segment, so
# at TIE_TOL the second segment's fall equals TIE_TOL + INTERNAL_TOL, the
# threshold of a monotone test, and rounding decides
TIE_SPEC = {"track": "identity",
            "diagonal": {"x": TIE_X, "y": [0.0, 0.0] + [(x - 0.55) / 0.45 for x in TIE_X[2:]]}}
TIE_TOL = 0.019999999999  # 0.02 - INTERNAL_TOL


def test_existence_at_exact_tol_tie_matches_reference():
    assert TIE_TOL == 0.02 - INTERNAL_TOL
    diagonal = TIE_SPEC["diagonal"]
    spec = make_diagonal(make_pl(diagonal["x"], diagonal["y"]), identity_track(), tol=TIE_TOL)
    result = existence_check(spec, tol=TIE_TOL)
    w_var, _ = reference_existence(spec, TIE_TOL)
    assert result.witness == w_var == (0.55, 0.64)
    # where the copula exists, psi_L and psi_U are the reference's bits
    bounds = psi_bounds(spec, tol=0.2)
    low, up = reference_psi_bounds(spec)
    assert same_bits(bounds.psi_low.y, low) and same_bits(bounds.psi_up.y, up)


def test_bounds_cli_at_exact_tol_tie_exits_1_and_writes_nothing(tmp_path, capsys):
    spec_path = tmp_path / "tie.json"
    spec_path.write_text(json.dumps(TIE_SPEC))
    out = tmp_path / "out"
    assert main(["bounds", str(spec_path), "--tol", repr(TIE_TOL), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(0.55, 0.64)" in err
    assert not out.exists()


def drops(values):
    """How far each value falls below the running maximum before it."""
    values = np.asarray(values, dtype=float)
    return np.maximum.accumulate(values)[:-1] - values[1:]


def reference_sequences(spec, psi):
    """psi - V-(phi - delta) and x - V+(zeta) - psi on the merged knots, as the loops built them."""
    u = merge_knots(spec.knots, psi.x)
    psi_u, delta_u, phi_u = eval_pl(psi, u), eval_pl(spec.delta, u), eval_pl(spec.track.phi, u)
    dd, dp, du = np.diff(delta_u), np.diff(phi_u), np.diff(u)
    cum_vm = np.concatenate(([0.0], np.cumsum(np.maximum(dd - dp, 0.0))))
    cum_vp = np.concatenate(([0.0], np.cumsum(np.maximum(du - dd, 0.0))))
    return psi_u - cum_vm, u - cum_vp - psi_u


def wobbly_psi(rng, spec, knots, monotone=False):
    """psi_L + w (psi_U - psi_L) with a random weight w per knot: mostly ineligible.

    A nondecreasing w keeps psi - psi_L nondecreasing, so only the upper
    bound can fail.
    """
    bounds = psi_bounds(spec)
    low, up = eval_pl(bounds.psi_low, knots), eval_pl(bounds.psi_up, knots)
    w = np.clip(np.linspace(0.0, 1.0, len(knots)) + 0.2 * rng.standard_normal(len(knots)), 0, 1)
    if monotone:
        w = np.sort(w)
    y = low + w * (up - low)
    y[0] = 0.0
    return PLFunction(knots, y)


@pytest.mark.parametrize("monotone", [False, True], ids=["any-weight", "rising-weight"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_spec_knot_eligibility_ties_match_reference(seed, identity, monotone):
    rng = np.random.default_rng([seed, int(identity), 7])
    spec = section(rng, 200, identity)
    psi = wobbly_psi(rng, spec, spec.knots, monotone)
    for seq in reference_sequences(spec, psi):
        # the tie: the largest drop at the threshold tol + INTERNAL_TOL
        tie = float(drops(seq).max()) - INTERNAL_TOL
        if tie <= 0.0:
            continue
        for tol in (tie, float(np.nextafter(tie, 0.0)), float(np.nextafter(tie, 1.0))):
            result = eligibility_by_variation(spec, psi, tol=tol)
            witness = reference_eligibility_witness(spec, psi, tol)
            assert result.witness == witness and result.eligible == (witness is None)


@pytest.mark.parametrize("monotone", [False, True], ids=["any-weight", "rising-weight"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_foreign_knot_eligibility_matches_reference_away_from_ties(seed, identity, monotone):
    rng = np.random.default_rng([seed, int(identity), 11])
    spec = section(rng, 300, identity)
    knots = jittered(rng, int(rng.integers(20, 400)))
    psi = wobbly_psi(rng, spec, knots, monotone)
    all_drops = np.concatenate([drops(seq) for seq in reference_sequences(spec, psi)])
    largest = float(all_drops.max())
    checked = 0
    for tol in (0.0, 1e-9, 0.5 * largest, largest, 2.0 * largest,
                *rng.choice(all_drops[all_drops > 0.0], 5)):
        # a knot whose drop is within 1e-13 of the threshold tol + INTERNAL_TOL
        # is a tie that rounding decides
        if np.min(np.abs(all_drops - (tol + INTERNAL_TOL))) <= 1e-13:
            continue
        result = eligibility_by_variation(spec, psi, tol=tol)
        witness = reference_eligibility_witness(spec, psi, tol)
        assert result.witness == witness and result.eligible == (witness is None)
        checked += 1
    assert checked >= 3
