"""Differential tests: the vectorized 1-D kernels against the loops they replaced.

Witness pairs, psi_L, psi_U, g and h must be bit-identical to the loop
versions in loop_reference.py.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcop import (
    PLFunction,
    blend,
    eligibility_by_variation,
    eval_pl,
    existence_check,
    identity_track,
    make_diagonal,
    make_pl,
    make_track,
    psi_bounds,
    quadruplet,
    region_functions,
)
from trackcop.construction import _rightmost_level
from trackcop.funcspace import first_decrease

from loop_reference import (
    first_decrease_violation,
    first_increase_violation,
    reference_eligibility_witness,
    reference_existence,
    reference_psi_bounds,
    reference_region,
    rightmost_level,
)

TOLS = st.sampled_from([0.0, 1e-9, 0.3])
ULP = 2.0 ** -52


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


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
    """Strictly increasing knots, nearly increasing values (flat runs, ulp dips), levels."""
    n = draw(st.integers(2, 25))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0]), min_size=n - 1,
                          max_size=n - 1))
    vals = np.concatenate(([0.0], np.cumsum(steps)))
    dips = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    vals = vals + np.array(dips) * ULP * np.maximum(np.abs(vals), 1e-3)
    knots = np.linspace(0.0, 1.0, n)
    levels = draw(st.lists(st.sampled_from(list(vals)) | st.floats(-0.5, vals[-1] + 0.5),
                           min_size=1, max_size=30))
    if draw(st.booleans()):
        levels = sorted(levels)
    return knots, vals, np.array(levels)


@given(level_problem())
@settings(max_examples=500, deadline=None)
def test_rightmost_level_matches_scalar_loop(problem):
    knots, vals, levels = problem
    expected = [rightmost_level(knots, vals, c) for c in levels]
    assert same_bits(_rightmost_level(knots, vals, levels), expected)


def test_rightmost_level_unsorted_values_follow_the_scalar_search():
    # The array form of np.searchsorted starts the second search at the first
    # one's result and returns 3 here; a search per level returns 1.
    knots = np.array([0.0, 0.5, 1.0])
    vals = np.array([0.0, 5.0, 1.0])
    levels = np.array([0.5, 3.5])
    assert list(np.searchsorted(vals, levels, side="right")) == [1, 3]
    expected = [rightmost_level(knots, vals, c) for c in levels]
    assert same_bits(_rightmost_level(knots, vals, levels), expected)


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
        region = region_functions(spec, cand)
        g, h = reference_region(spec, cand)
        assert same_bits(region["g"].y, g.y) and same_bits(region["h"].y, h.y)

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
        w_spec.delta = w_spec.zeta
    with pytest.raises(dataclasses.FrozenInstanceError):
        w_spec.zeta_zeros = np.array([0.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        w_spec.track.is_identity = False
    # the cached arrays are computed once and cannot be written through
    assert w_spec.phi_values() is w_spec.phi_values()
    assert w_spec.zeta_zeros is w_spec.zeta_zeros
    with pytest.raises(ValueError):
        w_spec.phi_values()[0] = 1.0
    with pytest.raises(ValueError):
        w_spec.zeta_zeros[0] = 1.0
