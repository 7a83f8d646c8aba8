"""A section's common knots, built once, against the merge they replaced.

make_diagonal and diagonal_conditions take delta's own knots and ordinates
when those already hold the track's knots, and merge and interpolate
otherwise. Either way the spec, the conditions and everything read off the
spec (band, quadruplets and region) must have the bits of
`reference_common_knots` and of per-term scalar evaluation; g and h are
held by test_kernels' `same_region` rule (within LEVEL_ULPS of the exact
inverse of the companion's suffix minimum). Point values, splits and bounds read
psi(x) + eta(y) off the quadruplet, and must be within POINT_QUERY_BOUND of
the per-term psi(x) - psi(w) + delta(w) and of the chi and xi split.
The cases put the track's knots on delta's, off them and within
INTERNAL_TOL of one; give delta knots closer than INTERNAL_TOL; and start
delta at -0.0, which make_pl accepts and merge_knots rewrites to +0.0.
On the identity track phi(u) is u itself, which must be np.interp's bits.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackcop import (
    DiagonalConditionViolated,
    blend,
    c_psi_value,
    diagonal_conditions,
    identity_track,
    make_diagonal,
    make_pl,
    make_track,
    pointwise_upper_bound,
    psi_bounds,
    quadruplet,
    region_functions,
    s_t_split,
)
from trackcop import trackmodel
from trackcop.funcspace import INTERNAL_TOL, PLFunction

from loop_reference import (
    reference_diagonal_conditions,
    reference_eval_scalar,
    reference_make_diagonal,
    reference_psi_bounds,
    reference_quadruplet,
    reference_region,
)
from test_kernels import POINT_QUERY_BOUND, jittered, same_bits, same_region

CASES = ["aligned", "off", "near", "close-delta", "negative-zero"]
NEAR = INTERNAL_TOL / 2


def mix_delta(u, p):
    d = 0.45 * np.minimum(u, p) + 0.35 * np.maximum(u + p - 1.0, 0.0) + 0.2 * u * p
    d[0], d[-1] = 0.0, 1.0
    return d


def case_section(case, identity, seed, n=400):
    """(delta, track) of one case: an admissible delta = C(x, phi(x)) on n-odd knots."""
    rng = np.random.default_rng([seed, int(identity), CASES.index(case)])
    tx = np.array([0.0, 1.0]) if identity else jittered(rng, 9)
    ty = tx.copy() if identity else jittered(rng, 9)
    u = np.union1d(jittered(rng, n), tx)
    d = mix_delta(u, np.interp(u, tx, ty))
    picks = rng.choice(np.arange(1, len(u) - 1), 3, replace=False)
    if case in ("off", "near"):
        # extra track knots on phi's own segments: mid-segment, or NEAR past a delta knot
        extra = (u[picks] + u[picks + 1]) / 2 if case == "off" else u[picks] + NEAR
        tx2 = np.union1d(tx, extra)
        tx, ty = tx2, np.interp(tx2, tx, ty)
    elif case == "close-delta":
        extra = u[picks] + NEAR
        u2 = np.union1d(u, extra)
        u, d = u2, np.interp(u2, u, d)
    elif case == "negative-zero":
        u = np.concatenate(([-0.0], u[1:]))
    track = identity_track() if len(tx) == 2 else make_track(make_pl(tx, ty))
    return make_pl(u, d), track


def bumped(delta, k):
    """delta raised at knot k past the slope bound of condition (d)."""
    y = delta.y.copy()
    y[k] += 0.05
    return make_pl(delta.x, y)


def same_conditions(new, ref):
    assert new.keys() == ref.keys() == set("abcd")
    for cond in "abcd":
        (ok, where), (ref_ok, ref_where) = new[cond], ref[cond]
        assert ok == ref_ok, cond
        assert (where is None) == (ref_where is None), cond
        if where is not None:
            assert same_bits(where, ref_where), cond


def assert_spec_is_reference(spec, ref):
    assert same_bits(spec.delta.x, ref.delta.x) and same_bits(spec.delta.y, ref.delta.y)
    assert same_bits(spec.phi_values(), ref.phi_values())
    assert not spec.phi_values().flags.writeable


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@pytest.mark.parametrize("case", CASES)
def test_spec_and_conditions_match_reference(case, identity, seed):
    delta, track = case_section(case, identity, seed)
    ref = reference_make_diagonal(delta, track)
    assert_spec_is_reference(make_diagonal(delta, track), ref)
    assert_spec_is_reference(make_diagonal(delta, track, validate=False), ref)
    if case == "negative-zero":
        assert np.signbit(delta.x[0]) and not np.signbit(make_diagonal(delta, track).knots[0])
    for tol in (0.0, 1e-9, 0.1):
        same_conditions(diagonal_conditions(delta, track, tol),
                        reference_diagonal_conditions(delta, track, tol))
    # a failing condition reports the reference's knot, and make_diagonal raises on it
    bad = bumped(delta, len(delta.x) // 2)
    conditions = diagonal_conditions(bad, track)
    same_conditions(conditions, reference_diagonal_conditions(bad, track, 1e-9))
    first = next(c for c in "abcd" if not conditions[c][0])
    with pytest.raises(DiagonalConditionViolated) as raised:
        make_diagonal(bad, track)
    assert raised.value.condition == first and same_bits(raised.value.where, conditions[first][1])
    assert_spec_is_reference(make_diagonal(bad, track, validate=False),
                             reference_make_diagonal(bad, track))


def ref_kappa(spec, psi, x, y):
    """psi(x) - psi(w) + delta(w), w = phi_inv(y), one np.interp call per term."""
    w = reference_eval_scalar(spec.track.phi_inv, y)
    return (reference_eval_scalar(psi, x) - reference_eval_scalar(psi, w)
            + reference_eval_scalar(spec.delta, w))


def close(value, expected):
    return abs(value - expected) <= POINT_QUERY_BOUND


def ref_candidate(spec, psi):
    parts, violation = reference_quadruplet(spec, psi, 1e-9)
    assert violation is None
    return SimpleNamespace(**{name: PLFunction(*xy) for name, xy in parts.items()})


def assert_candidate_is(candidate, ref):
    for name in ("psi", "chi", "eta", "xi"):
        f, g = getattr(candidate, name), getattr(ref, name)
        assert same_bits(f.x, g.x) and same_bits(f.y, g.y), name


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@pytest.mark.parametrize("case", CASES)
def test_everything_read_off_the_spec_matches_reference(case, identity, seed):
    delta, track = case_section(case, identity, seed)
    spec, ref = make_diagonal(delta, track), reference_make_diagonal(delta, track)
    bounds = psi_bounds(spec)
    ref_low, ref_up = reference_psi_bounds(ref)
    assert same_bits(bounds.psi_low.y, ref_low) and same_bits(bounds.psi_up.y, ref_up)
    ref_low, ref_up = PLFunction(ref.knots, ref_low), PLFunction(ref.knots, ref_up)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    mix = blend(low, up, 0.37)
    ref_mix_psi = PLFunction(ref.knots, 0.63 * ref_low.y + 0.37 * ref_up.y)
    # the blend again on knots of its own, which takes the merge path everywhere
    refined = np.union1d(spec.knots, [0.123, 0.456, 0.789])
    on_own_knots = PLFunction(refined, np.interp(refined, mix.psi.x, mix.psi.y))
    for cand, ref_psi in ((low, ref_low), (up, ref_up), (mix, ref_mix_psi),
                          (quadruplet(spec, on_own_knots), on_own_knots)):
        ref_cand = ref_candidate(ref, ref_psi)
        assert_candidate_is(cand, ref_cand)
        assert same_region(region_functions(spec, cand), reference_region(ref, ref_cand))
    rng = np.random.default_rng(seed)
    points = list(rng.random((40, 2))) + [(x, float(track.phi(x))) for x in spec.knots[::37]]
    for x, y in points:
        for px, py in ((float(x), float(y)), (np.float64(x), np.float64(y))):
            assert close(c_psi_value(spec, mix, px, py),
                         min(px, py, ref_kappa(ref, ref_mix_psi, px, py)))
            split = s_t_split(spec, mix, px, py)
            assert close(split["s"], min(reference_eval_scalar(ref_mix_psi, px),
                                         reference_eval_scalar(mix.chi, py)))
            assert close(split["t"], min(reference_eval_scalar(mix.xi, px),
                                         reference_eval_scalar(mix.eta, py)))
            expected = max(min(px, py, ref_kappa(ref, ref_low, px, py)),
                           min(px, py, ref_kappa(ref, ref_up, px, py)))
            assert close(pointwise_upper_bound(spec, px, py), expected)


# ---------------------------------------------------------------------------
# the knot-aligned path is taken


@pytest.fixture
def merge_calls(monkeypatch):
    """The number of merge_knots calls trackmodel has made, counted from here on."""
    calls = []
    real = trackmodel.merge_knots

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(trackmodel, "merge_knots", counting)
    return calls


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_aligned_section_builds_without_a_merge(identity, merge_calls):
    delta, track = case_section("aligned", identity, 0)
    spec = make_diagonal(delta, track)
    diagonal_conditions(delta, track)
    make_diagonal(delta, track, validate=False)
    assert merge_calls == []
    assert spec.knots is delta.x and spec.delta.y is delta.y


@pytest.mark.parametrize("case", [c for c in CASES if c != "aligned"])
def test_other_sections_take_the_merge(case, merge_calls):
    delta, track = case_section(case, False, 0)
    make_diagonal(delta, track, validate=False)
    diagonal_conditions(delta, track)
    assert len(merge_calls) == 2


# ---------------------------------------------------------------------------
# phi(u) = u on the identity track

IDENTITY_TRACKS = {
    "identity_track": identity_track(),
    "two-knot make_track": make_track(make_pl([0, 1], [0, 1])),
    # phi(0) = -0.0 is admitted, and there np.interp(+0.0) is -0.0, not u
    "negative-zero phi(0)": make_track(make_pl([-0.0, 1], [-0.0, 1])),
}
# near 0 and 1, subnormals among them; knots closer than INTERNAL_TOL merge
unit_knots = st.lists(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-13, 1.0 - 2.0**-53]),
    max_size=30, unique=True)


@pytest.mark.parametrize("track", IDENTITY_TRACKS, ids=str)
@given(interior=unit_knots, negative_zero=st.booleans())
@example(interior=[0.25, 0.5], negative_zero=False)  # the fast path
@example(interior=[5e-324, 0.5, 1.0 - 2.0**-53], negative_zero=False)
@example(interior=[0.5], negative_zero=True)
@settings(max_examples=60, deadline=None)
def test_identity_phi_values_hold_interp_bits(track, interior, negative_zero):
    track = IDENTITY_TRACKS[track]
    x = np.unique(np.concatenate(([0.0], interior, [1.0])))
    if negative_zero:
        x[0] = -0.0  # takes the merge path, which starts u at +0.0
    delta = make_pl(x, 0.5 * x)
    spec = make_diagonal(delta, track, validate=False)
    phi = spec.phi_values()
    assert same_bits(phi, np.interp(spec.knots, track.phi.x, track.phi.y))
    assert not np.signbit(spec.knots[0])
    if not np.signbit(track.phi.y[0]):
        assert phi is spec.knots and not np.signbit(phi[0])
    if spec.knots is delta.x:  # the fast path: no merge
        assert not negative_zero and np.all(np.diff(x) > INTERNAL_TOL)
