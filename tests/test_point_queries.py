"""Per-point queries against the code they replaced, and the per-spec memos.

quadruplet and blend on spec-knot psi, and the scalar eval_pl must give the
bits of the oracles in loop_reference.py; its knot search must be
bisect_right's, on knots spread however unevenly. The point queries read
C_psi = min(x, y, psi(x) + eta(y)) off the quadruplet with two knot
searches, one at x and one at y, which the upper bound's two C_psi share:
they must give the bits of that form in np.interp, and agree with the
oracle's psi(x) - psi(w) + delta(w) to POINT_QUERY_BOUND.
Where the oracle takes the identity track's closed form, the bound must
agree with it to CLOSED_FORM_BOUND instead.
The memos on a DiagonalSpec must hold no reference back to it, so a spec
is freed by reference counting alone.
"""

import bisect
import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackcop import (
    IneligiblePsi,
    NoCopulaExists,
    OutOfDomain,
    PLFunction,
    blend,
    c_psi_value,
    eligibility_by_variation,
    eval_pl,
    existence_check,
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
from trackcop import funcspace
from trackcop.construction import _rightmost_level

from loop_reference import (
    is_identity_track,
    reference_blend_psi,
    reference_eval_scalar,
    reference_existence,
    reference_pointwise_upper_bound,
    reference_quadruplet,
)
from strategies import knot_positions, sections, sections_with_points, tracks
from test_kernels import POINT_QUERY_BOUND, TIE_SPEC, TIE_TOL, section, same_bits

# The band's formula and the identity closed form round differently; this
# is an absolute bound on values in [0, 1], a few ulps of 1.
CLOSED_FORM_BOUND = 1e-15


def outcome(call, *args):
    """(value bits, None) or (None, exception type and message) of a call."""
    try:
        value = call(*args)
    except (NoCopulaExists, IneligiblePsi) as exc:
        return None, (type(exc), str(exc))
    return np.float64(value).tobytes(), None


def assert_bound_is_reference(spec, x, y):
    """pointwise_upper_bound raises as the oracle does, or is within POINT_QUERY_BOUND of its value.

    The oracle takes the closed form wherever the track's knots lie on the
    main diagonal, which Hypothesis's general tracks can also draw.
    """
    new = outcome(pointwise_upper_bound, spec, x, y, 1e-9)
    ref = outcome(reference_pointwise_upper_bound, spec, x, y, 1e-9)
    assert new[1] == ref[1]
    if new[1] is None:
        bound = CLOSED_FORM_BOUND if is_identity_track(spec.track) else POINT_QUERY_BOUND
        assert abs(np.frombuffer(new[0])[0] - np.frombuffer(ref[0])[0]) <= bound
    return new


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_pointwise_upper_bound_matches_reference(identity, data):
    spec, points = data.draw(sections_with_points(identity))
    for x, y in points:
        for px, py in ((x, y), (np.float64(x), np.float64(y))):
            assert assert_bound_is_reference(spec, px, py)[1] is None


@given(sections(bumped=True), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_pointwise_upper_bound_on_bumped_section_raises_like_reference(spec, x, y):
    with pytest.raises(NoCopulaExists):
        reference_pointwise_upper_bound(spec, x, y, 1e-9)
    for _ in range(2):  # the second call reads the memoized verdict
        with pytest.raises(NoCopulaExists):
            pointwise_upper_bound(spec, x, y)


def decreasing_delta_spec():
    """A validate=False spec on a general track whose delta dips by 0.05.

    At tol 0.1 the band's gap may fall by that much, so existence holds; but
    the quadruplet of psi_L is tested at the default tol, and psi_U - psi_L
    falls where delta does.
    """
    track = make_track(make_pl([0.0, 0.5, 1.0], [0.0, 0.3, 1.0]))
    delta = make_pl([0.0, 0.4, 0.5, 1.0], [0.0, 0.2, 0.15, 1.0])
    return make_diagonal(delta, track, validate=False)


def test_pointwise_upper_bound_raises_ineligible_on_decreasing_delta():
    spec = decreasing_delta_spec()
    assert existence_check(spec, tol=0.1).exists and not existence_check(spec).exists
    assert not quadruplet(spec, psi_bounds(spec, tol=0.1).psi_low).eligible
    with pytest.raises(IneligiblePsi) as expected:
        reference_pointwise_upper_bound(spec, 0.45, 0.6, 0.1)
    for x, y in ((0.45, 0.6), (0.9, 0.1)):
        with pytest.raises(IneligiblePsi) as raised:
            pointwise_upper_bound(spec, x, y, tol=0.1)
        assert str(raised.value) == str(expected.value) == "psi_U - psi decreasing on [0.4, 0.5]"
    with pytest.raises(NoCopulaExists):
        pointwise_upper_bound(spec, 0.45, 0.6)


def assert_candidate_is_reference(spec, candidate, psi, tol=1e-9):
    parts, violation = reference_quadruplet(spec, psi, tol)
    for name, (x, y) in parts.items():
        f = getattr(candidate, name)
        assert same_bits(f.x, x) and same_bits(f.y, y), name
    assert candidate.violation == violation
    assert candidate.eligible == (violation is None)


class Pinned:
    """Stands in for st.data() in an @example: draw() gives back the pinned value."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


# psi_U - psi is exactly 0 at 1/6 for the 7-knot psi sampled from psi_U; a
# band summed anew on the merged knots rounds it below 0 and moves the
# witness's left end from 1/6 to 0.
EXACT_TIE_SPEC = make_diagonal(make_pl([0.0, 0.2, 0.5, 1.0], [0.0, 1 / 30, 0.1875, 1.0]),
                               make_track(make_pl([0.0, 0.2, 1.0], [0.0, 1 / 3, 1.0])))


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data(), t=st.floats(0.0, 1.0), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
@example(data=Pinned(EXACT_TIE_SPEC), t=1.0, tol=0.0)
@settings(max_examples=100, deadline=None)
def test_spec_knot_quadruplet_and_blend_match_merge_path(identity, data, t, tol):
    spec = data.draw(sections(identity))
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low, tol), quadruplet(spec, bounds.psi_up, tol)
    assert_candidate_is_reference(spec, low, bounds.psi_low, tol)
    assert_candidate_is_reference(spec, up, bounds.psi_up, tol)
    mix = blend(low, up, t)
    ref_psi = reference_blend_psi(low.psi, up.psi, t)
    assert_candidate_is_reference(spec, mix, ref_psi)
    # knots equal to the spec's but another array, and an ineligible spec-knot psi
    wobbly = PLFunction(spec.knots.copy(), np.concatenate(([0.0], np.cumsum(
        np.where(np.arange(len(spec.knots) - 1) % 2, 1.5, -0.5) * np.diff(mix.psi.y)))))
    assert_candidate_is_reference(spec, quadruplet(spec, wobbly, tol), wobbly, tol)
    # a psi on other knots still takes the merge path
    foreign = PLFunction(np.linspace(0.0, 1.0, 7), eval_pl(mix.psi, np.linspace(0.0, 1.0, 7)))
    assert_candidate_is_reference(spec, quadruplet(spec, foreign, tol), foreign, tol)
    assert_candidate_is_reference(spec, blend(mix, quadruplet(spec, foreign), t),
                                  reference_blend_psi(mix.psi, quadruplet(spec, foreign).psi, t))


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_large_section_fast_paths_match_merge_path(identity):
    rng = np.random.default_rng([3, int(identity)])
    spec = section(rng, 30_000, identity)
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    mix = blend(low, up, 0.37)
    for cand, psi in ((low, bounds.psi_low), (up, bounds.psi_up),
                      (mix, reference_blend_psi(low.psi, up.psi, 0.37))):
        assert_candidate_is_reference(spec, cand, psi)
        assert eligibility_by_variation(spec, cand.psi).eligible
    for x, y in rng.random((20, 2)):
        assert_bound_is_reference(spec, x, y)


# ---------------------------------------------------------------------------
# scalar eval_pl


def probe_points(x):
    """Every knot, its two float neighbours inside [0, 1], and the ends."""
    pts = np.concatenate((x, np.nextafter(x, 0.0), np.nextafter(x, 1.0), [0.0, 1.0]))
    return pts[(pts >= 0.0) & (pts <= 1.0)]


def assert_scalar_eval_is_interp(f, points):
    x, y = f.x.copy(), f.y.copy()
    for t in points:
        expected = np.float64(np.interp(t, x, y)).tobytes()
        assert np.float64(reference_eval_scalar(f, t)).tobytes() == expected
        for arg in (float(t), np.float64(t)):
            value = eval_pl(f, arg)
            assert type(value) is float and np.float64(value).tobytes() == expected
    for t in (0, 1):
        value = eval_pl(f, t)
        assert type(value) is float and value == np.interp(t, x, y)


@given(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=30),
       st.lists(st.floats(-1e3, 1e3), min_size=32, max_size=32))
@settings(max_examples=300, deadline=None)
def test_scalar_eval_pl_matches_interp(interior, values):
    x = np.unique(np.concatenate(([0.0], interior, [1.0])))
    f = PLFunction(x, values[:len(x)])
    assert_scalar_eval_is_interp(f, np.concatenate((probe_points(x), np.linspace(0, 1, 17))))


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_scalar_eval_pl_matches_interp_on_large_sections(identity):
    rng = np.random.default_rng([5, int(identity)])
    spec = section(rng, 30_000, identity)
    low = psi_bounds(spec).psi_low
    for f in (spec.delta, low, spec.track.phi_inv):
        picks = f.x[rng.integers(0, len(f.x), 300)]
        assert_scalar_eval_is_interp(f, np.concatenate((probe_points(picks), rng.random(300))))


def test_scalar_eval_pl_follows_interp_on_infinite_ordinates():
    # slope * (t - x0) + y0 is NaN here; np.interp retries from the right end
    f = PLFunction([0.0, 0.5, 1.0], [0.0, np.inf, np.inf])
    for t in (0.25, 0.5, 0.75, 1.0):
        assert same_bits(eval_pl(f, t), np.interp(t, f.x.copy(), f.y.copy()))


@st.composite
def adversarial_knots(draw):
    """Sorted knots on which the search's first guess, at t's proportional place, often misses.

    Clustered knots (all in [0, 1e-3], then 1), geometric spacing, two
    knots, a general track's image phi(u) of spread knots, and knots that
    start above 0, so above some of the points searched.
    """
    kind = draw(st.sampled_from(["clustered", "geometric", "two", "track-image", "late-start"]))
    if kind == "clustered":
        return np.append(np.unique(draw(st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=30))),
                         1.0)
    if kind == "geometric":
        start = 2.0 ** -draw(st.integers(1, 1000))
        return np.unique(np.append(0.0, np.geomspace(start, 1.0, draw(st.integers(1, 60)))))
    if kind == "two":
        lo = draw(st.floats(0.0, 1.0, exclude_max=True))
        return np.array([lo, draw(st.floats(lo, 1.0, exclude_min=True))])
    if kind == "track-image":
        return np.unique(draw(tracks(False)).phi(draw(knot_positions(draw(st.integers(2, 80))))))
    return np.unique(draw(st.lists(st.floats(0.5, 1.0), min_size=2, max_size=30, unique=True)))


@given(adversarial_knots(), st.data())
@settings(max_examples=300, deadline=None)
def test_knot_search_is_bisect_right_and_the_evaluator_is_interp(x, data):
    ordinates = st.floats(-1e3, 1e3) | st.sampled_from([np.inf, -np.inf])
    f = PLFunction(x, data.draw(st.lists(ordinates, min_size=len(x), max_size=len(x))))
    xs, listed = f._views[0], x.tolist()
    for t in np.concatenate((probe_points(x), [0.0, -0.0, 1.0])):
        t = float(t)
        assert funcspace._knot_search(xs, t) == bisect.bisect_right(listed, t)
        assert same_bits(f._point(t), np.interp(t, x, f.y.copy()))


def test_pl_function_pickles_and_copies_after_scalar_eval():
    f = make_pl([0.0, 0.3, 1.0], [0.0, 0.5, 1.0])
    assert eval_pl(f, 0.2) == np.interp(0.2, f.x, f.y)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert same_bits(g.x, f.x) and same_bits(g.y, f.y)
        assert not (g.x.flags.writeable or g.y.flags.writeable)  # locked again, with new aliases
        assert g._wx.flags.writeable and g._wy.flags.writeable
        assert eval_pl(g, 0.2) == eval_pl(f, 0.2)


# ---------------------------------------------------------------------------
# point queries: two searches a query, the bits of the batch form


@pytest.fixture
def searches(monkeypatch):
    """The knot searches the scalar evaluators have made, counted from here on.

    Counted at the one search routine, funcspace._knot_search, whether its
    first guess hits or it bisects.
    """
    calls = []
    search = funcspace._knot_search

    def counting(xs, t):
        calls.append(t)
        return search(xs, t)

    monkeypatch.setattr(funcspace, "_knot_search", counting)
    return calls


def interp(f, t):
    return np.interp(t, f.x, f.y)


def probe_pairs(cand, rng, extra):
    """(x, y) pairs covering probe_points of psi's knots in x and of eta's in y, and random points."""
    xs = np.concatenate((probe_points(cand.psi.x), extra[:, 0]))
    ys = np.concatenate((probe_points(cand.eta.x), extra[:, 1]))
    n = max(len(xs), len(ys))
    return zip(xs[rng.permutation(n) % len(xs)], ys[rng.permutation(n) % len(ys)])


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data(), t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       extra=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_scalar_point_queries_are_the_batch_form(identity, data, t, seed, extra):
    spec = data.draw(sections(identity))
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    mix = blend(low, up, t)
    # the blend again on knots of its own, which quadruplet merges with the spec's
    own = np.union1d(spec.knots, np.linspace(0.051, 0.951, 7))
    on_own_knots = quadruplet(spec, PLFunction(own, interp(mix.psi, own)))
    assert mix.psi.x is spec.knots and on_own_knots.psi.x is not spec.knots
    rng = np.random.default_rng(seed)
    for cand in (mix, on_own_knots):
        assert cand.eligible
        for x, y in probe_pairs(cand, rng, np.array(extra)):
            for px, py in ((float(x), float(y)), (np.float64(x), np.float64(y))):
                psi_x, eta_y = interp(cand.psi, px), interp(cand.eta, py)
                assert same_bits(c_psi_value(spec, cand, px, py), min(px, py, psi_x + eta_y))
                split = s_t_split(spec, cand, px, py)
                assert same_bits([split["s"], split["t"]],
                                 [min(psi_x, py - eta_y), min(px - psi_x, eta_y)])
                assert same_bits(pointwise_upper_bound(spec, px, py),
                                 max(c_psi_value(spec, low, px, py),
                                     c_psi_value(spec, up, px, py)))


@pytest.mark.parametrize("t", [np.float64("nan"), float("nan"), np.float64(-0.1),
                               np.float64(1.5), -1e-300, 10**400], ids=repr)
def test_eval_pair_rejects_points_outside_the_unit_interval(t):
    """Each point query at a pair (x, y), and eval_pl, raise OutOfDomain for a coordinate off [0, 1]."""
    spec = section(np.random.default_rng(4), 50, False)
    low = quadruplet(spec, psi_bounds(spec).psi_low)
    with pytest.raises(OutOfDomain):
        eval_pl(low.psi, t)
    for x, y in ((t, 0.5), (0.5, t)):
        for call in (c_psi_value, s_t_split):
            with pytest.raises(OutOfDomain):
                call(spec, low, x, y)
        with pytest.raises(OutOfDomain):
            pointwise_upper_bound(spec, x, y)


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_point_queries_share_searches(identity, searches):
    rng = np.random.default_rng([11, int(identity)])
    spec = section(rng, 500, identity)
    bounds = psi_bounds(spec)
    mix = blend(quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up), 0.4)
    pointwise_upper_bound(spec, 0.5, 0.5)  # fills the per-spec memos
    for call, count in ((c_psi_value, 2), (s_t_split, 2)):
        del searches[:]
        call(spec, mix, 0.3, 0.6)
        assert len(searches) == count, call.__name__
    del searches[:]
    pointwise_upper_bound(spec, 0.3, 0.6)  # psi_L and psi_U share x's, eta_L and eta_U y's
    assert len(searches) == 2


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_region_functions_keeps_chi_and_xi_as_temporaries(identity):
    rng = np.random.default_rng([13, int(identity)])
    spec = section(rng, 500, identity)
    bounds = psi_bounds(spec)
    mix = blend(quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up), 0.37)
    own = np.union1d(spec.knots, np.linspace(0.051, 0.951, 7))
    for psi in (bounds.psi_low, bounds.psi_up, mix.psi, PLFunction(own, interp(mix.psi, own))):
        cand = quadruplet(spec, psi)
        region = region_functions(spec, cand)
        assert "chi" not in vars(cand) and "xi" not in vars(cand) and "eta" in vars(cand)
        # g and h as they were computed through the cached properties
        read = quadruplet(spec, psi)
        g = np.minimum(_rightmost_level(read.chi.x, read.chi.y, read.psi.y), read.chi.x)
        h = _rightmost_level(read.eta.x, read.eta.y, read.xi.y)
        assert same_bits(region["g"].y, g) and same_bits(region["h"].y, h)
        assert region["g"].x is cand.psi.x and region["h"].x is cand.psi.x


# ---------------------------------------------------------------------------
# memos


def _use_every_memo(spec):
    existence_check(spec)
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    eligibility_by_variation(spec, blend(low, up, 0.5).psi)
    pointwise_upper_bound(spec, 0.3, 0.6)
    eval_pl(spec.delta, 0.3)


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "knot-track"])
def test_spec_is_freed_by_refcount_after_every_query(identity):
    spec = section(np.random.default_rng(9), 500, identity)
    ref = weakref.ref(spec)
    gc.disable()
    try:
        _use_every_memo(spec)
        # read from the instance dict: reading a cached_property would fill it
        assert {"_delta_on_phi", "_existence", "_band", "_band_verdict"} <= vars(spec).keys()
        assert spec._existence
        del spec
        assert ref() is None
    finally:
        gc.enable()


def tie_spec():
    diagonal = TIE_SPEC["diagonal"]
    return make_diagonal(make_pl(diagonal["x"], diagonal["y"]), identity_track(), tol=TIE_TOL)


@pytest.mark.parametrize("order", [(TIE_TOL, 1e-9), (1e-9, TIE_TOL)],
                         ids=["wide-first", "default-first"])
def test_existence_memo_keeps_each_tols_witness(order):
    expected = {TIE_TOL: (0.55, 0.64), 1e-9: reference_existence(tie_spec(), 1e-9)[0]}
    assert expected[1e-9] != expected[TIE_TOL]
    spec = tie_spec()
    for tol in order + order:
        assert existence_check(spec, tol=tol).witness == expected[tol]
    assert existence_check(spec).witness == expected[1e-9]
