from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_reference import reference_merge_knots
from trackcop import (
    MalformedKnots,
    OutOfDomain,
    eval_pl,
    make_pl,
    merge_knots,
)
from trackcop.funcspace import INTERNAL_TOL

ZIGZAG = make_pl([0, 0.25, 0.5, 1], [0, 0.2, 0.1, 0.4])


def test_make_pl_identity():
    f = make_pl([0, 1], [0, 1])
    assert eval_pl(f, 0.37) == 0.37


def test_make_pl_flat_tail():
    f = make_pl([0, 0.5, 1], [0, 0.5, 0.5])
    assert eval_pl(f, 0.75) == 0.5
    assert eval_pl(f, 0.25) == 0.25


def test_make_pl_rejects_unsorted():
    with pytest.raises(MalformedKnots):
        make_pl([0, 0.5, 0.25, 1], [0, 0, 0, 1])


def test_make_pl_rejects_bad_endpoints():
    with pytest.raises(MalformedKnots):
        make_pl([0.1, 1], [0, 1])
    with pytest.raises(MalformedKnots):
        make_pl([0], [0])


@pytest.mark.parametrize("xs, ys", [
    ([0, 1], [0, 0.5, 1]),
    ([0, 0.5, 1], [0, np.nan, 1]),
    ([0, np.inf, 1], [0, 0.5, 1]),
    ([0, 1], ["a", "b"]),
    ("abc", [0, 1]),
    ({"x": 0}, [0, 1]),
    ([0, [0.5], 1], [0, 0.5, 1]),
], ids=["unequal-lengths", "nan", "inf", "strings", "a-string", "a-dict", "ragged"])
def test_make_pl_rejects_malformed_knot_lists(xs, ys):
    with pytest.raises(MalformedKnots):
        make_pl(xs, ys)


def test_eval_out_of_domain():
    with pytest.raises(OutOfDomain):
        eval_pl(make_pl([0, 1], [0, 1]), 1.5)


@pytest.mark.parametrize("t", [np.nan, -0.1, 1.5, -np.inf, np.inf])
def test_eval_rejects_nan_and_outside_points_on_every_path(t):
    f = make_pl([0, 1], [0, 1])
    for arg in (float(t), np.float64(t), np.array(t), np.array([0.2, t, 0.7])):
        with pytest.raises(OutOfDomain):
            eval_pl(f, arg)


def test_eval_empty_array():
    assert eval_pl(ZIGZAG, np.array([])).shape == (0,)


pl_strategy = st.builds(
    lambda xs, ys: make_pl(np.concatenate(([0.0], np.sort(np.array(xs)), [1.0])),
                           ys[: len(xs) + 2]),
    st.lists(st.floats(0.001, 0.999).map(lambda v: round(v, 6)), min_size=0,
             max_size=8, unique=True),
    st.lists(st.floats(0, 1), min_size=10, max_size=10),
)


@given(pl_strategy, st.floats(0, 1), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_eval_scalar_path_matches_array_path(f, t, k):
    # at an arbitrary point and exactly at a knot (0 and 1 included)
    for s in (t, float(f.x[k % len(f.x)])):
        value = eval_pl(f, s)
        assert type(value) is float
        assert value.hex() == float(eval_pl(f, np.array([s]))[0]).hex()
        assert value.hex() == float(np.interp(s, f.x.copy(), f.y.copy())).hex()
        assert eval_pl(f, np.float64(s)).hex() == value.hex()
        assert eval_pl(f, np.array(s)).hex() == value.hex()


# knots in [0, 1]: 0 and 1 themselves, -0.0, and anything between
unit_points = st.one_of(st.floats(0, 1), st.sampled_from([0.0, -0.0, 1.0]))
# a point moved by this many INTERNAL_TOL: 0 is an exact duplicate, the rest near ones
tol_steps = st.sampled_from([0.0, 0.0, 0.25, -0.25, 0.5, -0.5, 0.99, -0.99, 1.0, 1.5, -1.5, 3.0])


@st.composite
def knot_arrays(draw):
    """1-3 arrays of points in [0, 1], drawn from a few values and their exact and near duplicates."""
    base = draw(st.lists(unit_points, min_size=1, max_size=6))
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        picks = draw(st.lists(st.tuples(st.sampled_from(base), tol_steps), max_size=12))
        points = [p + k * INTERNAL_TOL for p, k in picks]
        arrays.append(np.array([q if 0.0 <= q <= 1.0 else p
                                for q, (p, _) in zip(points, picks)], dtype=float))
    if not any(len(a) for a in arrays):
        arrays[0] = np.array(base[:1], dtype=float)
    return arrays


@given(knot_arrays())
@settings(max_examples=500, deadline=None)
def test_merge_knots_sorts_to_np_unique_bits(arrays):
    merged = merge_knots(*arrays)
    assert merged.tobytes() == reference_merge_knots(*arrays).tobytes()
    assert not np.signbit(merged[0])


def test_merge_knots_drops_exact_and_near_duplicates():
    near = 0.5 + 0.5 * INTERNAL_TOL
    merged = merge_knots([-0.0, 0.5, 1.0], [0.0, near, 0.5, 1.0], [0.25, 0.25])
    assert merged.tobytes() == np.array([0.0, 0.25, 0.5, 1.0]).tobytes()


def test_array_holders_compare_by_identity_and_stay_frozen():
    f, g = make_pl([0, 1], [0, 1]), make_pl([0, 1], [0, 1])
    assert f == f and f != g and hash(f) == hash(f)
    assert len({f, g}) == 2
    with pytest.raises(FrozenInstanceError):
        f.x = g.x
    assert replace(f, y=[0.0, 0.5]).y.tolist() == [0.0, 0.5]
