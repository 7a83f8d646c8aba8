import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcop import (
    MalformedKnots,
    OutOfDomain,
    combine,
    eval_pl,
    identity_pl,
    is_increasing,
    make_pl,
    positive_variation_majorant,
    variation,
)

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


def test_eval_out_of_domain():
    with pytest.raises(OutOfDomain):
        eval_pl(identity_pl(), 1.5)


@pytest.mark.parametrize("t", [np.nan, -0.1, 1.5, -np.inf, np.inf])
def test_eval_rejects_nan_and_outside_points_on_every_path(t):
    f = identity_pl()
    for arg in (float(t), np.float64(t), np.array(t), np.array([0.2, t, 0.7])):
        with pytest.raises(OutOfDomain):
            eval_pl(f, arg)


def test_eval_empty_array():
    assert eval_pl(ZIGZAG, np.array([])).shape == (0,)


def test_variation_zigzag():
    v = variation(ZIGZAG, 0, 1)
    assert v.vplus == pytest.approx(0.5, abs=1e-15)
    assert v.vminus == pytest.approx(0.1, abs=1e-15)
    assert v.tv == v.vplus + v.vminus


def test_variation_degenerate_interval():
    v = variation(ZIGZAG, 0.3, 0.3)
    assert (v.tv, v.vplus, v.vminus) == (0.0, 0.0, 0.0)


def test_variation_dense_sine_sample():
    # PL sampling of sin(pi x)/pi peaks at 1/pi; up- and down-variation both 1/pi
    xs = np.linspace(0, 1, 1001)
    f = make_pl(xs, np.sin(np.pi * xs) / np.pi)
    v = variation(f, 0, 1)
    assert v.vplus == pytest.approx(1 / np.pi, abs=1e-5)
    assert v.vminus == pytest.approx(1 / np.pi, abs=1e-5)


def test_variation_bad_interval():
    with pytest.raises(OutOfDomain):
        variation(ZIGZAG, 0.7, 0.3)


def test_majorant_of_increasing_is_itself():
    f = make_pl([0, 0.5, 1], [0, 0.2, 0.9])
    m = positive_variation_majorant(f)
    assert np.allclose(m.y, f.y)


def test_majorant_clips_decrease():
    f = make_pl([0, 0.5, 1], [0, 0.3, 0.1])
    m = positive_variation_majorant(f)
    assert list(m.y) == [0, 0.3, 0.3]


def test_majorant_of_constant_is_zero():
    f = make_pl([0, 1], [0.4, 0.4])
    m = positive_variation_majorant(f)
    assert list(m.y) == [0, 0]


def test_is_increasing():
    assert is_increasing(identity_pl())
    assert not is_increasing(ZIGZAG)
    assert is_increasing(make_pl([0, 1], [0, 0]))


def test_combine_sub_and_min():
    ident = identity_pl()
    zero = combine(ident, ident, "sub")
    assert np.all(zero.y == 0)
    half = make_pl([0, 1], [0.5, 0.5])
    m = combine(ident, half, "min")
    assert eval_pl(m, 0.5) == 0.5 and eval_pl(m, 0.75) == 0.5 and eval_pl(m, 0.25) == 0.25
    sq = make_pl([0, 0.5, 1], [0, 0.25, 1])
    diff = combine(ident, sq, "sub")
    assert eval_pl(diff, 0.5) == 0.25 and eval_pl(diff, 1.0) == 0.0


def test_combine_scale():
    f = combine(ZIGZAG, 0.5, "scale")
    assert np.allclose(f.y, ZIGZAG.y * 0.5)


pl_strategy = st.builds(
    lambda xs, ys: make_pl(np.concatenate(([0.0], np.sort(np.array(xs)), [1.0])),
                           ys[: len(xs) + 2]),
    st.lists(st.floats(0.001, 0.999).map(lambda v: round(v, 6)), min_size=0,
             max_size=8, unique=True),
    st.lists(st.floats(0, 1), min_size=10, max_size=10),
)


@given(pl_strategy, st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_variation_identities(f, a, b):
    a, b = min(a, b), max(a, b)
    v = variation(f, a, b)
    fa, fb = eval_pl(f, a), eval_pl(f, b)
    assert v.tv == v.vplus + v.vminus
    assert v.vplus - v.vminus == pytest.approx(fb - fa, abs=1e-12)
    assert v.vplus == pytest.approx(0.5 * (v.tv + fb - fa), abs=1e-12)
    assert v.vminus == pytest.approx(0.5 * (v.tv + fa - fb), abs=1e-12)
    # sign flip
    neg = make_pl(f.x, -f.y)
    assert variation(neg, a, b).vplus == v.vminus
    # additivity through an interior point
    mid = 0.5 * (a + b)
    assert variation(f, a, mid).vplus + variation(f, mid, b).vplus == \
        pytest.approx(v.vplus, abs=1e-12)


@given(pl_strategy)
@settings(max_examples=200, deadline=None)
def test_majorant_properties(f):
    m = positive_variation_majorant(f)
    assert m.y[0] == 0.0
    assert is_increasing(m)
    assert np.all(np.diff(m.y - f.y) >= -1e-12)


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
