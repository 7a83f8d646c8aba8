import numpy as np
import pytest

from trackcop import (
    DiagonalConditionViolated,
    EndpointViolation,
    NotStrictlyIncreasing,
    diagonal_conditions,
    existence_check,
    identity_track,
    make_diagonal,
    make_pl,
    make_track,
)


def test_identity_track():
    t = identity_track()
    assert t.phi(0.3) == 0.3 and t.phi_inv(0.3) == 0.3


def test_make_track_inverse_roundtrip():
    t = make_track(make_pl([0, 0.5, 1], [0, 0.25, 1]))
    assert t.phi(0.5) == 0.25
    assert t.phi_inv(0.25) == 0.5
    for x in np.linspace(0, 1, 17):
        assert t.phi_inv(t.phi(x)) == pytest.approx(x, abs=1e-15)


def test_make_track_rejects_non_increasing():
    with pytest.raises(NotStrictlyIncreasing):
        make_track(make_pl([0, 0.5, 1], [0, 0.5, 0.5]))


def test_make_track_rejects_bad_endpoints():
    with pytest.raises(EndpointViolation):
        make_track(make_pl([0, 1], [0.1, 1]))


def test_conditions_all_pass_for_independence_diagonal():
    xs = np.linspace(0, 1, 101)
    results = diagonal_conditions(make_pl(xs, xs**2), identity_track())
    assert all(ok for ok, _ in results.values())


def test_condition_a_fails():
    results = diagonal_conditions(make_pl([0, 1], [0, 0.9]), identity_track())
    assert not results["a"][0]


def test_condition_b_fails_above_min():
    d = make_pl([0, 0.5, 1], [0, 0.6, 1.0])
    results = diagonal_conditions(d, identity_track())
    assert not results["b"][0]
    assert results["b"][1] == 0.5


def test_condition_c_fails_decreasing():
    d = make_pl([0, 0.4, 0.6, 1], [0, 0.3, 0.2, 1])
    results = diagonal_conditions(d, identity_track())
    assert not results["c"][0]
    assert results["c"][1] == pytest.approx(0.4)


def test_condition_d_fails_steep_segment():
    # slope 2.5 on [0.4, 0.5] exceeds the identity-track bound of 2
    d = make_pl([0, 0.4, 0.5, 1], [0, 0.25, 0.5, 1])
    results = diagonal_conditions(d, identity_track())
    assert results["a"][0] and results["b"][0] and results["c"][0]
    assert not results["d"][0]
    assert results["d"][1] == pytest.approx(0.4)


def test_make_diagonal_raises_with_condition_tag():
    d = make_pl([0, 0.4, 0.5, 1], [0, 0.25, 0.5, 1])
    with pytest.raises(DiagonalConditionViolated):
        make_diagonal(d, identity_track())


def test_make_diagonal_gap_functions(indep_spec):
    x = indep_spec.knots
    assert np.allclose(x - indep_spec.delta.y, x - x**2, atol=1e-15)
    assert np.allclose(indep_spec.phi_values() - indep_spec.delta.y, x - x**2, atol=1e-15)


def test_make_diagonal_refines_against_track_knots():
    track = make_track(make_pl([0, 0.3, 1], [0, 0.7, 1]))
    spec = make_diagonal(make_pl([0, 1], [0, 1]), track, validate=False)
    assert 0.3 in spec.knots


def test_existence_holds_for_valid_diagonals(fig2_spec, w_spec, indep_spec):
    for spec in (fig2_spec, w_spec, indep_spec):
        result = existence_check(spec)
        assert result.exists and result.variational_ok and result.lipschitz_ok
        assert result.witness is None


def test_existence_fails_with_witness():
    d = make_pl([0, 0.4, 0.5, 1], [0, 0.25, 0.5, 1])
    spec = make_diagonal(d, identity_track(), validate=False)
    result = existence_check(spec)
    assert not result.exists
    assert not result.variational_ok and not result.lipschitz_ok
    assert result.witness == (0.4, 0.5)


def test_existence_agrees_with_condition_d_one_track():
    # same diagonal becomes realizable on a track steep enough over [0.4, 0.5]
    d = make_pl([0, 0.4, 0.5, 1], [0, 0.25, 0.5, 1])
    track = make_track(make_pl([0, 0.4, 0.5, 1], [0, 0.25, 0.75, 1]))
    spec = make_diagonal(d, track)
    assert existence_check(spec).exists
