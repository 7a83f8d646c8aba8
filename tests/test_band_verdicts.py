"""The band answers its own eligibility, and a blend on a shared knot array skips the merge.

`DiagonalSpec._band_verdict` is the one verdict psi_L and psi_U share: the
witness at which psi_U - psi_L falls, at USER_TOL. It must be the witness
quadruplet gives each end, and pointwise_upper_bound must raise psi_L's
message. quadruplet of either end at USER_TOL reads that verdict, and so does
eligibility_by_variation, which returns quadruplet's candidate; both must
judge as the band test does on a stand-in for the end. Sections come from
strategies.py on both track kinds, admissible ones and validate=False ones
whose delta dips, which no copula realizes and whose band ends are
ineligible.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcop import (
    IneligiblePsi,
    PLFunction,
    blend,
    eligibility_by_variation,
    existence_check,
    make_diagonal,
    make_pl,
    pointwise_upper_bound,
    psi_bounds,
    quadruplet,
)
from trackcop import canonical
from trackcop.funcspace import USER_TOL

from loop_reference import reference_blend_psi, reference_quadruplet
from strategies import sections
from test_kernels import same_bits


def dipped(spec, k, drop):
    """spec rebuilt with validate=False and delta at knot k set `drop` below delta at knot k - 1."""
    d = spec.delta.y.copy()
    d[k] = d[k - 1] - drop
    return make_diagonal(make_pl(spec.knots, d), spec.track, validate=False)


def stand_in(f):
    """f's arrays in a new PLFunction: not the band's own end, so quadruplet runs the band test."""
    return PLFunction(f.x, f.y)


def quadruplet_verdicts(spec, ends):
    """(eligible, violation) of each end as the band test computes it."""
    return tuple((c.eligible, c.violation) for c in (quadruplet(spec, stand_in(f)) for f in ends))


def band_verdicts(spec):
    """(eligible, violation) of psi_L and of psi_U, as read off the spec's one band verdict."""
    witness = spec._band_verdict
    if witness is None:
        return (True, None), (True, None)
    where = f"decreasing on [{witness[0]:.6g}, {witness[1]:.6g}]"
    return (False, f"psi_U - psi {where}"), (False, f"psi - psi_L {where}")


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_band_verdicts_are_the_quadruplets_verdicts(identity, data):
    spec = data.draw(sections(identity))
    bounds = psi_bounds(spec)
    assert band_verdicts(spec) == quadruplet_verdicts(spec, (bounds.psi_low, bounds.psi_up))
    assert spec._band_verdict is None


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data(), drop=st.floats(1e-6, 0.05))
@settings(max_examples=100, deadline=None)
def test_band_verdicts_of_a_dipping_delta_raise_ineligible(identity, data, drop):
    spec = data.draw(sections(identity))
    spec = dipped(spec, data.draw(st.integers(1, len(spec.knots) - 2)), drop)
    # twice the most the band's gap narrows, so existence holds at tol
    gap = spec._band[2]
    tol = 2.0 * float(np.max(np.maximum.accumulate(gap) - gap))
    assert existence_check(spec, tol=tol).exists
    bounds = psi_bounds(spec, tol=tol)
    verdicts = quadruplet_verdicts(spec, (bounds.psi_low, bounds.psi_up))
    assert band_verdicts(spec) == verdicts
    assert not any(eligible for eligible, _ in verdicts)
    with pytest.raises(IneligiblePsi) as raised:
        pointwise_upper_bound(spec, 0.5, 0.5, tol=tol)
    assert str(raised.value) == verdicts[0][1]


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data(), drop=st.floats(1e-6, 0.05), dip=st.booleans(),
       tol=st.sampled_from([USER_TOL, 0.0, 1e-3, 0.1]))
@settings(max_examples=100, deadline=None)
def test_band_ends_judge_themselves_from_the_spec(identity, data, drop, dip, tol):
    spec = data.draw(sections(identity))
    if dip:
        spec = dipped(spec, data.draw(st.integers(1, len(spec.knots) - 2)), drop)
    with mock.patch.object(canonical, "_band_violation", wraps=canonical._band_violation) as test:
        for end in spec._band[:2]:
            fast, computed = quadruplet(spec, end, tol), quadruplet(spec, stand_in(end), tol)
            assert (fast.eligible, fast.violation, fast.witness) == \
                (computed.eligible, computed.violation, computed.witness)
            assert fast.psi.x is computed.psi.x and same_bits(fast.psi.y, computed.psi.y)
            by_variation = eligibility_by_variation(spec, end, tol)
            assert (by_variation.eligible, by_variation.witness) == (fast.eligible, fast.witness)
    # the stand-ins always run the band test; the ends themselves, through
    # quadruplet or eligibility_by_variation, only at another tol
    assert test.call_count == (2 if tol == USER_TOL else 6)


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_blend_on_a_shared_merged_knot_array(identity, data):
    spec = data.draw(sections(identity))
    bounds = psi_bounds(spec)
    extra = np.union1d(spec.knots, [0.123, 0.456, 0.789])
    a = quadruplet(spec, PLFunction(extra, np.interp(extra, spec.knots, bounds.psi_low.y)))
    knots = a.psi.x  # quadruplet's merge of the spec's knots with psi's
    b = quadruplet(spec, PLFunction(knots, np.interp(knots, spec.knots, bounds.psi_up.y)))
    # b on the very array a holds, as a candidate built on it would be
    b = dataclasses.replace(b, psi=PLFunction(knots, b.psi.y))
    assert a.psi.x is b.psi.x and not np.array_equal(knots, spec.knots)
    for t in (0.0, 0.37, 1.0):
        mix = blend(a, b, t)
        parts, violation = reference_quadruplet(spec, reference_blend_psi(a.psi, b.psi, t), 1e-9)
        for name, (x, y) in parts.items():
            f = getattr(mix, name)
            assert same_bits(f.x, x) and same_bits(f.y, y), name
        assert (mix.eligible, mix.violation) == (violation is None, violation)
