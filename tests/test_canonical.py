import dataclasses

import numpy as np
import pytest

from trackcop import (
    NoCopulaExists,
    OutOfDomain,
    PLFunction,
    PsiNotAnchored,
    SpecMismatch,
    blend,
    eligibility_by_variation,
    identity_track,
    make_diagonal,
    make_pl,
    make_track,
    psi_bounds,
    quadruplet,
)
from trackcop.funcspace import USER_TOL
from conftest import perturb_ineligible, random_eligible_psi
from loop_reference import companion_witness, off_tie, reference_quadruplet
from test_kernels import same_bits


def general_track_spec():
    track_pl = make_pl([0, 0.5, 1], [0, 0.25, 1])
    xs = np.linspace(0, 1, 101)
    delta_vals = np.minimum(xs, np.interp(xs, track_pl.x, track_pl.y))
    return make_diagonal(PLFunction(xs, delta_vals), make_track(track_pl))


def companions_are_reference(cand, spec):
    """psi, chi, eta and xi of cand have the bits reference_quadruplet gives its psi."""
    parts, _ = reference_quadruplet(spec, cand.psi, USER_TOL)
    return all(same_bits(getattr(cand, name).x, x) and same_bits(getattr(cand, name).y, y)
               for name, (x, y) in parts.items())


@pytest.mark.parametrize("track", ["identity", "general"])
def test_quadruplet_is_reference_bit_for_bit(track, fig2_spec_201, rng):
    spec = fig2_spec_201 if track == "identity" else general_track_spec()
    bounds = psi_bounds(spec)
    eligible = random_eligible_psi(spec, rng)
    # on the spec's knots: quadruplet neither merges nor interpolates
    on_spec = [bounds.psi_low, bounds.psi_up, eligible, perturb_ineligible(spec, eligible, rng)]
    # on merged knots: psi's own knots finer, and coarser, than the spec's
    refined = np.union1d(spec.knots, [0.123, 0.456, 0.789])
    merged = [PLFunction(refined, np.interp(refined, spec.knots, eligible.y)),
              make_pl([0, 1], [0, 1 / np.pi])]
    for psi in on_spec + merged:
        cand = quadruplet(spec, psi)
        parts, violation = reference_quadruplet(spec, psi, USER_TOL)
        assert (cand.eligible, cand.violation) == (violation is None, violation)
        assert companions_are_reference(cand, spec)
        assert (cand.psi.x is spec.knots) == (psi in on_spec)
        # a candidate with another psi computes its companions from that psi
        cand.chi, cand.eta, cand.xi  # the original's companions, computed and kept
        for other in (bounds.psi_up, merged[0]):
            moved = dataclasses.replace(cand, psi=PLFunction(other.x, other.y))
            assert companions_are_reference(moved, spec)


def test_quadruplet_requires_anchor(fig2_spec_201):
    with pytest.raises(PsiNotAnchored):
        quadruplet(fig2_spec_201, make_pl([0, 1], [0.1, 0.5]))


def test_linear_psi_ineligible_for_fig2(fig2_spec_201):
    # constant slope 1/pi overshoots where the diagonal is steep: chi decreases
    psi = make_pl([0, 1], [0, 1 / np.pi])
    cand = quadruplet(fig2_spec_201, psi)
    assert not cand.eligible
    assert "decreasing" in cand.violation


def test_extremes_are_eligible(fig2_spec_201, w_spec, indep_spec):
    for spec in (fig2_spec_201, w_spec, indep_spec):
        bounds = psi_bounds(spec)
        assert quadruplet(spec, bounds.psi_low).eligible
        assert quadruplet(spec, bounds.psi_up).eligible


def test_psi_bounds_fig2_reference_values(fig2_spec):
    bounds = psi_bounds(fig2_spec)
    assert bounds.psi_low(0.6) == pytest.approx(0.0155792, abs=1e-5)
    assert bounds.psi_up(0.5) == pytest.approx(0.1816901, abs=1e-5)
    assert bounds.psi_up(1.0) == pytest.approx(0.6816901, abs=1e-5)
    # total negative variation of zeta is 1/pi
    assert bounds.psi_low(1.0) == pytest.approx(1 / np.pi, abs=1e-5)


def test_psi_bounds_w_diagonal(w_spec):
    bounds = psi_bounds(w_spec)
    target = np.maximum(bounds.psi_low.x - 0.5, 0.0)
    assert np.allclose(bounds.psi_low.y, target, atol=1e-12)
    assert np.allclose(bounds.psi_up.y, target, atol=1e-12)


def test_psi_bounds_m_diagonal():
    xs = np.linspace(0, 1, 51)
    spec = make_diagonal(make_pl(xs, xs), identity_track())
    bounds = psi_bounds(spec)
    assert np.allclose(bounds.psi_low.y, 0.0, atol=1e-15)
    assert np.allclose(bounds.psi_up.y, bounds.psi_up.x, atol=1e-15)


def test_psi_bounds_raise_when_no_copula():
    d = make_pl([0, 0.4, 0.5, 1], [0, 0.25, 0.5, 1])
    spec = make_diagonal(d, identity_track(), validate=False)
    with pytest.raises(NoCopulaExists):
        psi_bounds(spec)


def test_every_eligible_psi_between_bounds(fig2_spec_201, rng):
    bounds = psi_bounds(fig2_spec_201)
    for _ in range(20):
        psi = random_eligible_psi(fig2_spec_201, rng)
        assert np.all(psi.y >= bounds.psi_low.y - 1e-12)
        assert np.all(psi.y <= bounds.psi_up.y + 1e-12)
        assert quadruplet(fig2_spec_201, psi).eligible


def test_eligibility_by_variation_matches_quadruplet(fig2_spec_201, indep_spec, rng):
    # both give quadruplet's candidate, whose verdict and witness at tol 0 are
    # the paper's definition wherever no companion step is within 1e-9 of 0
    compared = []
    for spec in (fig2_spec_201, indep_spec, general_track_spec()):
        for _ in range(20):
            psi = random_eligible_psi(spec, rng)
            for case in (psi, perturb_ineligible(spec, psi, rng)):
                cand = quadruplet(spec, case, 0.0)
                by_variation = eligibility_by_variation(spec, case, 0.0)
                assert (by_variation.eligible, by_variation.witness, by_variation.violation) == \
                    (cand.eligible, cand.witness, cand.violation)
                if off_tie(spec, case):
                    name, witness = companion_witness(spec, case)
                    assert (cand.eligible, cand.witness) == (witness is None, witness)
                    assert witness is None or cand.violation.startswith(name)
                    compared.append(cand.eligible)
    assert compared.count(True) >= 20 and compared.count(False) >= 20


def test_blend_stays_eligible(fig2_spec_201):
    bounds = psi_bounds(fig2_spec_201)
    low = quadruplet(fig2_spec_201, bounds.psi_low)
    up = quadruplet(fig2_spec_201, bounds.psi_up)
    mid = blend(low, up, 0.5)
    assert mid.eligible
    assert np.allclose(mid.psi.y, 0.5 * (low.psi.y + up.psi.y), atol=1e-15)
    assert np.allclose(blend(low, up, 0.0).psi.y, low.psi.y, atol=1e-15)
    assert np.allclose(blend(low, up, 1.0).psi.y, up.psi.y, atol=1e-15)


def test_blend_rejects_mismatched_specs(fig2_spec_201, indep_spec):
    a = quadruplet(fig2_spec_201, psi_bounds(fig2_spec_201).psi_low)
    b = quadruplet(indep_spec, psi_bounds(indep_spec).psi_low)
    with pytest.raises(SpecMismatch):
        blend(a, b, 0.5)
    for t in (1.5, -0.1, float("nan"), 10**400, 10**5000, -10**5000):
        with pytest.raises(OutOfDomain) as raised:
            blend(a, a, t)
        assert len(str(raised.value)) < 100
    for t in (1.5, float("nan"), np.float64(1.5)):
        with pytest.raises(OutOfDomain, match=rf"^blend weight {t} outside \[0, 1\]$"):
            blend(a, a, t)


def test_blend_is_judged_at_its_tol():
    # psi_L lowered by 1e-6 at 1/4 is eligible within tol 1e-5, and so is its
    # blend with itself; blend used to judge it at USER_TOL whatever its tol
    spec = make_diagonal(make_pl([0.0, 0.5, 1.0], [0.0, 0.3, 1.0]), identity_track())
    knots = np.linspace(0.0, 1.0, 5)
    y = psi_bounds(spec).psi_low(knots)
    y[1] -= 1e-6
    c = quadruplet(spec, PLFunction(knots, y), tol=1e-5)
    assert c.eligible
    assert blend(c, c, 0.5, 1e-5).eligible
    assert blend(c, c, 0.5).violation == "psi - psi_L decreasing on [0, 0.25]"


def test_quadruplet_on_nonidentity_track():
    spec = general_track_spec()
    bounds = psi_bounds(spec)
    cand = quadruplet(spec, bounds.psi_low)
    assert cand.eligible
    # eta lives on the track image of the knots
    assert np.allclose(cand.eta.x, spec.phi_values(), atol=1e-15)
