"""The paper's guarantees as Hypothesis properties, on the identity and on general tracks.

Sections come from strategies.py: admissible Frechet-mix sections with
points anywhere, at knots, or on the track. Existence and eligibility are
read off the band under one monotone rule: the band's ends and blends are
eligible at tol 0, and the one verdict, quadruplet's, which
eligibility_by_variation returns, is the paper's definition evaluated
exactly (loop_reference.companion_witness) wherever no companion step is
near 0. The grid properties take psi_L, psi_U and a blend of the two on a
small mesh refined by the spec's knots and their track images.
Shuffle-of-Min sections come with their copula C: the extremal constructed
copulas keep the section at its knots, C stays below the upper bound, and
on the identity track Bertino's copula B_delta stays below C and both
extremal constructions. In Fraction, the section of a shuffle is linear
between the knots of shuffle_sections' rule.
"""

import contextlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trackcop import IneligibleExtractedPsi, PLFunction, blend, c_psi_value, check_grid, \
    compare, dominating_envelope, eligibility_by_variation, eval_pl, existence_check, \
    identity_track, make_diagonal, make_pl, make_splice, materialize_grid, merge_knots, \
    pointwise_upper_bound, psi_bounds, quadruplet, splice_grid
from trackcop.construction import _ConstructionRows
from trackcop.funcspace import INTERNAL_TOL

from conftest import perturb_ineligible, random_eligible_psi
from loop_reference import bertino, companion_witness, exact_at, exact_shuffle_copula, \
    exact_shuffle_knots, off_tie
from strategies import sections, sections_with_points, shuffle_section, shuffle_sections, \
    shuffles
from test_kernels import same_bits

TRACKS = pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])

# A blend's value and the bound are computed from different psi, so they
# may round apart by a few ulps of 1 where the blend attains the bound.
BLEND_SLACK = 1e-15


@TRACKS
@given(data=st.data(), t=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_upper_bound_is_the_larger_extremal_copula(identity, data, t):
    spec, points = data.draw(sections_with_points(identity))
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    mix = blend(low, up, t)
    for x, y in points:
        bound = pointwise_upper_bound(spec, x, y)
        assert same_bits(bound, max(c_psi_value(spec, low, x, y), c_psi_value(spec, up, x, y)))
        assert c_psi_value(spec, mix, x, y) <= bound + BLEND_SLACK


@TRACKS
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_extremal_copulas_keep_a_shuffle_section_at_its_knots(identity, data):
    spec, _ = data.draw(shuffle_sections(identity))
    bounds = psi_bounds(spec)
    for psi in (bounds.psi_low, bounds.psi_up):
        cand = quadruplet(spec, psi)
        values = [c_psi_value(spec, cand, u, p) for u, p in zip(spec.knots, spec.phi_values())]
        assert np.all(np.abs(np.subtract(values, spec.delta.y)) <= INTERNAL_TOL)


@TRACKS
@given(data=st.data(), points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                       min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_a_shuffle_of_min_stays_below_the_upper_bound(identity, data, points):
    # C is summed over strips and the bound read off the band: they may round apart
    spec, copula = data.draw(shuffle_sections(identity))
    x, y = np.array(points).T
    bound = [pointwise_upper_bound(spec, px, py) for px, py in points]
    assert np.all(copula(x, y) <= np.add(bound, INTERNAL_TOL))


@TRACKS
@given(drawn=st.data())
@settings(max_examples=100, deadline=None)
def test_a_shuffle_section_is_linear_between_its_knots(identity, drawn):
    # exact: C along the track has no kink between two knots of the rule,
    # so at their midpoint m, C(m, phi(m)) is the chord of the exact delta
    sigma, track = drawn.draw(shuffles(identity))
    copula = exact_shuffle_copula(sigma)
    phi = [float(v) for v in track.phi.x], [float(v) for v in track.phi.y]
    knots = exact_shuffle_knots(sigma, track)
    delta = [copula(u, exact_at(*phi, u)) for u in knots]
    for a, b, da, db in zip(knots, knots[1:], delta, delta[1:]):
        m = (a + b) / 2
        assert copula(m, exact_at(*phi, m)) == (da + db) / 2
    # the strategy's float section has the rule's knots, and is delta there
    spec, _ = shuffle_section(sigma, track)
    gaps = [float(min(abs(Fraction(float(k)) - u) for k in spec.knots)) for u in knots]
    assert max(gaps) <= INTERNAL_TOL
    exact = [float(copula(k, exact_at(*phi, Fraction(float(k))))) for k in spec.knots]
    assert np.all(np.abs(np.subtract(exact, spec.delta.y)) <= INTERNAL_TOL)


@given(data=st.data(), shuffle=st.booleans(),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1,
                       max_size=20))
@settings(max_examples=100, deadline=None)
def test_bertino_is_below_every_copula_with_the_diagonal(data, shuffle, points):
    # on the identity track B_delta is the least copula with diagonal delta:
    # below the shuffle itself and below both extremal constructions
    if shuffle:
        spec, copula = data.draw(shuffle_sections(True))
    else:
        spec, copula = data.draw(sections(True)), None
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    for x, y in points:
        least = bertino(spec.delta, x, y)
        assert least <= min(c_psi_value(spec, low, x, y), c_psi_value(spec, up, x, y)) \
            + INTERNAL_TOL
        if copula is not None:
            assert least <= float(copula(x, y)) + INTERNAL_TOL


@TRACKS
@given(data=st.data(), bumped=st.booleans(), tol=st.sampled_from([0.0, 1e-9]))
@settings(max_examples=150, deadline=None)
def test_existence_is_both_criteria(identity, data, bumped, tol):
    # a bumped section breaks the slope bound by 1e-3, so no copula has it
    result = existence_check(data.draw(sections(identity, bumped=bumped)), tol)
    assert result.variational_ok == result.lipschitz_ok == result.exists == (not bumped)


@TRACKS
@given(data=st.data(), t=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_band_ends_and_blends_are_eligible_at_tol_0(identity, data, t):
    spec = data.draw(sections(identity))
    bounds = psi_bounds(spec, tol=0.0)
    low, up = quadruplet(spec, bounds.psi_low, 0.0), quadruplet(spec, bounds.psi_up, 0.0)
    for cand in (low, up, blend(low, up, t)):
        assert cand.eligible and cand.violation is None
        assert eligibility_by_variation(spec, cand.psi, 0.0).eligible


@st.composite
def wobbly_psis(draw, identity):
    """(spec, psi): psi_L + w (psi_U - psi_L), w drawn per knot, on the spec's knots or others."""
    spec = draw(sections(identity))
    bounds = psi_bounds(spec)
    knots = spec.knots if draw(st.booleans()) else np.union1d(
        [0.0, 1.0], draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(knots), max_size=len(knots))))
    y = eval_pl(bounds.psi_low, knots) + w * (eval_pl(bounds.psi_up, knots)
                                              - eval_pl(bounds.psi_low, knots))
    y[0] = 0.0
    return spec, PLFunction(knots, y)


@st.composite
def moved_band_psis(draw, identity):
    """(spec, psi) on a shuffle section: psi_L, psi_U or a blend, interior knots moved off it.

    Each interior knot moves by a distinct multiple of 1e-6, at most 1e-3,
    so neighbouring moves differ by at least 1e-6; where the band is tight,
    most moves leave it.
    """
    spec, _ = draw(shuffle_sections(identity))
    bounds = psi_bounds(spec)
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    y = (1.0 - t) * bounds.psi_low.y + t * bounds.psi_up.y
    n = len(y) - 2
    y[1:-1] += 1e-6 * np.array(draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n,
                                             unique=True)))
    return spec, PLFunction(spec.knots, y)


@st.composite
def random_band_psis(draw, identity):
    """(spec, psi): random_eligible_psi on a Frechet-mix section, or perturb_ineligible of it."""
    spec = draw(sections(identity))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = random_eligible_psi(spec, rng)
    return spec, perturb_ineligible(spec, psi, rng) if draw(st.booleans()) else psi


@TRACKS
@given(data=st.data(), tol=st.sampled_from([0.0, 1e-9, 1e-3]) | st.floats(0.0, 0.2))
@settings(max_examples=150, deadline=None)
def test_quadruplet_and_eligibility_give_one_verdict(identity, data, tol):
    # at every tol the violation names the witness the candidate keeps; at
    # tol 0 and off ties the one verdict is the paper's definition
    spec, psi = data.draw(st.one_of(wobbly_psis(identity), moved_band_psis(identity),
                                    random_band_psis(identity)))
    cand = quadruplet(spec, psi, tol)
    assert cand.eligible == (cand.witness is None) == (cand.violation is None)
    if not cand.eligible:
        a, b = cand.witness
        assert cand.violation.endswith(f" decreasing on [{a:.6g}, {b:.6g}]")
    assume(off_tie(spec, psi))
    cand, by_variation = quadruplet(spec, psi, 0.0), eligibility_by_variation(spec, psi, 0.0)
    name, witness = companion_witness(spec, psi)
    assert (cand.eligible, cand.witness) == (witness is None, witness)
    assert witness is None or cand.violation.startswith(name)
    assert (by_variation.eligible, by_variation.witness) == (cand.eligible, cand.witness)


# ---------------------------------------------------------------------------
# grids of the constructed copulas C_psi

GRIDS = settings(max_examples=40, deadline=None)
# C_psi(x, phi(x)) = min(x, phi(x), delta(x) + psi(x) - psi(w)) with w =
# phi_inv(phi(x)), which is x only to rounding.
SECTION_SLACK = 4 * np.finfo(float).eps


@st.composite
def constructions(draw, identity):
    """(spec, mesh, [psi_L, psi_U, a blend]) on a mesh of 5-40 points plus the knots."""
    spec = draw(sections(identity, max_knots=12))
    uniform = np.linspace(0.0, 1.0, draw(st.integers(5, 40)))
    mesh = merge_knots(uniform, spec.knots, spec.phi_values())
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    return spec, mesh, [low, up, blend(low, up, draw(st.floats(0.0, 1.0)))]


@TRACKS
@given(data=st.data())
@GRIDS
def test_constructed_grid_has_the_track_section(identity, data):
    spec, mesh, cands = data.draw(constructions(identity))
    phi = eval_pl(spec.track.phi, mesh)
    col = np.minimum(np.searchsorted(mesh, phi), len(mesh) - 1)
    rows = np.flatnonzero(mesh[col] == phi)  # the x whose phi(x) is a mesh point, 0 and 1 too
    delta = eval_pl(spec.delta, mesh[rows])
    for cand in cands:
        section = materialize_grid(spec, cand, mesh).values[rows, col[rows]]
        assert np.abs(section - delta).max() <= SECTION_SLACK


@TRACKS
@given(data=st.data())
@GRIDS
def test_constructions_are_copulas_and_their_splices_quasi_copulas(identity, data):
    spec, mesh, cands = data.draw(constructions(identity))
    for cand in cands:
        assert check_grid(materialize_grid(spec, cand, mesh)).copula_ok
    for upper, lower in itertools.permutations(cands, 2):
        assert check_grid(splice_grid(make_splice(upper, lower), mesh), "quasi").quasi_ok


@TRACKS
@given(data=st.data())
@GRIDS
def test_compare_takes_grids_and_construction_sources_alike(identity, data):
    spec, mesh, cands = data.draw(constructions(identity))
    grids = [materialize_grid(spec, cand, mesh) for cand in cands]
    for (a, grid_a), (b, grid_b) in itertools.permutations(zip(cands, grids), 2):
        assert compare(grid_a, grid_b) == compare(_ConstructionRows(a, mesh),
                                                  _ConstructionRows(b, mesh))


@given(data=st.data())
@GRIDS
def test_envelope_accepts_the_section_of_a_construction_off_the_track_images(data):
    # on a general track and a mesh without the track images, phi(x) mostly
    # falls between mesh points; the section is read at the nearest one
    spec = data.draw(sections(False, max_knots=12))
    mesh = merge_knots(np.linspace(0.0, 1.0, data.draw(st.integers(5, 40))), spec.knots)
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    for cand in (low, up, blend(low, up, data.draw(st.floats(0.0, 1.0)))):
        # the mesh may be too coarse for an eligible extraction; never a wrong section
        with contextlib.suppress(IneligibleExtractedPsi):
            dominating_envelope(materialize_grid(spec, cand, mesh), spec.track, spec)


def identity_case(delta_at_half: float, n: int):
    """(spec, mesh, [psi_L, psi_U, their even blend]) for a 3-knot section on an n-point mesh."""
    spec = make_diagonal(make_pl([0.0, 0.5, 1.0], [0.0, delta_at_half, 1.0]), identity_track())
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    return spec, np.linspace(0.0, 1.0, n), [low, up, blend(low, up, 0.5)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a grid sees C_psi only at its mesh points: with delta(1/2) = 1/3 on a 5-point mesh the"
    " blend's grid is above psi_L's and psi_U's, and the points where it is below lie"
    " between mesh points (a 9-point mesh finds them)"))
@given(case=st.booleans().flatmap(constructions))
@example(case=identity_case(1.0 / 3.0, 5))
@GRIDS
def test_no_construction_dominates_another(case):
    # every C_psi is undominated, so two of them are equal or incomparable
    spec, mesh, cands = case
    for a, b in itertools.permutations(cands, 2):
        result = compare(materialize_grid(spec, a, mesh), materialize_grid(spec, b, mesh))
        assert result.relation in ("equal", "incomparable")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "C_psi does not determine psi where its mass lies on the track: on the identity track"
    " with delta(x) = x every psi in [0, x] gives C = M, and extract_psi splits the mass on"
    " the track by cell area, so psi_L = 0 comes back as x / 2"))
@given(case=st.booleans().flatmap(constructions))
@example(case=identity_case(0.5, 5))
@GRIDS
def test_envelope_of_a_construction_gives_back_its_psi(case):
    spec, mesh, cands = case
    for cand in cands:
        envelope = dominating_envelope(materialize_grid(spec, cand, mesh), spec.track, spec)
        gap = np.abs(eval_pl(envelope.candidate.psi, mesh) - eval_pl(cand.psi, mesh)).max()
        assert gap <= 2.0 / len(mesh)
