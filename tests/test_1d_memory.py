"""Memory of the 1-D path on a large section, measured with tracemalloc.

The unit is one n-array, the n * 8 bytes of one float array on the spec's
n knots. quadruplet allocates only the band test's buffer, about one
n-array, and keeps nothing beyond psi's arrays: the candidate computes chi,
eta and xi when they are first read. The whole 1-D chain, as one op of the
benchmark's section-1d workload runs it (make_diagonal through
region_functions and one pointwise_upper_bound), holds its results and
temporaries in at most CHAIN_CEILING n-arrays, and keeps at most
LIVE_CEILING once it returns: the band's three arrays, phi at the knots on
a general track, the blend's psi, its eta, and g and h. region_functions on
psi_U, whose eta dips, adds at most REGION_CEILING n-arrays to a candidate
whose companions are built: chi and xi as temporaries, the suffix minimum
of eta, and g and h. np.interp copies every argument that is not a
writeable contiguous array, so no call on the chain may be handed one, nor
on the merged path of a candidate off the spec's knots.
numpy reports its array buffers to tracemalloc, so the peaks count every
temporary.
"""

import tracemalloc

import numpy as np
import pytest

from trackcop import (
    blend,
    c_psi_value,
    diagonal_conditions,
    eligibility_by_variation,
    existence_check,
    make_diagonal,
    pointwise_upper_bound,
    psi_bounds,
    quadruplet,
    region_functions,
    s_t_split,
)
from trackcop.funcspace import PLFunction

from conftest import added_peak
from test_common_knots import case_section

KNOTS = 20_001
QUADRUPLET_CEILING = 1.5
CHAIN_CEILING = 11.0
LIVE_CEILING = 8.5
REGION_CEILING = 7.0


def live_bytes():
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_quadruplet_keeps_no_companion_until_one_is_read(identity, traced):
    spec = make_diagonal(*case_section("aligned", identity, 0, n=KNOTS))
    psi_up = psi_bounds(spec).psi_up
    n_array = 8.0 * len(spec.knots)
    base = live_bytes()
    cand, peak = added_peak(quadruplet, spec, psi_up)
    assert cand.eligible
    assert peak / n_array <= QUADRUPLET_CEILING
    assert (live_bytes() - base) / n_array < 0.1
    for name in ("chi", "eta", "xi"):  # each read builds one array, once
        before = live_bytes()
        getattr(cand, name)
        assert 1.0 <= (live_bytes() - before) / n_array < 1.1, name
        before = live_bytes()
        getattr(cand, name)
        assert live_bytes() == before, name


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_region_of_a_dipping_companion_peak(identity, traced):
    spec = make_diagonal(*case_section("aligned", identity, 0, n=KNOTS))
    cand = quadruplet(spec, psi_bounds(spec).psi_up)
    cand.chi, cand.eta, cand.xi  # built before the measurement, as a candidate keeps them
    assert (cand.eta.y[1:] < cand.eta.y[:-1]).any()
    region, peak = added_peak(region_functions, spec, cand)
    assert len(region["h"].x) == len(spec.knots)
    assert peak / (8.0 * len(spec.knots)) <= REGION_CEILING


def one_d_chain(delta, track):
    """Every result of section-1d's path on one section, held as the benchmark op holds them."""
    spec = make_diagonal(delta, track)
    out = {"spec": spec, "conditions": diagonal_conditions(delta, track),
           "existence": existence_check(spec), "bounds": psi_bounds(spec)}
    low = quadruplet(spec, out["bounds"].psi_low)
    up = quadruplet(spec, out["bounds"].psi_up)
    mix = blend(low, up, 0.37)
    out.update(low=low, up=up, mix=mix, by_variation=eligibility_by_variation(spec, mix.psi),
               region=region_functions(spec, mix),
               bound_at=pointwise_upper_bound(spec, 0.3, 0.6))
    return out


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_one_d_chain_peak(identity, traced):
    delta, track = case_section("aligned", identity, 0, n=KNOTS)
    base = live_bytes()
    out, peak = added_peak(one_d_chain, delta, track)
    assert out["mix"].eligible and out["by_variation"].eligible
    n_array = 8.0 * len(out["spec"].knots)
    assert peak / n_array <= CHAIN_CEILING
    assert (live_bytes() - base) / n_array <= LIVE_CEILING


def watch_np_interp(monkeypatch) -> list:
    """Patch np.interp to record, per call, whether each array argument is writeable."""
    interp, seen = np.interp, []

    def checking(*args, **kwargs):
        seen.append([a.flags.writeable for a in args if isinstance(a, np.ndarray)])
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", checking)
    return seen


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_one_d_chain_hands_np_interp_only_writeable_arrays(identity, monkeypatch):
    delta, track = case_section("aligned", identity, 0, n=2_001)
    seen = watch_np_interp(monkeypatch)
    out = one_d_chain(delta, track)
    for x, y in ((0.3, 0.6), (0.8, 0.1)):
        c_psi_value(out["spec"], out["mix"], x, y)
        s_t_split(out["spec"], out["mix"], x, y)
    monkeypatch.undo()
    assert len(seen) >= 2  # the region's two level inverses at least
    assert all(all(flags) for flags in seen), seen


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
def test_candidate_off_the_spec_knots_hands_np_interp_only_writeable_arrays(identity,
                                                                           monkeypatch):
    spec = make_diagonal(*case_section("aligned", identity, 0, n=2_001))
    bounds = psi_bounds(spec)
    # the 0.37 blend on the spec's knots plus 97 uniform points, where it is linear
    u = np.union1d(spec.knots, np.linspace(0.0, 1.0, 99)[1:-1])
    psi = PLFunction(u, np.interp(u, spec.knots, 0.63 * bounds.psi_low.y + 0.37 * bounds.psi_up.y))
    seen = watch_np_interp(monkeypatch)
    cand = quadruplet(spec, psi)
    by_variation = eligibility_by_variation(spec, psi)
    region = region_functions(spec, cand)
    for x, y in ((0.3, 0.6), (0.8, 0.1)):
        c_psi_value(spec, cand, x, y)
        s_t_split(spec, cand, x, y)
    monkeypatch.undo()
    assert cand.eligible and by_variation.eligible
    assert cand.psi.x is not spec.knots and len(region["g"]) == len(u)  # the merged path
    assert len(seen) >= 10  # merges, band ends, phi and delta at psi's knots, level inverses
    assert all(all(flags) for flags in seen), seen
