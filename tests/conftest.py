import tracemalloc

import numpy as np
import pytest

from trackcop import (
    PLFunction,
    identity_track,
    make_diagonal,
    make_pl,
    psi_bounds,
    quadruplet,
)
from trackcop.cli import builtin_diagonal


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def traced():
    """tracemalloc on for the test; numpy reports its array buffers to it."""
    tracemalloc.start()
    yield
    tracemalloc.stop()


def added_peak(call, *args):
    """(result, peak bytes the call allocated beyond what was live when it started)."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = call(*args)
    return result, tracemalloc.get_traced_memory()[1] - base


@pytest.fixture(scope="session")
def ident():
    return identity_track()


def diagonal_spec(name, n=201, track=None):
    track = track or identity_track()
    return make_diagonal(builtin_diagonal(name, n), track)


@pytest.fixture(scope="session")
def fig1_spec():
    return diagonal_spec("fig1", 1001)


@pytest.fixture(scope="session")
def fig2_spec():
    return diagonal_spec("fig2", 1001)


@pytest.fixture(scope="session")
def fig2_spec_201():
    return diagonal_spec("fig2", 201)


@pytest.fixture(scope="session")
def w_spec():
    return make_diagonal(make_pl([0, 0.5, 1], [0, 0, 1]), identity_track())


@pytest.fixture(scope="session")
def indep_spec():
    xs = np.linspace(0.0, 1.0, 201)
    return make_diagonal(PLFunction(xs, xs**2), identity_track())


def random_eligible_psi(spec, rng):
    """Random mass function with increments drawn inside the feasible band."""
    bounds = psi_bounds(spec)
    lo = np.diff(bounds.psi_low.y)
    hi = np.diff(bounds.psi_up.y)
    inc = lo + rng.random(len(lo)) * (hi - lo)
    return PLFunction(spec.knots, np.concatenate(([0.0], np.cumsum(inc))))


def perturb_ineligible(spec, psi, rng, bump=0.01):
    """Push one interior increment past its upper bound."""
    bounds = psi_bounds(spec)
    hi = np.diff(bounds.psi_up.y)
    k = int(rng.integers(1, len(psi.x) - 1))
    vals = psi.y.copy()
    excess = hi[k - 1] - (vals[k] - vals[k - 1])
    vals[k] += excess + bump
    return PLFunction(psi.x, vals)
