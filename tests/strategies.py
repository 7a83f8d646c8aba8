"""Hypothesis strategies for random tracks and track sections.

An admissible section is drawn as delta(x) = C(x, phi(x)) for a
Frechet-Mardia mix C = a*M + b*W + c*Pi (a + b + c = 1), sampled at knots
that include every knot of the track phi, the construction the benchmark's
generator uses. C is 1-Lipschitz in each argument and bounded by M, and
min(x, phi(x)) is concave on each knot interval, so the piecewise-linear
interpolant keeps conditions (a)-(d) and the existence criterion. A bumped
section raises delta at one interior knot past the slope bound, which breaks
the Lipschitz form of existence on that segment.
"""

import numpy as np
from hypothesis import strategies as st

from trackcop import identity_track, make_diagonal, make_pl, make_track

# Neighbouring knots are at least this share of the largest gap apart, so no
# draw comes near the library's knot-merging tolerance.
MIN_GAP_SHARE = 0.2


def _from_gaps(gaps) -> np.ndarray:
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    return x / x[-1]


def knot_positions(n: int):
    """n sorted knots from 0 to 1 (x[-1] / x[-1] is exactly 1)."""
    return st.lists(st.floats(MIN_GAP_SHARE, 1.0), min_size=n - 1, max_size=n - 1) \
        .map(_from_gaps)


@st.composite
def tracks(draw, identity=None):
    """The identity track, or a general track of 3 to 20 knots."""
    if identity is None:
        identity = draw(st.booleans())
    if identity:
        return identity_track()
    k = draw(st.integers(3, 20))
    return make_track(make_pl(draw(knot_positions(k)), draw(knot_positions(k))))


# (a, b, c) of the mix, summing to 1
mix_weights = st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) >= 0.05) \
    .map(lambda w: np.array(w) / sum(w))


@st.composite
def sections(draw, identity=None, bumped=False, max_knots=60):
    """A DiagonalSpec: an admissible Frechet-mix section, or a bumped one (validate=False)."""
    track = draw(tracks(identity))
    tx, ty = track.phi.x, track.phi.y
    u = np.union1d(draw(knot_positions(draw(st.integers(3, max_knots)))), tx)
    p = np.interp(u, tx, ty)
    a, b, c = draw(mix_weights)
    d = a * np.minimum(u, p) + b * np.maximum(u + p - 1.0, 0.0) + c * u * p
    d[0], d[-1] = 0.0, 1.0
    if bumped:
        k = draw(st.integers(1, len(u) - 2))
        d[k] += (u[k] - u[k - 1]) + (p[k] - p[k - 1]) - (d[k] - d[k - 1]) + 1e-3
    return make_diagonal(make_pl(u, d), track, validate=not bumped)


@st.composite
def sections_with_points(draw, identity=None):
    """An admissible section and 1-6 points (x, y): anywhere, at knots, or with y on the track."""
    spec = draw(sections(identity))
    coord = st.floats(0.0, 1.0) | st.sampled_from(list(spec.knots))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(coord)
        y = float(spec.track.phi(x)) if draw(st.booleans()) else draw(coord)
        points.append((x, y))
    return spec, points
