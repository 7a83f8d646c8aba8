"""Hypothesis strategies for random tracks and track sections.

An admissible section is drawn as delta(x) = C(x, phi(x)) for a
Frechet-Mardia mix C = a*M + b*W + c*Pi (a + b + c = 1), sampled at knots
that include every knot of the track phi, the construction the benchmark's
generator uses. C is 1-Lipschitz in each argument and bounded by M, and
min(x, phi(x)) is concave on each knot interval, so the piecewise-linear
interpolant keeps conditions (a)-(d) and the existence criterion. A bumped
section raises delta at one interior knot past the slope bound, which breaks
the Lipschitz form of existence on that segment.

A shuffle section is the track section of a straight shuffle of Min, an
exact copula whose section sits on the bounds of conditions (c) and (d)
over whole segments; it comes with the copula itself, vectorized.
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
def tracks(draw, identity=None, max_knots=20):
    """The identity track, or a general track of 3 to max_knots knots."""
    if identity is None:
        identity = draw(st.booleans())
    if identity:
        return identity_track()
    k = draw(st.integers(3, max_knots))
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


def shuffle_copula(sigma):
    """C(x, y), vectorized, of the straight shuffle of Min moving strip i of n to place sigma[i].

    Strip i carries mass 1/n on the segment y = x + (sigma[i] - i)/n over
    [i/n, (i+1)/n], so C(x, y) = sum_i max(0, min(x, (i+1)/n, y - shift_i) - i/n).
    """
    n = len(sigma)
    lo, hi = np.arange(n) / n, np.arange(1, n + 1) / n
    shift = (np.asarray(sigma) - np.arange(n)) / n

    def copula(x, y):
        x, y = np.asarray(x, dtype=float)[..., None], np.asarray(y, dtype=float)[..., None]
        return np.maximum(np.minimum(np.minimum(x, hi), y - shift) - lo, 0.0).sum(axis=-1)

    return copula, shift


@st.composite
def shuffles(draw, identity=None):
    """(sigma, track): a permutation of 2-8 strips, and the identity or a 3-5 knot track."""
    sigma = draw(st.permutations(range(draw(st.integers(2, 8)))))
    return sigma, draw(tracks(identity, max_knots=5))


def shuffle_sections(identity=None):
    """(spec, C) for the shuffle and track of shuffles(identity); see shuffle_section."""
    return shuffles(identity).map(lambda drawn: shuffle_section(*drawn))


def shuffle_section(sigma, track):
    """(spec, C): delta(u) = C(u, phi(u)) for C the straight shuffle of Min sigma.

    delta's knots are every kink of C along the track: i/n, phi_inv(j/n),
    the track's knots, and where each track segment crosses a strip's mass
    segment. So delta is C's section up to rounding, with slopes in
    {0, 1, phi', 1 + phi'}.
    """
    copula, shift = shuffle_copula(sigma)
    n = len(sigma)
    tx, ty = track.phi.x, track.phi.y
    slope = np.diff(ty) / np.diff(tx)
    with np.errstate(divide="ignore", invalid="ignore"):  # slope 1: parallel, or on the segment
        cross = (ty[:-1, None] - slope[:, None] * tx[:-1, None] - shift) / (1.0 - slope[:, None])
    strip = np.arange(n) / n
    inside = (tx[:-1, None] < cross) & (cross < tx[1:, None]) \
        & (strip < cross) & (cross < strip + 1.0 / n)
    u = np.unique(np.concatenate((np.linspace(0.0, 1.0, n + 1), track.phi_inv(strip), tx,
                                  cross[inside])))
    d = copula(u, track.phi(u))
    d[0], d[-1] = 0.0, 1.0
    return make_diagonal(make_pl(u, d), track), copula
