"""Seeded inputs for the benchmark workloads.

Every admissible section is drawn as delta(x) = C(x, phi(x)) for a
Frechet-Mardia mix C = a*M + b*W + c*Pi (a + b + c = 1), sampled at knots
that include every knot of the track phi. C is 1-Lipschitz in each argument
and bounded by M, and on each knot interval min(x, phi(x)) is the minimum of
two linear functions, hence concave; so the piecewise-linear interpolant
keeps conditions (a)-(d) and the existence criterion. An inadmissible
section is an admissible one with a local bump that breaks the Lipschitz
form of existence on one segment.

The library only ever sees the plain knot arrays produced here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Neighbouring knots stay at least this share of the mean spacing apart, so
# no draw comes near the library's knot-merging tolerance.
MIN_GAP_SHARE = 0.2


@dataclass(frozen=True)
class Section:
    """Knot data of one generated problem; `admissible` is known by construction."""

    track_x: np.ndarray
    track_y: np.ndarray
    delta_x: np.ndarray
    delta_y: np.ndarray
    admissible: bool

    @property
    def identity(self) -> bool:
        return len(self.track_x) == 2

    def phi(self, x):
        return np.interp(x, self.track_x, self.track_y)

    def delta(self, x):
        return np.interp(x, self.delta_x, self.delta_y)


def jittered_knots(rng: np.random.Generator, n: int) -> np.ndarray:
    """n sorted knots from 0 to 1 with every gap >= MIN_GAP_SHARE / (n - 1)."""
    base = np.arange(n, dtype=float)
    base[1:-1] += (1.0 - MIN_GAP_SHARE) * (rng.random(n - 2) - 0.5)
    return base / (n - 1)


def random_track(rng: np.random.Generator, k: int):
    """Strictly increasing PL bijection of [0, 1] with k knots (k=2: identity)."""
    x = jittered_knots(rng, k)
    y = jittered_knots(rng, k)
    return x, y


def identity_knots():
    return np.array([0.0, 1.0]), np.array([0.0, 1.0])


def frechet_mix_section(rng: np.random.Generator, track, n_knots: int) -> Section:
    """Admissible section on about n_knots knots, refined by the track's knots."""
    tx, ty = track
    u = np.union1d(jittered_knots(rng, n_knots), tx)
    p = np.interp(u, tx, ty)
    a, b, c = rng.dirichlet((1.0, 1.0, 1.0))
    d = a * np.minimum(u, p) + b * np.maximum(u + p - 1.0, 0.0) + c * u * p
    d[0], d[-1] = 0.0, 1.0
    return Section(tx, ty, u, d, True)


def bump(rng: np.random.Generator, s: Section) -> Section:
    """Raise delta at one interior knot past the slope bound of condition (d)."""
    k = int(rng.integers(1, len(s.delta_x) - 1))
    u, d = s.delta_x, s.delta_y.copy()
    p = s.phi(u)
    slack = (u[k] - u[k - 1]) + (p[k] - p[k - 1]) - (d[k] - d[k - 1])
    d[k] += slack + 1e-3
    return Section(s.track_x, s.track_y, u, d, False)


def log_strata_midpoints(lo: float, hi: float, count: int) -> np.ndarray:
    """Midpoints of `count` equal strata of [lo, hi] on a log scale.

    Taking each once per cycle gives a log-uniform mix of sizes with no
    sampling noise in the mix itself.
    """
    q = (np.arange(count) + 0.5) / count
    return np.rint(np.exp(np.log(lo) + q * (np.log(hi) - np.log(lo)))).astype(int)
