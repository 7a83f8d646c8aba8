"""Differential harness for the 1-D chain: SHA-256 digests of its outputs on seeded sections.

Each section is a seeded Frechet mix aM + bW + cPi read along its track,
on the identity track and on a 9-knot general track, at 300, 3 000 and
30 000 knots. For each the manifest gives one line per output, the
SHA-256 of its float64 bytes or of its text:

    band                   psi_L and psi_U on the spec's knots
    verdicts               existence, and the quadruplet and eligibility_by_variation
                           verdicts of every candidate and of four more psi
    region                 g and h of every candidate
    c_psi_value            every candidate at every point
    s_t_split              s and t of every candidate at every point
    pointwise_upper_bound  the bound at every point

The candidates are psi_L, psi_U, a blend of the two, and the blend again on
knots of its own, which quadruplet merges with the spec's. The four more
psi are judged only: psi_L and psi_U, psi_L lowered by 1e-6 at one interior
knot and psi_U raised by 1e-6 at one, each at the default tol and at tol 0,
so that ineligible verdicts and their witnesses are digested too. The
points are random pairs and pairs at knots of psi and of eta and their
float neighbours, passed as Python floats and as np.float64.

Compare this checkout with another in one command:

    python tests/point_manifest.py --against /path/to/other/checkout

It runs as tests/cli_manifest.py does, with that file's --against code:
a unified diff and exit 1 when the manifests differ, one `#` line and exit
0 when they match, exit 2 when the other checkout has no src/trackcop or
the harness fails there. Without --against it prints this checkout's
manifest. The harness uses only trackcop's public names and numpy, so it
runs against any checkout that has them. Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

SIZES = (300, 3_000, 30_000)
N_POINTS = 200


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def jittered(rng, n: int) -> np.ndarray:
    """n knots from 0 to 1, each interior one moved by up to 0.4 of the mean gap."""
    base = np.arange(n, dtype=float)
    base[1:-1] += 0.8 * (rng.random(n - 2) - 0.5)
    return base / (n - 1)


def section(tc, rng, n: int, identity: bool):
    """A spec: delta = C(u, phi(u)) for a Frechet mix C, on the union of n knots and the track's."""
    if identity:
        track, tx, ty = tc.identity_track(), np.array([0.0, 1.0]), np.array([0.0, 1.0])
    else:
        tx, ty = jittered(rng, 9), jittered(rng, 9)
        track = tc.make_track(tc.make_pl(tx, ty))
    u = np.union1d(jittered(rng, n), tx)
    p = np.interp(u, tx, ty)
    a, b, c = rng.dirichlet([1.0, 1.0, 1.0])
    d = a * np.minimum(u, p) + b * np.maximum(u + p - 1.0, 0.0) + c * u * p
    d[0], d[-1] = 0.0, 1.0
    return tc.make_diagonal(tc.make_pl(u, d), track)


def probe_points(rng, knots: np.ndarray) -> np.ndarray:
    """50 of the knots, their float neighbours inside [0, 1], and 0 and 1."""
    picks = knots[rng.integers(0, len(knots), 50)]
    pts = np.concatenate((picks, np.nextafter(picks, 0.0), np.nextafter(picks, 1.0), [0.0, 1.0]))
    return pts[(pts >= 0.0) & (pts <= 1.0)]


def band_and_off_band(tc, bounds) -> list:
    """psi_L, psi_U, psi_L lowered by 1e-6 at one interior knot and psi_U raised at another."""
    low, up = bounds.psi_low, bounds.psi_up
    n = len(low.x)
    lowered, raised = low.y.copy(), up.y.copy()
    lowered[n // 3] -= 1e-6
    raised[2 * n // 3] += 1e-6
    return [low, up, tc.PLFunction(low.x, lowered), tc.PLFunction(up.x, raised)]


def judged(tc, spec, psi, tol) -> str:
    """quadruplet's eligible and violation, then eligibility_by_variation's eligible and witness.

    tol None is each function's default tol.
    """
    args = (spec, psi) if tol is None else (spec, psi, tol)
    cand, by_variation = tc.quadruplet(*args), tc.eligibility_by_variation(*args)
    return repr((cand.eligible, cand.violation, by_variation.eligible, by_variation.witness))


def section_lines(tc, seed: int, n: int, identity: bool) -> list:
    rng = np.random.default_rng([seed, n, int(identity)])
    spec = section(tc, rng, n, identity)
    bounds = tc.psi_bounds(spec)
    low, up = tc.quadruplet(spec, bounds.psi_low), tc.quadruplet(spec, bounds.psi_up)
    mix = tc.blend(low, up, float(rng.random()))
    own_knots = np.union1d(spec.knots, rng.random(7))
    own = tc.quadruplet(spec, tc.PLFunction(own_knots, tc.eval_pl(mix.psi, own_knots)))
    cands = (low, up, mix, own)
    existence = tc.existence_check(spec)
    verdicts = [repr((existence.exists, existence.witness))]
    verdicts += [repr((c.eligible, c.violation, tc.eligibility_by_variation(spec, c.psi).witness))
                 for c in cands]
    verdicts += [judged(tc, spec, psi, tol) for psi in band_and_off_band(tc, bounds)
                 for tol in (None, 0.0)]
    regions = [tc.region_functions(spec, c) for c in cands]
    xs = np.concatenate((rng.random(N_POINTS), probe_points(rng, mix.psi.x)))
    ys = np.concatenate((rng.random(N_POINTS), probe_points(rng, mix.eta.x)))
    m = min(len(xs), len(ys))
    points = [(float(x), float(y)) if k % 2 else (np.float64(x), np.float64(y))
              for k, (x, y) in enumerate(zip(xs[:m], ys[:m]))]
    values = [tc.c_psi_value(spec, c, x, y) for c in cands for x, y in points]
    splits = [tc.s_t_split(spec, c, x, y) for c in cands for x, y in points]
    bounds_at = [tc.pointwise_upper_bound(spec, x, y) for x, y in points]
    return [
        f"# {'identity' if identity else 'general-track'} section, {len(spec.knots)} knots",
        f"  band {digest([bounds.psi_low.x, bounds.psi_low.y, bounds.psi_up.y])}",
        f"  verdicts {hashlib.sha256(chr(10).join(verdicts).encode()).hexdigest()}",
        f"  region {digest(np.concatenate([r[k].y for r in regions for k in 'gh']))}",
        f"  c_psi_value {digest(values)}",
        f"  s_t_split {digest([[split['s'], split['t']] for split in splits])}",
        f"  pointwise_upper_bound {digest(bounds_at)}",
    ]


def full_manifest() -> list:
    """The lines the script prints: each section's, then their count."""
    import trackcop as tc

    lines = [line for n in SIZES for identity in (True, False)
             for line in section_lines(tc, 31, n, identity)]
    return lines + [f"# {len(SIZES) * 2} sections"]


if __name__ == "__main__":
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))
    from cli_manifest import main

    sys.exit(main(script=__file__, lines=full_manifest))
