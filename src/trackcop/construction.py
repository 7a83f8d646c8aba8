"""The copula construction itself: values, split, region, grid sampling.

Given a validated spec and an eligible mass function psi, the constructed
copula is

    C(x, y) = min{ x, y, psi(x) - psi(w) + delta(w) },   w = phi_inv(y),

which coincides with min(x, y) outside the band g(x) <= y <= h(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import PsiCandidate
from .errors import BadMesh, IneligiblePsi
from .funcspace import INTERNAL_TOL, PLFunction, eval_pl
from .trackmodel import DiagonalSpec


@dataclass(frozen=True)
class GridCopula:
    """Square grid of values on a shared mesh; first index is the x-argument."""

    mesh: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mesh", np.asarray(self.mesh, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.mesh.flags.writeable = False
        self.values.flags.writeable = False


@dataclass(frozen=True)
class CopulaCpsi:
    """A constructed copula with its region boundary functions."""

    spec: DiagonalSpec
    candidate: PsiCandidate
    g: PLFunction
    h: PLFunction


def _require_eligible(candidate: PsiCandidate):
    if not candidate.eligible:
        raise IneligiblePsi(candidate.violation or "candidate is not eligible")


def _min_knot_between(spec: DiagonalSpec, lo, hi):
    """Whether a knot with exact zero gap lies in [lo, hi] (elementwise).

    On the identity track the copula equals min(x, y) whenever the diagonal
    touches the main diagonal between the two arguments; short-circuiting on
    exact zeros keeps that identity exact in floating point.
    """
    zeros = spec.zeta_zeros
    left = np.searchsorted(zeros, lo, side="left")
    right = np.searchsorted(zeros, hi, side="right")
    return right > left


def c_psi_value(spec: DiagonalSpec, candidate: PsiCandidate, x: float, y: float) -> float:
    """Value of the constructed copula at a single point."""
    _require_eligible(candidate)
    if spec.track.is_identity and _min_knot_between(spec, min(x, y), max(x, y)):
        return min(x, y)
    w = eval_pl(spec.track.phi_inv, y)
    kappa = eval_pl(candidate.psi, x) - eval_pl(candidate.psi, w) + eval_pl(spec.delta, w)
    return min(x, y, kappa)


def s_t_split(spec: DiagonalSpec, candidate: PsiCandidate, x: float, y: float) -> dict:
    """Sub-track and super-track mass of the rectangle [0,x] x [0,y].

    s + t equals the copula value everywhere.
    """
    _require_eligible(candidate)
    s = min(eval_pl(candidate.psi, x), eval_pl(candidate.chi, y))
    t = min(eval_pl(candidate.xi, x), eval_pl(candidate.eta, y))
    return {"s": s, "t": t}


def _search_right(vals: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """np.searchsorted(vals, c, side="right") for each c in levels, called one c at a time.

    Eligibility lets chi and eta dip by up to tol, so vals may be out of
    order by a few ulps on flat stretches. There a binary search's answer
    depends on its probe path, and the array form of searchsorted narrows
    each search from the previous level's result; so unsorted vals get a
    vectorized copy of the full-range bisection instead.
    """
    if np.all(vals[1:] >= vals[:-1]):
        return np.searchsorted(vals, levels, side="right")
    lo = np.zeros(len(levels), dtype=np.intp)
    hi = np.full(len(levels), len(vals), dtype=np.intp)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = lo + ((hi - lo) >> 1)
        right = vals[np.minimum(mid, len(vals) - 1)] <= levels
        lo = np.where(active & right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)


def _rightmost_level(knots: np.ndarray, vals: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """max{y : f(y) <= c} for each c in levels, for an increasing PL f given by (knots, vals).

    Below vals[0] the answer is knots[0] and at or above vals[-1] it is
    knots[-1]; in between, the linear inverse on the segment holding c.
    """
    idx = _search_right(vals, levels)
    right = np.clip(idx, 1, len(vals) - 1)
    lo, hi = vals[right - 1], vals[right]
    x0, x1 = knots[right - 1], knots[right]
    # Both searches leave lo <= c < hi for 0 < idx < len(vals), so a flat
    # segment only comes up at the clipped ends, whose entries are replaced.
    span = np.where(hi != lo, hi - lo, 1.0)
    out = x0 + (levels - lo) * (x1 - x0) / span
    out = np.where(idx >= len(vals), knots[-1], out)
    return np.where(idx == 0, knots[0], out)


def region_functions(spec: DiagonalSpec, candidate: PsiCandidate) -> dict:
    """Boundary functions of the band outside which the copula is min(x, y).

    g(x) is the largest y with chi(y) <= psi(x), clamped to phi(x) to break
    ties on flat stretches (the copula value is unaffected either way);
    h(x) is the largest y with eta(y) <= xi(x).
    """
    _require_eligible(candidate)
    u = candidate.psi.x
    phi_u = eval_pl(spec.track.phi, u)
    g_vals = _rightmost_level(candidate.chi.x, candidate.chi.y, candidate.psi.y)
    h_vals = _rightmost_level(candidate.eta.x, candidate.eta.y, candidate.xi.y)
    g_vals = np.minimum(g_vals, phi_u)
    return {"g": PLFunction(u, g_vals), "h": PLFunction(u, h_vals)}


def make_cpsi(spec: DiagonalSpec, candidate: PsiCandidate) -> CopulaCpsi:
    region = region_functions(spec, candidate)
    return CopulaCpsi(spec, candidate, region["g"], region["h"])


def _validate_mesh(mesh) -> np.ndarray:
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1 or len(mesh) < 3:
        raise BadMesh("mesh must be 1-d with at least 3 points")
    if not np.all(np.isfinite(mesh)):
        raise BadMesh("mesh must be finite")
    if np.any(np.diff(mesh) <= 0):
        raise BadMesh("mesh must be strictly increasing")
    if mesh[0] != 0.0 or mesh[-1] != 1.0:
        raise BadMesh("mesh must include 0 and 1")
    return mesh


def c_psi_grid_values(spec: DiagonalSpec, candidate: PsiCandidate, mesh: np.ndarray) -> np.ndarray:
    """Vectorized grid of copula values; rows index the x-argument."""
    psi_x = eval_pl(candidate.psi, mesh)
    w = eval_pl(spec.track.phi_inv, mesh)
    col = eval_pl(spec.delta, w) - eval_pl(candidate.psi, w)
    kappa = psi_x[:, None] + col[None, :]
    m = np.minimum(mesh[:, None], mesh[None, :])
    values = np.minimum(m, kappa)
    if spec.track.is_identity and len(spec.zeta_zeros):
        zeros = spec.zeta_zeros
        lo = np.minimum(mesh[:, None], mesh[None, :])
        hi = np.maximum(mesh[:, None], mesh[None, :])
        has_zero = np.searchsorted(zeros, hi, side="right") > np.searchsorted(zeros, lo, side="left")
        values = np.where(has_zero, m, values)
    return values


def materialize_grid(spec: DiagonalSpec, candidate: PsiCandidate, mesh) -> GridCopula:
    """Sample the constructed copula on a mesh containing 0 and 1."""
    _require_eligible(candidate)
    mesh = _validate_mesh(mesh)
    return GridCopula(mesh, c_psi_grid_values(spec, candidate, mesh))


def min_equals_cases(spec: DiagonalSpec, candidate: PsiCandidate, x: float, y: float,
                     tol: float = INTERNAL_TOL) -> dict:
    """Which branch of the case formula is active at (x, y).

    Ties at branch boundaries report "kappa"; all expressions agree there by
    continuity.
    """
    _require_eligible(candidate)
    w = eval_pl(spec.track.phi_inv, y)
    kappa = eval_pl(candidate.psi, x) - eval_pl(candidate.psi, w) + eval_pl(spec.delta, w)
    if kappa <= min(x, y) + tol:
        branch = "kappa"
    elif x <= y:
        branch = "upper-M"
    else:
        branch = "lower-M"
    return {"branch": branch, "value": min(x, y, kappa)}
