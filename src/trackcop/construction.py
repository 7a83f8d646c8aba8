"""The copula construction itself: values, split, region, grid sampling.

Given a validated spec and an eligible mass function psi, the constructed
copula is

    C(x, y) = min{ x, y, psi(x) - psi(w) + delta(w) },   w = phi_inv(y),

which coincides with min(x, y) outside the band g(x) <= y <= h(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .canonical import PsiCandidate
from .errors import BadMesh, IneligiblePsi
from .funcspace import INTERNAL_TOL, PLFunction, _eval_pair, eval_pl
from .trackmodel import DiagonalSpec


@dataclass(frozen=True)
class GridCopula:
    """n x n values on an n-point mesh _validate_mesh accepts, first index x; a row-block source."""

    mesh: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mesh", _validate_mesh(self.mesh))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.mesh), len(self.mesh)):
            raise BadMesh("values must be square and match the mesh")
        self.mesh.flags.writeable = False
        self.values.flags.writeable = False

    def block(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        return self.values[rows, cols]


@dataclass(frozen=True)
class CopulaCpsi:
    """A constructed copula; its region boundary functions g and h are computed on first access."""

    spec: DiagonalSpec
    candidate: PsiCandidate

    @cached_property
    def g(self) -> PLFunction:
        return region_functions(self.spec, self.candidate)["g"]

    @cached_property
    def h(self) -> PLFunction:
        return region_functions(self.spec, self.candidate)["h"]


def _require_eligible(candidate: PsiCandidate):
    if not candidate.eligible:
        raise IneligiblePsi(candidate.violation or "candidate is not eligible")


def _kappa(spec: DiagonalSpec, psi: PLFunction, x: float, y: float) -> float:
    """psi(x) - psi(w) + delta(w) at w = phi_inv(y), the third term of the case formula.

    A psi on the spec's knots shares delta's knot array, so one binary
    search finds both values at w.
    """
    w = eval_pl(spec.track.phi_inv, y)
    psi_w, delta_w = _eval_pair(psi, spec.delta, w)
    return eval_pl(psi, x) - psi_w + delta_w


def _kappa_pair(spec: DiagonalSpec, f: PLFunction, g: PLFunction, x: float, y: float) -> tuple:
    """(_kappa(spec, f, x, y), _kappa(spec, g, x, y)), bit for bit.

    For f and g on one knot array this takes four binary searches, not six:
    phi_inv at y, f and g at x, f and g at w, and delta at w.
    """
    w = eval_pl(spec.track.phi_inv, y)
    f_x, g_x = _eval_pair(f, g, x)
    f_w, g_w = _eval_pair(f, g, w)
    delta_w = eval_pl(spec.delta, w)
    return f_x - f_w + delta_w, g_x - g_w + delta_w


def c_psi_value(spec: DiagonalSpec, candidate: PsiCandidate, x: float, y: float) -> float:
    """Value of the constructed copula at a single point: min(x, y, kappa) on every track.

    It costs a few binary searches on the knots.
    """
    _require_eligible(candidate)
    return min(x, y, _kappa(spec, candidate.psi, x, y))


def s_t_split(spec: DiagonalSpec, candidate: PsiCandidate, x: float, y: float) -> dict:
    """Sub-track and super-track mass of the rectangle [0,x] x [0,y].

    s + t equals the copula value everywhere.
    """
    _require_eligible(candidate)
    psi_x, xi_x = _eval_pair(candidate.psi, candidate.xi, x)
    chi_y, eta_y = _eval_pair(candidate.chi, candidate.eta, y)
    return {"s": min(psi_x, chi_y), "t": min(xi_x, eta_y)}


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
    h(x) is the largest y with eta(y) <= xi(x). chi is carried on phi at
    psi's knots, so its abscissas are the clamp.
    """
    _require_eligible(candidate)
    u = candidate.psi.x
    g_vals = _rightmost_level(candidate.chi.x, candidate.chi.y, candidate.psi.y)
    h_vals = _rightmost_level(candidate.eta.x, candidate.eta.y, candidate.xi.y)
    g_vals = np.minimum(g_vals, candidate.chi.x)
    return {"g": PLFunction(u, g_vals), "h": PLFunction(u, h_vals)}


def make_cpsi(spec: DiagonalSpec, candidate: PsiCandidate) -> CopulaCpsi:
    _require_eligible(candidate)
    return CopulaCpsi(spec, candidate)


def _validate_mesh(mesh, knots=()) -> np.ndarray:
    """mesh as a float array, checked; it must also hold each of `knots` to INTERNAL_TOL."""
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1 or len(mesh) < 3:
        raise BadMesh("mesh must be 1-d with at least 3 points")
    if not np.all(np.isfinite(mesh)):
        raise BadMesh("mesh must be finite")
    if np.any(np.diff(mesh) <= 0):
        raise BadMesh("mesh must be strictly increasing")
    if mesh[0] != 0.0 or mesh[-1] != 1.0:
        raise BadMesh("mesh must include 0 and 1")
    knots = np.asarray(knots, dtype=float)
    # the nearest mesh point to a knot is one of the two around its insertion point
    right = np.minimum(np.searchsorted(mesh, knots), len(mesh) - 1)
    gap = np.minimum(np.abs(mesh[right] - knots), np.abs(mesh[np.maximum(right - 1, 0)] - knots))
    far = np.flatnonzero(gap > INTERNAL_TOL)
    if len(far):
        raise BadMesh(f"mesh must include track knot {knots[far[0]]}")
    return mesh


# Bytes of one row block of an n x n float grid. The grid kernels take every
# n x n quantity a block at a time, so their temporaries stay a few blocks
# however large the mesh.
_BLOCK_BYTES = 192 * 1024


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices covering range(n_rows), each about _BLOCK_BYTES of floats."""
    step = max(1, _BLOCK_BYTES // (8 * n_cols))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


# A row-block source is a grid: it has a `mesh` and `block(rows,
# cols=slice(None))`, the n x n values' [rows, cols] as a fresh or read-only
# array. A GridCopula is one; a construction, a splice and a grid file are
# others that are never held whole. The grid kernels read sources, so the same
# kernel checks any of them.

class _ConstructionRows:
    """Row-block source of the constructed copula's values on a mesh holding 0 and 1.

    psi at the mesh and the column term delta(w) - psi(w), w = phi_inv(y),
    are evaluated once; a block then costs one addition and two clamps per
    cell. min is exact, so the order of the two clamps does not change a bit.
    """

    def __init__(self, spec: DiagonalSpec, candidate: PsiCandidate, mesh, knots=()):
        self.mesh = _validate_mesh(mesh, knots)
        self._psi = eval_pl(candidate.psi, self.mesh)
        w = eval_pl(spec.track.phi_inv, self.mesh)
        self._col = eval_pl(spec.delta, w) - eval_pl(candidate.psi, w)

    def block(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        kappa = self._psi[rows, None] + self._col[None, cols]
        np.minimum(kappa, self.mesh[rows, None], out=kappa)
        return np.minimum(kappa, self.mesh[None, cols], out=kappa)


def _feed(source, *sinks):
    """Compute each row block of a source once and hand it to every sink's add(rows, block).

    The blocks arrive in row order, so a sink may carry state from one
    block to the next.
    """
    n = len(source.mesh)
    for rows in _row_blocks(n, n):
        block = source.block(rows)
        for sink in sinks:
            sink.add(rows, block)


def _fill(source) -> GridCopula:
    """The source's whole grid, allocated once and filled a row block at a time."""
    n = len(source.mesh)
    values = np.empty((n, n))
    for rows in _row_blocks(n, n):
        values[rows] = source.block(rows)
    return GridCopula(source.mesh, values)


def materialize_grid(spec: DiagonalSpec, candidate: PsiCandidate, mesh) -> GridCopula:
    """Sample the constructed copula on a mesh containing 0 and 1."""
    _require_eligible(candidate)
    return _fill(_ConstructionRows(spec, candidate, mesh))
