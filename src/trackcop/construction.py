"""The copula construction itself: values, split, region, grid sampling.

Given an eligible candidate, which carries psi and the validated spec it
was judged against, the constructed copula is

    C(x, y) = min{ x, y, psi(x) - psi(w) + delta(w) },   w = phi_inv(y),

which coincides with min(x, y) outside the band g(x) <= y <= h(x). With
the quadruplet's eta(y) = delta(w) - psi(w), stored on the track-image
knots, the third term is psi(x) + eta(y), so a point query reads psi at x
and eta at y and nothing else; the grid kernel takes delta(w) - psi(w) on
the mesh instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import PsiCandidate, _same_spec
from .errors import BadMesh, IneligiblePsi, SpecMismatch
from .funcspace import INTERNAL_TOL, eval_pl
from .trackmodel import DiagonalSpec


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class CopulaCpsi:
    """A constructed copula: the eligible candidate, with its spec, whose C_psi it is."""

    candidate: PsiCandidate


def _require_eligible(candidate: PsiCandidate):
    if not candidate.eligible:
        raise IneligiblePsi(candidate.violation or "candidate is not eligible")


def _require_own_eligible(spec: DiagonalSpec, candidate: PsiCandidate):
    """Raise SpecMismatch for a candidate built for another spec, then as _require_eligible."""
    # the `is` test first: the common case costs no call
    if candidate.spec is not spec and not _same_spec(candidate.spec, spec):
        raise SpecMismatch("candidate was built for a different spec")
    _require_eligible(candidate)


def c_psi_value(spec: DiagonalSpec, candidate: PsiCandidate, x: float, y: float) -> float:
    """Value of the constructed copula at a single point: min(x, y, psi(x) + eta(y)) on every track.

    It costs two knot searches, psi's at x and eta's at y, each through its
    function's scalar evaluator with eval_pl's scalar bits, so the value is
    the batch form's, np.interp of psi and of eta. Raises SpecMismatch when
    candidate was built for a different spec.
    """
    _require_own_eligible(spec, candidate)
    return min(x, y, candidate.psi._point(x) + candidate.eta._point(y))


def s_t_split(spec: DiagonalSpec, candidate: PsiCandidate, x: float, y: float) -> dict:
    """Sub-track and super-track mass of the rectangle [0,x] x [0,y].

    s = min(psi(x), y - eta(y)) and t = min(x - psi(x), eta(y)), from the
    two knot searches of c_psi_value; s + t equals the copula value up to
    rounding. Raises SpecMismatch as c_psi_value does.
    """
    _require_own_eligible(spec, candidate)
    psi_x, eta_y = candidate.psi._point(x), candidate.eta._point(y)
    return {"s": min(psi_x, y - eta_y), "t": min(x - psi_x, eta_y)}


def _rightmost_level(knots: np.ndarray, vals: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """max{y : f(y) <= c} for each c in levels, for a PL f given by (knots, vals) that may dip.

    One np.interp(levels, m, knots) on m, the suffix minimum of vals
    (m[i] = min(vals[i:])); m is vals itself, with its bits, where vals is
    nondecreasing. The last knot with vals <= c is the last with m <= c, so
    the answer lies on the segment after that knot, as the definition's
    does: knots[0] below m[0], knots[-1] at or above vals[-1], the last knot
    of a flat run at its level, and slope * (c - lo) + x0 in between.
    np.interp's search starts from the previous level's segment, so sorted
    levels cost linear time. The three arrays should be writeable and m is
    built contiguous: np.interp copies any other argument.

    On a segment that rises by only a few subnormals np.interp's slope
    (x1 - x0) / (hi - lo) overflows, and the answer would be inf. Those
    answers alone are taken again on their segment with the ratio first,
    x0 + (c - lo) / (hi - lo) * (x1 - x0), which lies in [x0, x1].

    Eligibility lets chi and eta dip by up to tol + INTERNAL_TOL: a fall of
    either over an interval is at most the fall there of psi - psi_L or of
    psi_U - psi, which the band test allows. m lies at most that far below
    vals, so between knots the answer is f's own level set to within
    tol + INTERNAL_TOL in value.
    """
    if np.any(vals[1:] < vals[:-1]):
        m = np.empty_like(vals)
        np.minimum.accumulate(vals[::-1], out=m[::-1])
        vals = m
    out = np.interp(levels, vals, knots)
    bad = np.flatnonzero(np.isinf(out))
    if len(bad):
        c = levels[bad]
        j = np.searchsorted(vals, c, side="right")  # c lies in [vals[j - 1], vals[j])
        lo, hi, x0, x1 = vals[j - 1], vals[j], knots[j - 1], knots[j]
        out[bad] = x0 + (c - lo) / (hi - lo) * (x1 - x0)
    return out


def region_functions(spec: DiagonalSpec, candidate: PsiCandidate) -> dict:
    """Boundary functions of the band outside which the copula is min(x, y).

    g(x) is the largest y with chi(y) <= psi(x), clamped to phi(x) to break
    ties on flat stretches (the copula value is unaffected either way);
    h(x) is the largest y with eta(y) <= xi(x). chi is carried on phi at
    psi's knots, the candidate's `_on_phi`, so its abscissas are the clamp.
    Each is one _rightmost_level pass on its companion's suffix minimum: it
    lies on the segment after the companion's last knot at or below the
    level, and within the companion's dip, at most tol + INTERNAL_TOL in
    value, of the companion's own level set.

    The values of chi and xi are temporaries, with the bits of the
    candidate's properties, which stay unread; eta is read, and so kept,
    since the point queries read it too. _rightmost_level is an array
    kernel, so this is the one function outside funcspace to hand np.interp
    PLFunction's writeable aliases itself. Raises SpecMismatch as
    c_psi_value does.
    """
    _require_own_eligible(spec, candidate)
    psi, eta, on_phi = candidate.psi, candidate.eta, candidate._on_phi
    g_vals = _rightmost_level(on_phi._wx, candidate._chi_values(), psi._wy)
    h_vals = _rightmost_level(eta._wx, eta._wy, candidate._xi_values())
    np.minimum(g_vals, on_phi.x, out=g_vals)
    return {"g": psi._on_knots(g_vals), "h": psi._on_knots(h_vals)}


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
        raise BadMesh(f"mesh must include knot {knots[far[0]]}")
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
    """Row-block source of a candidate's C_psi, read off its spec, on a mesh holding 0 and 1.

    psi at the mesh and the column term delta(w) - psi(w), w = phi_inv(y),
    are evaluated once; a block then costs one addition and two clamps per
    cell. min is exact, so the order of the two clamps does not change a bit.
    """

    def __init__(self, candidate: PsiCandidate, mesh, knots=()):
        self.mesh = _validate_mesh(mesh, knots)
        self._psi = eval_pl(candidate.psi, self.mesh)
        w = eval_pl(candidate.spec.track.phi_inv, self.mesh)
        self._col = eval_pl(candidate.spec.delta, w) - eval_pl(candidate.psi, w)

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
    """Sample the constructed copula on a mesh holding 0 and 1; raises as c_psi_value does."""
    _require_own_eligible(spec, candidate)
    return _fill(_ConstructionRows(candidate, mesh))
