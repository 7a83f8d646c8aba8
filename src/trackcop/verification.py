"""Grid verification, dominance comparison and envelope extraction.

check_grid tests the copula axioms (grounded, margins, rectangle
positivity) and the quasi-copula axioms (monotone, 1-Lipschitz, positivity
on boundary-touching rectangles) on a square grid. compare classifies two
grids as equal, one-sided, or incomparable with a mirror-point witness.
extract_psi recovers the sub-track mass function of a gridded copula by
checkerboard apportionment, and dominating_envelope rebuilds the least
constructed copula that dominates the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .canonical import psi_bounds, quadruplet
from .construction import CopulaCpsi, GridCopula, c_psi_value, make_cpsi
from .errors import BadMesh, MeshMismatch, NoCopulaExists, NotACopula, \
    IneligibleExtractedPsi, TrackSectionMismatch
from .funcspace import INTERNAL_TOL, USER_TOL, PLFunction, eval_pl, variation
from .trackmodel import DiagonalSpec, Track, existence_check


@dataclass(frozen=True)
class VerificationReport:
    grounded: bool
    margins: bool
    monotone: bool
    lipschitz: bool
    two_increasing: bool
    min_cell_volume: float
    worst_cell: Optional[tuple]
    quasi_only_boundary_ok: bool

    @property
    def copula_ok(self) -> bool:
        return self.grounded and self.margins and self.two_increasing

    @property
    def quasi_ok(self) -> bool:
        return (self.grounded and self.margins and self.monotone
                and self.lipschitz and self.quasi_only_boundary_ok)

    def passed(self, mode: str) -> bool:
        return self.copula_ok if mode == "copula" else self.quasi_ok

    def as_dict(self) -> dict:
        return {
            "grounded": self.grounded,
            "margins": self.margins,
            "monotone": self.monotone,
            "lipschitz": self.lipschitz,
            "two_increasing": self.two_increasing,
            "min_cell_volume": self.min_cell_volume,
            "worst_cell": list(self.worst_cell) if self.worst_cell else None,
            "quasi_only_boundary_ok": self.quasi_only_boundary_ok,
            "copula_ok": self.copula_ok,
            "quasi_ok": self.quasi_ok,
        }


def check_grid(grid: GridCopula, mode: str = "copula", tol: float = USER_TOL) -> VerificationReport:
    """Verify the (quasi-)copula axioms on a grid.

    Rectangle positivity for the quasi check only needs rectangles touching
    the boundary of the unit square; by additivity of volumes across mesh
    lines those reduce to adjacent-line monotonicity and Lipschitz checks.

    Tolerances: grounding, margins and 2-increasingness allow an absolute
    INTERNAL_TOL; monotonicity allows an absolute `tol`. The Lipschitz bound
    between adjacent mesh lines a distance dx apart is
    ``diff <= dx * (1 + tol) + INTERNAL_TOL``. The relative slack alone
    fails on the few-ulp rounding of the values in cells so thin that
    dx * tol is below an ulp (a knot ~1e-7 from a mesh line); the absolute
    INTERNAL_TOL covers that rounding.
    """
    mesh, v = grid.mesh, grid.values
    if v.shape != (len(mesh), len(mesh)):
        raise BadMesh("values must be square and match the mesh")
    if mesh[0] != 0.0 or mesh[-1] != 1.0:
        raise BadMesh("mesh must include 0 and 1")
    grounded = bool(np.all(np.abs(v[0, :]) <= INTERNAL_TOL)
                    and np.all(np.abs(v[:, 0]) <= INTERNAL_TOL))
    margins = bool(np.all(np.abs(v[-1, :] - mesh) <= INTERNAL_TOL)
                   and np.all(np.abs(v[:, -1] - mesh) <= INTERNAL_TOL))
    dx = np.diff(mesh)
    diff_x = np.diff(v, axis=0)
    diff_y = np.diff(v, axis=1)
    monotone = bool(np.all(diff_x >= -tol) and np.all(diff_y >= -tol))
    lip_bound = dx * (1.0 + tol) + INTERNAL_TOL
    lipschitz = bool(np.all(diff_x <= lip_bound[:, None])
                     and np.all(diff_y <= lip_bound[None, :]))
    cells = diff_x[:, 1:] - diff_x[:, :-1]
    min_cell = float(cells.min())
    i, j = np.unravel_index(np.argmin(cells), cells.shape)
    worst_cell = (float(mesh[i]), float(mesh[j]))
    two_increasing = min_cell >= -INTERNAL_TOL
    # boundary-anchored rectangles: [0,x] and [x1,x2]x[0,y] families reduce
    # to monotone adjacent lines, [x,1] and [...]x[y,1] to Lipschitz ones.
    boundary_ok = monotone and lipschitz
    return VerificationReport(grounded, margins, monotone, lipschitz,
                              two_increasing, min_cell, worst_cell, boundary_ok)


@dataclass(frozen=True)
class ComparisonResult:
    relation: str  # equal | first-dominates | second-dominates | incomparable
    witness_pair: Optional[tuple]
    product: Optional[float]

    def as_dict(self) -> dict:
        return {
            "relation": self.relation,
            "witness_pair": list(self.witness_pair) if self.witness_pair else None,
            "product": self.product,
        }


def compare(grid1: GridCopula, grid2: GridCopula, tol: float = USER_TOL) -> ComparisonResult:
    """Classify the pointwise order of two grids on the same mesh.

    When neither dominates, the witness is the mirror pair (u, v), (v, u)
    with the most negative product of signed differences.
    """
    if not np.array_equal(grid1.mesh, grid2.mesh):
        raise MeshMismatch("grids are on different meshes")
    d = grid1.values - grid2.values
    if float(np.abs(d).max()) <= tol:
        return ComparisonResult("equal", None, None)
    if bool(np.all(d >= -tol)):
        return ComparisonResult("first-dominates", None, None)
    if bool(np.all(d <= tol)):
        return ComparisonResult("second-dominates", None, None)
    prod = d * d.T
    masked = np.where(prod < 0.0, prod, 0.0)
    if masked.min() < 0.0:
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        witness = (float(grid1.mesh[i]), float(grid1.mesh[j]))
        return ComparisonResult("incomparable", witness, float(prod[i, j]))
    return ComparisonResult("incomparable", None, None)


def pointwise_upper_bound(spec: DiagonalSpec, x: float, y: float, tol: float = USER_TOL) -> float:
    """Largest value any copula with this track section can take at (x, y).

    On the identity track this has the closed form
    min{x, y, max(x,y) - (TV + zeta(x) + zeta(y)) / 2}; in general it is the
    larger of the two extremal constructed copulas, picked by the side of
    the track.
    """
    result = existence_check(spec, tol=tol)
    if not result.exists:
        raise NoCopulaExists(f"no copula with this track section; witness {result.witness}")
    if spec.track.is_identity:
        zx = x - eval_pl(spec.delta, x)
        zy = y - eval_pl(spec.delta, y)
        tv = variation(spec.zeta, min(x, y), max(x, y)).tv
        kappa = max(x, y) - 0.5 * (tv + zx + zy)
        return min(x, y, kappa)
    bounds = psi_bounds(spec, tol=tol)
    low = quadruplet(spec, bounds.psi_low)
    up = quadruplet(spec, bounds.psi_up)
    return max(c_psi_value(spec, low, x, y), c_psi_value(spec, up, x, y))


def _below_track_area(a, b, w, y0, y1):
    """Area of {(u, v): y0 <= v <= min(phi(u), y1)} over one cell.

    phi is linear from a to b across the cell width w. Exact polygon
    clipping of the cell against the track; evaluated via the primitive
    A(t) = integral of max(phi - t, 0).
    """
    def primitive(t):
        t = np.asarray(t, dtype=float)
        full = w * (0.5 * (a + b) - t)
        crossing = np.where(b > a, w * (b - t) ** 2 / (2.0 * np.maximum(b - a, 1e-300)), 0.0)
        out = np.where(t <= a, full, np.where(t >= b, 0.0, crossing))
        return out
    return primitive(y0) - primitive(y1)


def extract_psi(grid: GridCopula, track: Track, tol: float = USER_TOL) -> PLFunction:
    """Cumulative checkerboard mass below or on the track, per mesh column.

    Each cell's volume is spread uniformly over the cell and apportioned by
    the exact area fraction lying below the piecewise-linear track. Mass
    sitting exactly on the track counts as below.
    """
    report = check_grid(grid, mode="copula", tol=tol)
    if not report.copula_ok:
        raise NotACopula("grid fails the copula checks")
    mesh = grid.mesh
    for knot in track.phi.x:
        if np.min(np.abs(mesh - knot)) > INTERNAL_TOL:
            raise BadMesh(f"mesh must include track knot {knot}")
    v = grid.values
    volumes = v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1]
    a = eval_pl(track.phi, mesh[:-1])[:, None]
    b = eval_pl(track.phi, mesh[1:])[:, None]
    w = np.diff(mesh)[:, None]
    y0 = mesh[None, :-1]
    y1 = mesh[None, 1:]
    area = _below_track_area(a, b, w, y0, y1)
    frac = area / (w * (y1 - y0))
    frac = np.clip(frac, 0.0, 1.0)
    col_mass = np.sum(volumes * frac, axis=1)
    psi_vals = np.concatenate(([0.0], np.cumsum(col_mass)))
    return PLFunction(mesh, psi_vals)


def dominating_envelope(grid: GridCopula, track: Track, spec: DiagonalSpec,
                        tol: float = USER_TOL) -> CopulaCpsi:
    """Least constructed copula dominating a gridded copula.

    The grid's track section must match the spec's diagonal to within the
    discretization tolerance 2/n; the extracted mass function must come out
    eligible, otherwise the mesh is too coarse.
    """
    mesh = grid.mesh
    n = len(mesh)
    mesh_tol = 2.0 / n
    phi_mesh = eval_pl(track.phi, mesh)
    idx = np.clip(np.searchsorted(mesh, phi_mesh), 1, n - 1)
    idx = np.where(np.abs(mesh[idx] - phi_mesh) <= np.abs(mesh[idx - 1] - phi_mesh),
                   idx, idx - 1)
    on_mesh = np.abs(mesh[idx] - phi_mesh) <= INTERNAL_TOL
    section = grid.values[np.arange(n)[on_mesh], idx[on_mesh]]
    target = eval_pl(spec.delta, mesh[on_mesh])
    dev = float(np.abs(section - target).max()) if on_mesh.any() else 0.0
    if dev > mesh_tol:
        raise TrackSectionMismatch(f"track section deviates by {dev:.3g} > {mesh_tol:.3g}")
    psi = extract_psi(grid, track, tol=tol)
    candidate = quadruplet(spec, psi, tol=tol)
    if not candidate.eligible:
        raise IneligibleExtractedPsi(candidate.violation or "extracted psi not eligible")
    return make_cpsi(spec, candidate)
