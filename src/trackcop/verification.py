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

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .canonical import psi_bounds, quadruplet
from .construction import CopulaCpsi, GridCopula, _kappa_pair, _row_blocks, _validate_mesh, \
    make_cpsi
from .errors import MeshMismatch, NotACopula, IneligibleExtractedPsi, IneligiblePsi, \
    TrackSectionMismatch
from .funcspace import INTERNAL_TOL, USER_TOL, PLFunction, check_tol, eval_pl
from .trackmodel import DiagonalSpec, Track


@dataclass(frozen=True)
class VerificationReport:
    grounded: bool
    margins: bool
    monotone: bool
    lipschitz: bool
    two_increasing: bool
    min_cell_volume: float
    worst_cell: Optional[tuple]

    @property
    def copula_ok(self) -> bool:
        return self.grounded and self.margins and self.two_increasing

    @property
    def quasi_ok(self) -> bool:
        # Positivity on boundary-touching rectangles needs no check of its
        # own: by additivity of volumes across mesh lines the [0,x] families
        # reduce to monotone adjacent lines and the [x,1] ones to Lipschitz.
        return self.grounded and self.margins and self.monotone and self.lipschitz

    def as_dict(self) -> dict:
        return {**asdict(self), "copula_ok": self.copula_ok, "quasi_ok": self.quasi_ok}


def check_grid(grid: GridCopula, mode: str = "copula", tol: float = USER_TOL) -> VerificationReport:
    """Verify the (quasi-)copula axioms on a grid.

    Rectangle positivity for the quasi check only needs rectangles touching
    the boundary of the unit square; by additivity of volumes across mesh
    lines those reduce to adjacent-line monotonicity and Lipschitz checks.

    Tolerances: grounding, margins and 2-increasingness allow an absolute
    INTERNAL_TOL. Between adjacent mesh lines a distance dx apart, the
    monotone and Lipschitz checks take `tol` plus the same absolute
    INTERNAL_TOL: ``diff >= -(tol + INTERNAL_TOL)`` and
    ``diff <= dx * (1 + tol) + INTERNAL_TOL``. INTERNAL_TOL covers the
    few-ulp rounding of the values, which `tol` alone does not at tol 0
    (a step of -5.6e-17 on an exact copula) nor, relative to dx, in cells
    so thin that dx * tol is below an ulp (a knot ~1e-7 from a mesh line).
    """
    check_tol(tol)
    mesh, v = grid.mesh, grid.values
    grounded = bool(np.all(np.abs(v[0, :]) <= INTERNAL_TOL)
                    and np.all(np.abs(v[:, 0]) <= INTERNAL_TOL))
    margins = bool(np.all(np.abs(v[-1, :] - mesh) <= INTERNAL_TOL)
                   and np.all(np.abs(v[:, -1] - mesh) <= INTERNAL_TOL))
    n = len(mesh)
    step_floor = -(tol + INTERNAL_TOL)
    lip_bound = np.diff(mesh) * (1.0 + tol) + INTERNAL_TOL
    monotone = lipschitz = True
    min_cell, worst = None, None
    for rows in _row_blocks(n - 1, n):
        # the block's rows of v and the next one, which the x-differences need;
        # that row's y-differences are checked twice, to the same verdict
        vb = v[rows.start:rows.stop + 1]
        diff_x = np.diff(vb, axis=0)
        diff_y = np.diff(vb, axis=1)
        monotone = monotone and bool(np.all(diff_x >= step_floor)
                                     and np.all(diff_y >= step_floor))
        lipschitz = lipschitz and bool(np.all(diff_x <= lip_bound[rows, None])
                                       and np.all(diff_y <= lip_bound[None, :]))
        cells = diff_x[:, 1:] - diff_x[:, :-1]
        k = int(np.argmin(cells))
        value = float(cells.flat[k])
        # the first occurrence of the least volume (or of a NaN), as np.argmin
        # over all cells would find it
        if min_cell is None or value < min_cell or (np.isnan(value) and not np.isnan(min_cell)):
            min_cell = value
            worst = (rows.start + k // cells.shape[1], k % cells.shape[1])
    worst_cell = (float(mesh[worst[0]]), float(mesh[worst[1]]))
    two_increasing = min_cell >= -INTERNAL_TOL
    return VerificationReport(grounded, margins, monotone, lipschitz,
                              two_increasing, min_cell, worst_cell)


@dataclass(frozen=True)
class ComparisonResult:
    relation: str  # equal | first-dominates | second-dominates | incomparable
    witness_pair: Optional[tuple]
    product: Optional[float]

    def as_dict(self) -> dict:
        return asdict(self)


def compare(grid1: GridCopula, grid2: GridCopula, tol: float = USER_TOL) -> ComparisonResult:
    """Classify the pointwise order of two grids on the same mesh.

    When neither dominates, the witness is the mirror pair (u, v), (v, u)
    with the most negative product of signed differences.
    """
    check_tol(tol)
    if not np.array_equal(grid1.mesh, grid2.mesh):
        raise MeshMismatch("grids are on different meshes")
    v1, v2 = grid1.values, grid2.values
    n = len(grid1.mesh)
    equal = first = second = True
    for rows in _row_blocks(n, n):
        d = v1[rows] - v2[rows]
        equal = equal and float(np.abs(d).max()) <= tol
        first = first and bool(np.all(d >= -tol))
        second = second and bool(np.all(d <= tol))
        if not (equal or first or second):
            break
    if equal:
        return ComparisonResult("equal", None, None)
    if first:
        return ComparisonResult("first-dominates", None, None)
    if second:
        return ComparisonResult("second-dominates", None, None)
    # The mirror products d[i, j] * d[j, i], a row block at a time; the
    # first occurrence of the most negative one, as np.argmin over the grid.
    best, witness = 0.0, None
    for rows in _row_blocks(n, n):
        prod = (v1[rows] - v2[rows]) * (v1[:, rows] - v2[:, rows]).T
        masked = np.where(prod < 0.0, prod, 0.0)
        k = int(np.argmin(masked))
        if masked.flat[k] < best:
            best = float(masked.flat[k])
            witness = (rows.start + k // n, k % n)
    if witness is None:
        return ComparisonResult("incomparable", None, None)
    i, j = witness
    return ComparisonResult("incomparable", (float(grid1.mesh[i]), float(grid1.mesh[j])), best)


def pointwise_upper_bound(spec: DiagonalSpec, x: float, y: float, tol: float = USER_TOL) -> float:
    """Largest value any copula with this track section can take at (x, y).

    One formula serves every track: the larger of C_{psi_L}(x, y) and
    C_{psi_U}(x, y), the two extremal constructed copulas, read off the
    spec's cached band. On the identity track it equals the closed form of
    Nelsen et al. (JMVA 2004) up to rounding. Raises NoCopulaExists when no
    copula has this track section, and IneligiblePsi when psi_L or psi_U
    fails quadruplet's test at USER_TOL (possible on a spec made with
    validate=False). Existence and both verdicts are memoized per spec, so
    after the first call a query costs a few binary searches on any track.
    """
    bounds = psi_bounds(spec, tol=tol)
    for eligible, violation in spec._band_verdicts:
        if not eligible:
            raise IneligiblePsi(violation)
    kappa_low, kappa_up = _kappa_pair(spec, bounds.psi_low, bounds.psi_up, x, y)
    return max(min(x, y, kappa_low), min(x, y, kappa_up))


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
    mesh = _validate_mesh(grid.mesh, track.phi.x)
    v = grid.values
    n = len(mesh)
    a = eval_pl(track.phi, mesh[:-1])[:, None]
    b = eval_pl(track.phi, mesh[1:])[:, None]
    w = np.diff(mesh)[:, None]
    y0 = mesh[None, :-1]
    y1 = mesh[None, 1:]
    col_mass = np.empty(n - 1)
    for rows in _row_blocks(n - 1, n):
        vb = v[rows.start:rows.stop + 1]
        volumes = vb[1:, 1:] - vb[:-1, 1:] - vb[1:, :-1] + vb[:-1, :-1]
        area = _below_track_area(a[rows], b[rows], w[rows], y0, y1)
        frac = area / (w[rows] * (y1 - y0))
        frac = np.clip(frac, 0.0, 1.0)
        col_mass[rows] = np.sum(volumes * frac, axis=1)
    psi_vals = np.concatenate(([0.0], np.cumsum(col_mass)))
    return PLFunction(mesh, psi_vals)


def dominating_envelope(grid: GridCopula, track: Track, spec: DiagonalSpec,
                        tol: float = USER_TOL) -> CopulaCpsi:
    """Least constructed copula dominating a gridded copula.

    The grid's track section must match the spec's diagonal to within the
    discretization tolerance 2/n; the extracted mass function must come out
    eligible, otherwise the mesh is too coarse.
    """
    check_tol(tol)
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
