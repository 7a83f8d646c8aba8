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

from .canonical import _existing_band, quadruplet
from .construction import CopulaCpsi, _feed, _row_blocks, _validate_mesh
from .errors import MeshMismatch, NotACopula, IneligibleExtractedPsi, IneligiblePsi, \
    SpecMismatch, TrackSectionMismatch
from .funcspace import INTERNAL_TOL, USER_TOL, PLFunction, _pair_at, _same_pl, _unit_point, \
    check_tol, eval_pl
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


class _GridCheck:
    """The checks of check_grid, accumulated over consecutive row blocks of one grid.

    `add(rows, block)` takes the blocks of _row_blocks in row order. It
    checks each block as one window and the pair of rows across each block
    edge, the previous block's last row and the block's first, as a window
    of its own, so `_add_window(first, window)` sees the grid's rows in order
    and every pair of adjacent rows once, however the rows are blocked. The
    differences live in buffers made once: fresh temporaries for every block
    would make the allocator hand pages back and fault them in again, block
    after block. report() gives the verdicts.
    """

    def __init__(self, mesh: np.ndarray, tol: float):
        self._mesh = mesh
        self._edges = np.empty((4, len(mesh)))  # row 0, column 0, last row, last column
        self._pair = np.empty((2, len(mesh)))    # the rows across a block edge
        height = max(next(_row_blocks(len(mesh), len(mesh))).stop, 2)  # of the tallest window
        self._work = np.empty((3, height * len(mesh)))  # diff_x, diff_y, cells
        self._step_floor = -(tol + INTERNAL_TOL)
        self._lip_bound = np.diff(mesh) * (1.0 + tol) + INTERNAL_TOL
        self._monotone = self._lipschitz = True
        self._min_cell, self._worst = None, None

    def add(self, rows: slice, block: np.ndarray):
        if rows.start == 0:
            self._edges[0] = block[0]
        else:
            self._pair[1] = block[0]
            self._add_window(rows.start - 1, self._pair)
        if rows.stop == len(self._mesh):
            self._edges[2] = block[-1]
        self._edges[1, rows] = block[:, 0]
        self._edges[3, rows] = block[:, -1]
        if len(block) > 1:
            self._add_window(rows.start, block)
        self._pair[0] = block[-1]

    def _buffer(self, i: int, rows: int, cols: int) -> np.ndarray:
        """Work array i as a C-contiguous rows x cols array."""
        return self._work[i, :rows * cols].reshape(rows, cols)

    def _add_window(self, first: int, window: np.ndarray):
        rows, n = len(window) - 1, window.shape[1]
        cell_rows = slice(first, first + rows)
        diff_x = np.subtract(window[1:], window[:-1], out=self._buffer(0, rows, n))
        diff_y = np.subtract(window[:, 1:], window[:, :-1], out=self._buffer(1, rows + 1, n - 1))
        # a row at a block edge has its y-differences checked in two windows,
        # to the same verdict
        self._monotone = self._monotone and bool(np.all(diff_x >= self._step_floor)
                                                 and np.all(diff_y >= self._step_floor))
        self._lipschitz = self._lipschitz and bool(
            np.all(diff_x <= self._lip_bound[cell_rows, None])
            and np.all(diff_y <= self._lip_bound[None, :]))
        cells = np.subtract(diff_x[:, 1:], diff_x[:, :-1], out=self._buffer(2, rows, n - 1))
        k = int(np.argmin(cells))
        value = float(cells.flat[k])
        # the first occurrence of the least volume (or of a NaN), as np.argmin
        # over all cells would find it
        if (self._min_cell is None or value < self._min_cell
                or (np.isnan(value) and not np.isnan(self._min_cell))):
            self._min_cell = value
            self._worst = (first + k // cells.shape[1], k % cells.shape[1])

    def report(self) -> VerificationReport:
        mesh = self._mesh
        row0, col0, last_row, last_col = self._edges
        grounded = bool(np.all(np.abs(row0) <= INTERNAL_TOL)
                        and np.all(np.abs(col0) <= INTERNAL_TOL))
        margins = bool(np.all(np.abs(last_row - mesh) <= INTERNAL_TOL)
                       and np.all(np.abs(last_col - mesh) <= INTERNAL_TOL))
        worst_cell = (float(mesh[self._worst[0]]), float(mesh[self._worst[1]]))
        two_increasing = self._min_cell >= -INTERNAL_TOL
        return VerificationReport(grounded, margins, self._monotone, self._lipschitz,
                                  two_increasing, self._min_cell, worst_cell)


def check_grid(grid, mode: str = "copula", tol: float = USER_TOL) -> VerificationReport:
    """Verify the (quasi-)copula axioms on a grid, a GridCopula or any row-block source.

    Both the copula and the quasi-copula verdicts are reported; `mode` is
    accepted and never read.

    Rectangle positivity for the quasi check only needs rectangles touching
    the boundary of the unit square; by additivity of volumes across mesh
    lines those reduce to adjacent-line monotonicity and Lipschitz checks.

    Tolerances: grounding, margins and 2-increasingness allow an absolute
    INTERNAL_TOL. Between adjacent mesh lines a distance dx apart, the
    monotone and Lipschitz checks take `tol` plus the same absolute
    INTERNAL_TOL: ``diff >= -(tol + INTERNAL_TOL)``, the allowance of the
    1-D monotone test funcspace.first_decrease held to each step, and
    ``diff <= dx * (1 + tol) + INTERNAL_TOL``. INTERNAL_TOL covers the
    few-ulp rounding of the values, which `tol` alone does not at tol 0
    (a step of -5.6e-17 on an exact copula) nor, relative to dx, in cells
    so thin that dx * tol is below an ulp (a knot ~1e-7 from a mesh line).
    """
    check = _GridCheck(grid.mesh, check_tol(tol))
    _feed(grid, check)
    return check.report()


@dataclass(frozen=True)
class ComparisonResult:
    relation: str  # equal | first-dominates | second-dominates | incomparable
    witness_pair: Optional[tuple]
    product: Optional[float]

    def as_dict(self) -> dict:
        return asdict(self)


def compare(first, second, tol: float = USER_TOL) -> ComparisonResult:
    """Classify the pointwise order of two grids on the same mesh.

    Either grid may be a GridCopula or any row-block source. When neither
    dominates, the witness is the mirror pair (u, v), (v, u) with the most
    negative product of signed differences. With d = first - second, the
    block of rows i takes d[i, j] and d[j, i] for j from the block's first
    row on, so one pass over the upper half sees every cell. The mirror
    product is symmetric, so the first occurrence of its most negative
    value, where np.argmin over the whole grid would find it, lies at
    j >= i; within a block a cell left of the diagonal has its mirror
    earlier in the same block.
    """
    check_tol(tol)
    if not np.array_equal(first.mesh, second.mesh):
        raise MeshMismatch("grids are on different meshes")
    n = len(first.mesh)
    equal = dominates = dominated = True
    best, witness = 0.0, None
    for rows in _row_blocks(n, n):
        half = slice(rows.start, n)
        upper = first.block(rows, half) - second.block(rows, half)
        mirror = (first.block(half, rows) - second.block(half, rows)).T
        for d in (upper, mirror):
            equal = equal and float(np.abs(d).max()) <= tol
            dominates = dominates and bool(np.all(d >= -tol))
            dominated = dominated and bool(np.all(d <= tol))
        prod = upper * mirror
        masked = np.where(prod < 0.0, prod, 0.0)
        k = int(np.argmin(masked))
        if masked.flat[k] < best:
            best = float(masked.flat[k])
            witness = (rows.start + k // prod.shape[1], rows.start + k % prod.shape[1])
    if equal:
        return ComparisonResult("equal", None, None)
    if dominates:
        return ComparisonResult("first-dominates", None, None)
    if dominated:
        return ComparisonResult("second-dominates", None, None)
    if witness is None:
        return ComparisonResult("incomparable", None, None)
    i, j = witness
    return ComparisonResult("incomparable", (float(first.mesh[i]), float(first.mesh[j])), best)


def pointwise_upper_bound(spec: DiagonalSpec, x: float, y: float, tol: float = USER_TOL) -> float:
    """Largest value any copula with this track section can take at (x, y).

    One formula serves every track: the larger of C_{psi_L}(x, y) and
    C_{psi_U}(x, y), the two extremal constructed copulas, read off the
    spec's cached band. On the identity track it equals the closed form of
    Nelsen et al. (JMVA 2004) up to rounding. Raises NoCopulaExists when no
    copula has this track section, and IneligiblePsi, with quadruplet's
    message for psi_L, when psi_L and psi_U fail the band test at USER_TOL
    (possible on a spec made with validate=False). Existence and the band's
    verdict are memoized per spec, so after the first call a query costs
    two knot searches on any track: psi_L and psi_U share the spec's knots,
    searched at x, and eta_L = delta - psi_L and eta_U = delta - psi_U share
    phi_values(), searched at y, their ordinates formed at the two knots
    around y. Each C_psi is c_psi_value's min(x, y, psi(x) + eta(y)),
    with its bits on quadruplet(spec, psi).
    """
    psi_low, psi_up = _existing_band(spec, tol)
    if spec._band_verdict is not None:
        raise IneligiblePsi(quadruplet(spec, psi_low).violation)
    x, y = _unit_point(x), _unit_point(y)
    knots, low = psi_low._views
    up = psi_up._views[1]
    phi, delta = spec._delta_on_phi._views
    low_x, up_x = _pair_at(knots, low, up, x)
    eta_low, eta_up = _pair_at(phi, low, up, y, delta)
    return max(min(x, y, low_x + eta_low), min(x, y, up_x + eta_up))


def _area_below(a, b, w, t):
    """A(t), the integral of max(phi - t, 0) across a cell of width w where phi runs from a to b."""
    crossing = w * (b - t) ** 2 / (2.0 * np.maximum(b - a, 1e-300))  # read where a < t < b
    return np.where(t <= a, w * (0.5 * (a + b) - t), np.where(t >= b, 0.0, crossing))


class _PsiExtraction(_GridCheck):
    """extract_psi accumulated over the row blocks of one grid, with its copula checks; see psi().

    In column strip i the track runs from a = phi(x_i) to b = phi(x_{i+1}).
    The cells under y_lo, the highest mesh line at or below a, lie wholly
    below it, and their mass telescopes to C(x_{i+1}, y_lo) - C(x_i, y_lo)
    - C(x_{i+1}, 0) + C(x_i, 0). The cells from y_lo up to the lowest line
    at or above b are crossed, at most 2(n - 1) in all; each volume is
    weighted by the exact share of its cell's area below the track,
    A(y0) - A(y1) over the area. The shares depend on the mesh and the track
    alone, so they are computed once; a window only gathers corner values,
    and C(x, m) at the mesh point m nearest phi(x) for deviation().
    """

    def __init__(self, mesh: np.ndarray, track: Track, tol: float):
        super().__init__(mesh, tol)
        self._track = track
        n, phi = len(mesh), eval_pl(track.phi, mesh)
        # the mesh point nearest phi(x), ties to the upper one, and its distance
        near = np.clip(np.searchsorted(mesh, phi), 1, n - 1)
        self._near = np.where(np.abs(mesh[near] - phi) <= np.abs(mesh[near - 1] - phi),
                              near, near - 1)
        self._off_track = np.abs(mesh[self._near] - phi)
        self._on_track = np.empty(n)
        a, b = phi[:-1], phi[1:]
        self._k_lo = np.clip(np.searchsorted(mesh, a, side="right") - 1, 0, n - 1)
        counts = np.clip(np.searchsorted(mesh, b), self._k_lo, n - 1) - self._k_lo
        # the crossed cells, strip by strip: each one's strip, column and share
        self._start = np.concatenate(([0], np.cumsum(counts)))
        self._strip = np.repeat(np.arange(n - 1), counts)
        self._col = np.arange(self._start[-1]) + np.repeat(self._k_lo - self._start[:-1], counts)
        a, b, w = a[self._strip], b[self._strip], np.diff(mesh)[self._strip]
        y0, y1 = mesh[self._col], mesh[self._col + 1]
        share = (_area_below(a, b, w, y0) - _area_below(a, b, w, y1)) / (w * (y1 - y0))
        self._share = np.clip(share, 0.0, 1.0)
        self._col_mass = np.empty(n - 1)

    def _add_window(self, first: int, window: np.ndarray):
        super()._add_window(first, window)
        rows, edge = len(window) - 1, slice(first, first + len(window))
        # a row at a block edge is gathered in two windows, to the same value
        self._on_track[edge] = window[np.arange(rows + 1), self._near[edge]]
        r, lo = np.arange(rows), self._k_lo[first:first + rows]
        below = window[r + 1, lo] - window[r, lo] - window[1:, 0] + window[:-1, 0]
        crossed = slice(self._start[first], self._start[first + rows])
        i, j = self._strip[crossed] - first, self._col[crossed]
        volumes = window[i + 1, j + 1] - window[i, j + 1] - window[i + 1, j] + window[i, j]
        self._col_mass[first:first + rows] = below + np.bincount(
            i, volumes * self._share[crossed], minlength=rows)

    def deviation(self, delta: PLFunction) -> float:
        """Largest |C(x, m) - delta(x)| - |m - phi(x)| over every mesh point x, m nearest phi(x).

        A (quasi-)copula is 1-Lipschitz in y, so C(x, m) lies within
        |m - phi(x)| of C(x, phi(x)): a grid whose section is delta gives 0
        up to rounding.
        """
        return float(np.max(np.abs(self._on_track - eval_pl(delta, self._mesh))
                            - self._off_track))

    def psi(self) -> PLFunction:
        """The extracted psi; raises NotACopula, or BadMesh for a mesh missing a track knot."""
        if not self.report().copula_ok:
            raise NotACopula("grid fails the copula checks")
        mesh = _validate_mesh(self._mesh, self._track.phi.x)
        return PLFunction(mesh, np.concatenate(([0.0], np.cumsum(self._col_mass))))


def extract_psi(grid, track: Track, tol: float = USER_TOL) -> PLFunction:
    """Cumulative checkerboard mass below or on the track, per mesh column.

    The grid is a GridCopula or any row-block source. Each cell's volume
    is spread uniformly over the cell and apportioned by the exact area
    fraction lying below the piecewise-linear track, so mass sitting on the
    track in a cell it crosses is split by area too. The grid must pass
    check_grid's copula checks, and beyond them the extraction costs O(n).
    """
    extraction = _PsiExtraction(grid.mesh, track, check_tol(tol))
    _feed(grid, extraction)
    return extraction.psi()


def dominating_envelope(grid, track: Track, spec: DiagonalSpec,
                        tol: float = USER_TOL) -> CopulaCpsi:
    """Least constructed copula dominating a gridded copula.

    The grid is a GridCopula or any row-block source, read in one pass that
    gathers the track section, the copula checks and the extracted mass
    together; their failures are raised in that order afterwards, then a
    mesh missing a track knot. The track section is checked in every column
    x: C(x, m), m the mesh point nearest phi(x), must lie within
    |m - phi(x)| + 2/n of delta(x), the discretization tolerance 2/n beyond
    what 1-Lipschitz continuity in y allows. The extracted mass function
    must come out eligible, otherwise the mesh is too coarse, or it misses
    a knot of the spec, as the CLI's default_mesh never does: there the
    extracted psi can come out ineligible however fine the mesh, so that
    case raises BadMesh naming the knot. A track whose phi differs in value
    from the spec's raises SpecMismatch first.
    """
    if not _same_pl(track.phi, spec.track.phi):
        raise SpecMismatch("the track is not the spec's track")
    extraction = _PsiExtraction(grid.mesh, track, check_tol(tol))
    _feed(grid, extraction)
    mesh_tol = 2.0 / len(grid.mesh)
    dev = extraction.deviation(spec.delta)
    if dev > mesh_tol:
        raise TrackSectionMismatch(f"track section deviates by {dev:.3g} > {mesh_tol:.3g}")
    candidate = quadruplet(spec, extraction.psi(), tol=tol)
    if not candidate.eligible:
        _validate_mesh(grid.mesh, spec.knots)
        raise IneligibleExtractedPsi(candidate.violation or "extracted psi not eligible")
    return CopulaCpsi(candidate)
