"""Diagonal splicing of two constructed copulas into a quasi-copula.

The splice uses one constituent above the track and the other below; both
were built for one spec, so both match its diagonal on the track and the
result is continuous there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import PsiCandidate, _same_spec
from .construction import GridCopula, _ConstructionRows, _fill, _require_eligible
from .errors import SpecMismatch
from .funcspace import eval_pl


@dataclass(frozen=True, eq=False)
class SplicedFunction:
    """Two constructed copulas of one spec glued along its track (ties go to upper)."""

    upper: PsiCandidate  # used where y >= phi(x)
    lower: PsiCandidate  # used where y < phi(x)


def make_splice(upper: PsiCandidate, lower: PsiCandidate) -> SplicedFunction:
    """Splice two eligible candidates built for one spec; raises IneligiblePsi or SpecMismatch."""
    _require_eligible(upper)
    _require_eligible(lower)
    if not _same_spec(upper.spec, lower.spec):
        raise SpecMismatch("splice constituents were built for different specs")
    return SplicedFunction(upper, lower)


class _SpliceRows:
    """Row-block source of a splice: the upper block, with the cells below the track from the lower."""

    def __init__(self, s: SplicedFunction, mesh):
        phi = s.upper.spec.track.phi
        self._upper = _ConstructionRows(s.upper, mesh, phi.x)
        self._lower = _ConstructionRows(s.lower, self._upper.mesh)
        self.mesh = self._upper.mesh
        self._phi = eval_pl(phi, self.mesh)

    def block(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        values = self._upper.block(rows, cols)
        below = self.mesh[None, cols] < self._phi[rows, None]
        np.copyto(values, self._lower.block(rows, cols), where=below)
        return values


def splice_grid(s: SplicedFunction, mesh) -> GridCopula:
    """Grid of spliced values; the mesh must include all track knots."""
    return _fill(_SpliceRows(s, mesh))
