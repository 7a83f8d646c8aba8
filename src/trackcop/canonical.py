"""Canonical quadruplets, eligibility tests and the extremal mass functions.

A candidate mass function psi (the cumulative sub-track mass seen up to x)
determines three companions:

    eta(y) = delta(phi_inv(y)) - psi(phi_inv(y))
    chi(y) = y - eta(y)
    xi(x)  = x - psi(x)

psi is *eligible* when all four are increasing; equivalently its increments
sit between the negative variation of phi - delta and the interval length
minus the positive variation of x - delta(x), that is, psi - psi_L and
psi_U - psi are both nondecreasing. quadruplet and eligibility_by_variation
both judge psi by that band test. The extremes of the band, psi_low and
psi_up, are themselves eligible and bound every eligible psi pointwise.

A PsiCandidate holds psi and its verdict; chi, eta and xi are computed on
first read, so a candidate whose companions nothing reads costs no array
beyond psi's. region_functions takes chi and xi as temporaries of its own
and leaves them unread on the candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NoCopulaExists, OutOfDomain, PsiNotAnchored, SpecMismatch
from .funcspace import (
    INTERNAL_TOL,
    USER_TOL,
    PLFunction,
    _same_pl,
    check_tol,
    eval_pl,
    first_decrease,
    merge_knots,
)
from .trackmodel import DiagonalSpec, existence_check


@dataclass(frozen=True, eq=False)
class PsiCandidate:
    """A proposed mass function with its verdict; its canonical companions on first read.

    chi, eta and xi are computed from psi and the spec when first read and
    kept from then on. The companions of the y-variable (eta, chi) are
    carried on phi at psi's knots, so compositions with the track inverse
    stay exact. Both read `_on_phi`, delta at psi's knots on phi at them: the
    spec's own when psi is on the spec's knots, else computed once and kept.
    A candidate made by dataclasses.replace starts with no companions and
    computes them from its own psi.
    """

    psi: PLFunction
    eligible: bool
    violation: Optional[str]
    spec: DiagonalSpec

    @cached_property
    def _on_phi(self) -> PLFunction:
        """delta at psi's knots, on phi at them: spec._delta_on_phi when they are its knots."""
        if self.psi.x is self.spec.knots:
            return self.spec._delta_on_phi
        return PLFunction(self.spec.track.phi._at(self.psi), self.spec.delta._at(self.psi))

    def _chi_values(self) -> np.ndarray:
        """phi - delta + psi at psi's knots, a new array."""
        values = np.subtract(self._on_phi.x, self._on_phi.y)
        values += self.psi.y
        return values

    def _xi_values(self) -> np.ndarray:
        """x - psi(x) at psi's knots, a new array."""
        return np.subtract(self.psi.x, self.psi.y)

    @cached_property
    def chi(self) -> PLFunction:
        """y - eta(y): phi - delta + psi at psi's knots, on phi at them."""
        return self._on_phi._on_knots(self._chi_values())

    @cached_property
    def eta(self) -> PLFunction:
        """delta - psi at psi's knots, on phi at them."""
        return self._on_phi._on_knots(self._on_phi.y - self.psi.y)

    @cached_property
    def xi(self) -> PLFunction:
        """x - psi(x) on psi's knots."""
        return self.psi._on_knots(self._xi_values())


@dataclass(frozen=True)
class EligibilityResult:
    eligible: bool
    witness: Optional[tuple]


def _same_spec(a: DiagonalSpec, b: DiagonalSpec) -> bool:
    return a is b or (_same_pl(a.delta, b.delta) and _same_pl(a.track.phi, b.track.phi))


def _anchored_on_knots(spec: DiagonalSpec, psi: PLFunction, tol: float) -> PLFunction:
    """psi on u = merge_knots(spec.knots, psi.x), once tol and psi(0) = 0 are checked.

    When psi's knots are the spec's, u is spec.knots itself and psi(u) is
    psi.y, with no merge and no interpolation, read through the aliases of
    the spec and of psi. spec.knots is a merge_knots output, so merging it
    with itself gives it back, and np.interp at a knot returns the stored
    ordinate: both ways give the same bits.
    """
    check_tol(tol)
    psi_0 = eval_pl(psi, 0.0)
    if abs(psi_0) > INTERNAL_TOL:
        raise PsiNotAnchored(f"psi(0) = {psi_0} must be 0")
    if psi.x is spec.knots or np.array_equal(psi.x, spec.knots):
        return spec.delta._on_knots(psi)
    u = merge_knots(spec.knots, psi.x)
    return PLFunction(u, eval_pl(psi, u))


def _band_violation(spec: DiagonalSpec, psi: PLFunction, tol: float) -> tuple:
    """(name, witness pair) of the first of psi - psi_L and psi_U - psi to fall, or (None, None).

    psi is _anchored_on_knots' output. psi_L and psi_U are read from the
    spec's band and interpolated onto psi's extra knots, where they are
    linear. psi_U - psi is computed only once psi - psi_L has passed, into
    the same buffer.
    """
    u, band = psi.x, spec._band
    merged = u is not spec.knots
    low = band[0]._at(psi) if merged else band[0].y
    values = np.subtract(psi.y, low, out=low if merged else None)
    witness = first_decrease(values, u, tol)
    if witness is not None:
        return "psi - psi_L", witness
    up = band[1]._at(psi) if merged else band[1].y
    witness = first_decrease(np.subtract(up, psi.y, out=values), u, tol)
    return ("psi_U - psi", witness) if witness is not None else (None, None)


def quadruplet(spec: DiagonalSpec, psi: PLFunction, tol: float = USER_TOL) -> PsiCandidate:
    """The canonical quadruplet of psi, judged by the band test.

    psi is carried on its knots merged with the spec's; the candidate
    computes chi, eta and xi on them when they are first read. The verdict
    is eligibility_by_variation's; the violation names the difference that
    falls and its witness pair. An end of the spec's band, judged at
    USER_TOL, takes the spec's memoized `_band_verdict`: for psi_L the
    difference that can fall is psi_U - psi, for psi_U it is psi - psi_L,
    and either is psi_U - psi_L in the bits the band test computes.
    """
    anchored = _anchored_on_knots(spec, psi, tol)
    low, up = spec._band[:2]
    if tol == USER_TOL and (psi is low or psi is up):
        name, witness = ("psi_U - psi" if psi is low else "psi - psi_L"), spec._band_verdict
    else:
        name, witness = _band_violation(spec, anchored, tol)
    violation = witness and f"{name} decreasing on [{witness[0]:.6g}, {witness[1]:.6g}]"
    return PsiCandidate(anchored, witness is None, violation, spec)


def eligibility_by_variation(spec: DiagonalSpec, psi: PLFunction,
                             tol: float = USER_TOL) -> EligibilityResult:
    """Check the increment bounds of psi over all knot pairs.

    For every x <= y the increment psi(y) - psi(x) must lie between the
    negative variation of phi - delta and (y - x) minus the positive
    variation of x - delta(x): psi - psi_L and psi_U - psi must both be
    nondecreasing. Returns the first violating pair, if any.
    """
    _, witness = _band_violation(spec, _anchored_on_knots(spec, psi, tol), tol)
    return EligibilityResult(witness is None, witness)


@dataclass(frozen=True, eq=False)
class PsiBounds:
    psi_low: PLFunction
    psi_up: PLFunction


def psi_bounds(spec: DiagonalSpec, tol: float = USER_TOL) -> PsiBounds:
    """Minimal and maximal eligible mass functions.

    psi_low accumulates the negative variation of phi - delta; psi_up is
    x minus the accumulated positive variation of x - delta(x). Both are the
    spec's cached band; NoCopulaExists is raised when the band narrows.
    """
    return PsiBounds(*_existing_band(spec, tol))


def _existing_band(spec: DiagonalSpec, tol: float) -> tuple:
    """(psi_L, psi_U), the spec's cached band, once existence_check at tol has passed.

    Raises NoCopulaExists otherwise. After the first call at a tol it costs
    one memo lookup and builds nothing.
    """
    result = existence_check(spec, tol)
    if not result.exists:
        raise NoCopulaExists(f"no copula with this track section; witness {result.witness}")
    return spec._band[:2]


def blend(a: PsiCandidate, b: PsiCandidate, t: float, tol: float = USER_TOL) -> PsiCandidate:
    """Convex combination of two eligible candidates for the same spec, judged at tol.

    The increment constraints are linear, so the blend is again eligible.
    Candidates on one knot array (psi_L, psi_U and their blends share the
    spec's) are combined on it without a merge. A weight outside [0, 1],
    or NaN, raises OutOfDomain.
    """
    if not (0.0 <= t <= 1.0):
        raise OutOfDomain(f"blend weight {t} outside [0, 1]")
    if not _same_spec(a.spec, b.spec):
        raise SpecMismatch("candidates were built for different specs")
    shared = a.psi.x is b.psi.x
    u = a.psi.x if shared else merge_knots(a.psi.x, b.psi.x)
    a_u, b_u = (a.psi.y, b.psi.y) if shared else (eval_pl(a.psi, u), eval_pl(b.psi, u))
    psi_u = np.multiply(a_u, 1.0 - t)
    psi_u += np.multiply(b_u, t)
    return quadruplet(a.spec, a.psi._on_knots(psi_u) if shared else PLFunction(u, psi_u), tol)
