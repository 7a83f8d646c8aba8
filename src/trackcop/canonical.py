"""Canonical quadruplets, eligibility tests and the extremal mass functions.

A candidate mass function psi (the cumulative sub-track mass seen up to x)
determines three companions:

    eta(y) = delta(phi_inv(y)) - psi(phi_inv(y))
    chi(y) = y - eta(y)
    xi(x)  = x - psi(x)

psi is *eligible* when all four are increasing; equivalently its increments
sit between the negative variation of phi - delta and the interval length
minus the positive variation of x - delta(x). The extremes of that band,
psi_low and psi_up, are themselves eligible and bound every eligible psi
pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoCopulaExists, PsiNotAnchored, SpecMismatch
from .funcspace import (
    INTERNAL_TOL,
    USER_TOL,
    PLFunction,
    eval_pl,
    first_decrease,
    merge_knots,
)
from .trackmodel import DiagonalSpec, existence_check


@dataclass(frozen=True)
class PsiCandidate:
    """A proposed mass function with its canonical companions and verdict."""

    psi: PLFunction
    chi: PLFunction
    eta: PLFunction
    xi: PLFunction
    eligible: bool
    violation: Optional[str]
    spec: DiagonalSpec


@dataclass(frozen=True)
class EligibilityResult:
    eligible: bool
    witness: Optional[tuple]


def _same_spec(a: DiagonalSpec, b: DiagonalSpec) -> bool:
    if a is b:
        return True
    return (
        np.array_equal(a.delta.x, b.delta.x)
        and np.array_equal(a.delta.y, b.delta.y)
        and np.array_equal(a.track.phi.x, b.track.phi.x)
        and np.array_equal(a.track.phi.y, b.track.phi.y)
    )


def _refined(spec: DiagonalSpec, psi: PLFunction):
    """psi, delta and phi evaluated on the union of all relevant knots."""
    u = merge_knots(spec.knots, psi.x)
    return u, eval_pl(psi, u), eval_pl(spec.delta, u), eval_pl(spec.track.phi, u)


def quadruplet(spec: DiagonalSpec, psi: PLFunction, tol: float = USER_TOL) -> PsiCandidate:
    """Materialize the canonical quadruplet of psi and check monotonicity.

    The companions of the y-variable (eta, chi) are carried on the
    track-image knots so compositions with the track inverse stay exact.
    """
    if abs(eval_pl(psi, 0.0)) > INTERNAL_TOL:
        raise PsiNotAnchored(f"psi(0) = {eval_pl(psi, 0.0)} must be 0")
    u, psi_u, delta_u, phi_u = _refined(spec, psi)
    psi_r = PLFunction(u, psi_u)
    xi = PLFunction(u, u - psi_u)
    eta = PLFunction(phi_u, delta_u - psi_u)
    chi = PLFunction(phi_u, phi_u - delta_u + psi_u)
    violation = None
    for name, f in (("psi", psi_r), ("chi", chi), ("eta", eta), ("xi", xi)):
        bad = np.nonzero(np.diff(f.y) < -tol)[0]
        if len(bad):
            violation = f"{name} decreasing at knot {f.x[bad[0]]:.6g}"
            break
    return PsiCandidate(psi_r, chi, eta, xi, violation is None, violation, spec)


def eligibility_by_variation(spec: DiagonalSpec, psi: PLFunction,
                             tol: float = USER_TOL) -> EligibilityResult:
    """Check the increment bounds of psi over all knot pairs.

    For every x <= y the increment psi(y) - psi(x) must lie between the
    negative variation of phi - delta and (y - x) minus the positive
    variation of x - delta(x). Returns the first violating pair, if any.
    """
    if abs(eval_pl(psi, 0.0)) > INTERNAL_TOL:
        raise PsiNotAnchored(f"psi(0) = {eval_pl(psi, 0.0)} must be 0")
    u, psi_u, delta_u, phi_u = _refined(spec, psi)
    dd = np.diff(delta_u)
    dp = np.diff(phi_u)
    du = np.diff(u)
    cum_vm_dt = np.concatenate(([0.0], np.cumsum(np.maximum(dd - dp, 0.0))))
    cum_vp_z = np.concatenate(([0.0], np.cumsum(np.maximum(du - dd, 0.0))))
    # lower bound: psi - V-(phi - delta) must be non-decreasing;
    # upper bound: x - V+(zeta) - psi must be non-decreasing.
    witness = first_decrease(psi_u - cum_vm_dt, u, tol)
    if witness is None:
        witness = first_decrease(u - cum_vp_z - psi_u, u, tol)
    return EligibilityResult(witness is None, witness)


@dataclass(frozen=True)
class PsiBounds:
    psi_low: PLFunction
    psi_up: PLFunction


def psi_bounds(spec: DiagonalSpec, tol: float = USER_TOL) -> PsiBounds:
    """Minimal and maximal eligible mass functions.

    psi_low accumulates the negative variation of phi - delta; psi_up is
    x minus the accumulated positive variation of x - delta(x).
    """
    result = existence_check(spec, tol=tol)
    if not result.exists:
        raise NoCopulaExists(f"no copula with this track section; witness {result.witness}")
    u = spec.knots
    dd = np.diff(spec.delta.y)
    dp = np.diff(spec.phi_values())
    du = np.diff(u)
    low = np.concatenate(([0.0], np.cumsum(np.maximum(dd - dp, 0.0))))
    up = u - np.concatenate(([0.0], np.cumsum(np.maximum(du - dd, 0.0))))
    return PsiBounds(PLFunction(u, low), PLFunction(u, up))


def blend(a: PsiCandidate, b: PsiCandidate, t: float) -> PsiCandidate:
    """Convex combination of two eligible candidates for the same spec.

    The increment constraints are linear, so the blend is again eligible.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"blend weight {t} outside [0, 1]")
    if not _same_spec(a.spec, b.spec):
        raise SpecMismatch("candidates were built for different specs")
    u = merge_knots(a.psi.x, b.psi.x)
    mixed = (1.0 - t) * eval_pl(a.psi, u) + t * eval_pl(b.psi, u)
    return quadruplet(a.spec, PLFunction(u, mixed))
