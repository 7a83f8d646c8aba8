"""Validated tracks and track diagonals, their band, and existence criteria.

A track is a strictly increasing piecewise-linear bijection of [0, 1]; a
diagonal prescribes the values a copula must take along the track. This
module validates both, computes the band [psi_L, psi_U] of admissible
mass functions once per diagonal, and decides from it whether any copula
can realize the prescription.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DiagonalConditionViolated,
    EndpointViolation,
    NotStrictlyIncreasing,
)
from .funcspace import (
    INTERNAL_TOL,
    USER_TOL,
    PLFunction,
    check_tol,
    eval_pl,
    first_decrease,
    merge_knots,
)


@dataclass(frozen=True, eq=False)
class Track:
    """Strictly increasing track function with its exact inverse."""

    phi: PLFunction
    phi_inv: PLFunction


def make_track(phi: PLFunction) -> Track:
    """Validate a track function and attach its inverse (knot-role swap)."""
    if np.any(np.diff(phi.y) <= 0.0):
        raise NotStrictlyIncreasing("track function must be strictly increasing")
    if phi.y[0] != 0.0 or phi.y[-1] != 1.0:
        raise EndpointViolation("track function must map 0 to 0 and 1 to 1")
    return Track(phi, phi._swapped())


def identity_track() -> Track:
    f = PLFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    return Track(f, f)


@dataclass(frozen=True, eq=False)
class DiagonalSpec:
    """A validated diagonal on its track, and the band it admits.

    delta is carried on the common refinement of the diagonal's and the
    track's knots, so knot-level checks are exact.

    The memos, each computed once per spec: `_delta_on_phi` (delta along
    the track image, y -> delta(phi_inv(y)): delta.y on phi_values(), which
    make_diagonal hands the spec from the knots it has already evaluated;
    on the identity track it is delta itself),
    `_band` (psi_L, psi_U and their gap), `_band_verdict` (the band test of
    its two ends) and `_existence`, which maps tol to existence_check's
    ExistenceResult (witnesses differ by tol). A memo holds plain values
    only, never an object that refers back to the spec (a PsiCandidate
    does): such a cycle would keep every spec alive until the cyclic
    garbage collector runs, instead of freeing it with its last reference.
    """

    delta: PLFunction
    track: Track

    @property
    def knots(self) -> np.ndarray:
        return self.delta.x

    @cached_property
    def _delta_on_phi(self) -> PLFunction:
        """delta.y, with its alias, on phi at the spec's knots: every eta's abscissas and base."""
        return self.delta._swapped()._on_knots(self.track.phi._at(self.delta))._swapped()

    def phi_values(self) -> np.ndarray:
        """phi at the spec's knots."""
        return self._delta_on_phi.x

    @cached_property
    def _existence(self) -> dict:
        return {}

    @cached_property
    def _band(self) -> tuple:
        """(psi_L, psi_U, psi_U - psi_L): both ends as PLFunctions on the spec's knots.

        psi_L accumulates the negative variation of phi - delta; psi_U is x
        minus the accumulated positive variation of x - delta. The gap, an
        array, is summed in one pass, x - cumsum(vm + vp): psi_U - psi_L rounds
        differently, which moves witnesses at exact-tol ties.
        """
        u = self.knots
        dd = np.diff(self.delta.y)
        vm = np.diff(self.phi_values())
        np.subtract(dd, vm, out=vm)
        np.maximum(vm, 0.0, out=vm)
        vp = np.diff(u)
        vp -= dd
        np.maximum(vp, 0.0, out=vp)
        low, up = _accumulated(vm), _accumulated(vp)
        np.subtract(u, up, out=up)
        gap = _accumulated(np.add(vm, vp, out=dd))
        np.subtract(u, gap, out=gap)
        gap.flags.writeable = False
        return self.delta._on_knots(low), self.delta._on_knots(up), gap

    @cached_property
    def _band_verdict(self) -> Optional[tuple]:
        """The band test of psi = psi_L and of psi = psi_U at USER_TOL: a witness pair, or None.

        For either end one of psi - psi_L and psi_U - psi is exactly 0 and
        the other is psi_U - psi_L, so both ends get this first_decrease of
        psi_U - psi_L, with the bits the band test computes it in; quadruplet
        of either end at USER_TOL reads it here.
        """
        low, up = self._band[:2]
        return first_decrease(up.y - low.y, self.knots, USER_TOL)


def _accumulated(steps: np.ndarray) -> np.ndarray:
    """[0, cumsum(steps)] in one new array: np.concatenate(([0.0], np.cumsum(steps)))'s bits."""
    out = np.empty(len(steps) + 1)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


def _common_knots(delta: PLFunction, track: Track) -> tuple:
    """(delta on u, phi(u)), u = merge_knots(delta.x, track.phi.x).

    When delta's knots already hold the track's, run from +0.0 to 1.0 and
    have no gap <= INTERNAL_TOL, merge_knots would give them back
    bit for bit, and np.interp at a knot returns the stored ordinate; so
    delta on u is delta itself, with no merge and no interpolation.
    On the identity track phi(u) is u itself: u runs over [+0.0, 1.0] on
    either path, and there np.interp(u, [0, 1], [+0.0, 1]) returns u bit
    for bit.
    """
    x, tx = delta.x, track.phi.x
    at = np.minimum(np.searchsorted(x, tx), len(x) - 1)
    if not (x[0] == 0.0 and not np.signbit(x[0]) and x[-1] == 1.0
                and np.all(x[at] == tx) and np.all(np.diff(x) > INTERNAL_TOL)):
        u = merge_knots(x, tx)
        delta = PLFunction(u, eval_pl(delta, u))
    return delta, delta.x if _is_identity(track) else track.phi._at(delta)


def _is_identity(track: Track) -> bool:
    """Whether phi(u) = u bit for bit: a validated track of two knots whose phi(0) is +0.0.

    make_track admits phi(0) = -0.0, at which np.interp returns -0.0 for u = +0.0.
    """
    ty = track.phi.y
    return len(ty) == 2 and not np.signbit(ty[0])


def _conditions(u: np.ndarray, d: np.ndarray, p: np.ndarray, tol: float) -> dict:
    """The four admissibility conditions of diagonal_conditions on common knots u."""
    results = {}
    # (a) delta(1) = 1
    results["a"] = (abs(d[-1] - 1.0) <= tol, 1.0)
    # (b) delta <= min(x, phi(x))
    bound = np.minimum(u, p)
    bound += tol
    bad = np.nonzero(d > bound)[0]
    results["b"] = (len(bad) == 0, u[bad[0]] if len(bad) else None)
    # (c) delta increasing; where is the left knot of the witness pair
    witness = first_decrease(d, u, tol)
    results["c"] = (witness is None, None if witness is None else witness[0])
    # (d) per-segment slope bound |d delta| <= dx + d phi; the lower side is
    # automatic for increasing delta and phi, so only the upper side matters.
    # np.diff(a) is a[1:] - a[:-1]; the steps of d reuse the buffer of p's.
    bound, step = np.diff(u), np.diff(p)
    bound += step
    bound += tol
    bad = np.nonzero(np.subtract(d[1:], d[:-1], out=step) > bound)[0]
    results["d"] = (len(bad) == 0, u[bad[0]] if len(bad) else None)
    return results


def diagonal_conditions(delta: PLFunction, track: Track, tol: float = USER_TOL) -> dict:
    """Check the four admissibility conditions of a track diagonal.

    Returns a dict mapping "a".."d" to (ok, where); where is the first
    offending knot (segment start for the slope condition "d").
    """
    check_tol(tol)
    d, p = _common_knots(delta, track)
    return _conditions(d.x, d.y, p, tol)


def make_diagonal(delta: PLFunction, track: Track, tol: float = USER_TOL,
                  validate: bool = True) -> DiagonalSpec:
    """Validate a diagonal against a track and carry it on their common knots.

    With validate=False the admissibility checks are skipped, which allows
    existence_check to diagnose prescriptions that are not realizable.
    """
    check_tol(tol)
    d, p = _common_knots(delta, track)  # d is delta itself where its knots need no merge
    if validate:
        for cond, (ok, where) in _conditions(d.x, d.y, p, tol).items():
            if not ok:
                raise DiagonalConditionViolated(cond, where)
    spec = DiagonalSpec(d, track)
    # seeds the cached_property behind phi_values() with p; on the identity track p is d.x
    spec.__dict__["_delta_on_phi"] = d if p is d.x else d._swapped()._on_knots(p)._swapped()
    return spec


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    variational_ok: bool
    lipschitz_ok: bool
    witness: Optional[tuple]


def existence_check(spec: DiagonalSpec, tol: float = USER_TOL) -> ExistenceResult:
    """Decide whether any copula has the prescribed track section.

    The variational criterion requires, for every knot pair x <= y, that the
    negative variation of phi - delta plus the positive variation of
    x - delta on [x, y] does not exceed y - x, i.e. that the band's gap
    psi_U - psi_L is nondecreasing. The Lipschitz form requires
    delta(y) - delta(x) <= (y - x) + (phi(y) - phi(x)); the two are
    equivalent and both are reported. The result is memoized per spec and
    tol.
    """
    result = spec._existence.get(tol)
    if result is None:
        result = spec._existence[tol] = _existence_check(spec, check_tol(tol))
    return result


def _existence_check(spec: DiagonalSpec, tol: float) -> ExistenceResult:
    u = spec.knots
    witness_var = first_decrease(spec._band[2], u, tol)
    # Lipschitz form, an independent check: x - delta + phi nondecreasing
    lipschitz = np.subtract(u, spec.delta.y)
    lipschitz += spec.phi_values()
    witness_lip = first_decrease(lipschitz, u, tol)
    variational_ok = witness_var is None
    lipschitz_ok = witness_lip is None
    return ExistenceResult(
        exists=variational_ok,
        variational_ok=variational_ok,
        lipschitz_ok=lipschitz_ok,
        witness=witness_var or witness_lip,
    )
