"""Validated tracks and track diagonals, plus existence criteria.

A track is a strictly increasing piecewise-linear bijection of [0, 1]; a
diagonal prescribes the values a copula must take along the track. This
module validates both and decides whether any copula can realize the
prescription.
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
    eval_pl,
    first_decrease,
    merge_knots,
    resample,
)


@dataclass(frozen=True)
class Track:
    """Strictly increasing track function with its exact inverse."""

    phi: PLFunction
    phi_inv: PLFunction

    @cached_property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.phi.x, self.phi.y))


def make_track(phi: PLFunction) -> Track:
    """Validate a track function and attach its inverse (knot-role swap)."""
    if np.any(np.diff(phi.y) <= 0.0):
        raise NotStrictlyIncreasing("track function must be strictly increasing")
    if phi.y[0] != 0.0 or phi.y[-1] != 1.0:
        raise EndpointViolation("track function must map 0 to 0 and 1 to 1")
    return Track(phi, PLFunction(phi.y, phi.x))


def identity_track() -> Track:
    f = PLFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    return Track(f, f)


@dataclass(frozen=True)
class DiagonalSpec:
    """A validated diagonal together with its derived gap functions.

    All three functions are carried on the common refinement of the
    diagonal's and the track's knots, so knot-level checks are exact.
    zeta(x) = x - delta(x); delta_tilde(x) = phi(x) - delta(x).

    zeta_zeros and phi_values() are computed once per spec and returned as
    read-only arrays.
    """

    delta: PLFunction
    zeta: PLFunction
    delta_tilde: PLFunction
    track: Track

    @property
    def knots(self) -> np.ndarray:
        return self.delta.x

    @cached_property
    def zeta_zeros(self) -> np.ndarray:
        """Knots at which the diagonal touches min(x, phi(x)) gap zero."""
        return _read_only(self.delta.x[self.zeta.y == 0.0])

    @cached_property
    def _phi_knots(self) -> np.ndarray:
        return _read_only(eval_pl(self.track.phi, self.delta.x))

    def phi_values(self) -> np.ndarray:
        """phi at the spec's knots."""
        return self._phi_knots


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def diagonal_conditions(delta: PLFunction, track: Track, tol: float = USER_TOL) -> dict:
    """Check the four admissibility conditions of a track diagonal.

    Returns a dict mapping "a".."d" to (ok, where); where is the first
    offending knot (segment start for the slope condition "d").
    """
    u = merge_knots(delta.x, track.phi.x)
    d = eval_pl(delta, u)
    p = eval_pl(track.phi, u)
    results = {}
    # (a) delta(1) = 1
    results["a"] = (abs(d[-1] - 1.0) <= tol, 1.0)
    # (b) delta <= min(x, phi(x))
    bad = np.nonzero(d > np.minimum(u, p) + tol)[0]
    results["b"] = (len(bad) == 0, u[bad[0]] if len(bad) else None)
    # (c) delta increasing
    bad = np.nonzero(np.diff(d) < -tol)[0]
    results["c"] = (len(bad) == 0, u[bad[0]] if len(bad) else None)
    # (d) per-segment slope bound |d delta| <= dx + d phi; the lower side is
    # automatic for increasing delta and phi, so only the upper side matters.
    bad = np.nonzero(np.diff(d) > np.diff(u) + np.diff(p) + tol)[0]
    results["d"] = (len(bad) == 0, u[bad[0]] if len(bad) else None)
    return results


def make_diagonal(delta: PLFunction, track: Track, tol: float = USER_TOL,
                  validate: bool = True) -> DiagonalSpec:
    """Validate a diagonal against a track and materialize the gap functions.

    With validate=False the admissibility checks are skipped, which allows
    existence_check to diagnose prescriptions that are not realizable.
    """
    if validate:
        results = diagonal_conditions(delta, track, tol=tol)
        for cond in "abcd":
            ok, where = results[cond]
            if not ok:
                raise DiagonalConditionViolated(cond, where)
    u = merge_knots(delta.x, track.phi.x)
    d = resample(delta, u)
    p = eval_pl(track.phi, u)
    zeta = PLFunction(u, u - d.y)
    delta_tilde = PLFunction(u, p - d.y)
    return DiagonalSpec(d, zeta, delta_tilde, track)


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    variational_ok: bool
    lipschitz_ok: bool
    witness: Optional[tuple]


def existence_check(spec: DiagonalSpec, tol: float = USER_TOL) -> ExistenceResult:
    """Decide whether any copula has the prescribed track section.

    The variational criterion requires, for every knot pair x <= y, that the
    negative variation of phi - delta plus the positive variation of zeta on
    [x, y] does not exceed y - x. The Lipschitz form requires
    delta(y) - delta(x) <= (y - x) + (phi(y) - phi(x)); the two are
    equivalent and both are reported.
    """
    u = spec.knots
    dd = np.diff(spec.delta.y)
    dp = np.diff(spec.phi_values())
    du = np.diff(u)
    # running variations: V-(delta_tilde) and V+(zeta) per segment
    a = np.concatenate(([0.0], np.cumsum(np.maximum(dd - dp, 0.0) + np.maximum(du - dd, 0.0))))
    # x - a(x) must be nondecreasing at knots
    witness_var = first_decrease(u - a, u, tol)
    # Lipschitz form: x - delta + phi must be nondecreasing at knots
    witness_lip = first_decrease(u - spec.delta.y + spec.phi_values(), u, tol)
    variational_ok = witness_var is None
    lipschitz_ok = witness_lip is None
    return ExistenceResult(
        exists=variational_ok,
        variational_ok=variational_ok,
        lipschitz_ok=lipschitz_ok,
        witness=witness_var or witness_lip,
    )
