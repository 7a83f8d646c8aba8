"""Exact piecewise-linear functions on [0, 1] with variation calculus.

All univariate objects in trackcop (tracks, diagonals, mass functions,
region boundaries) are piecewise-linear functions given by explicit knots.
On that class, total/positive/negative variations, monotone majorants,
pointwise min and exact inverses are finite computations with no
quadrature or search involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedKnots, OutOfDomain

# Slack for internal float identities vs. validation of user-supplied data.
INTERNAL_TOL = 1e-12
USER_TOL = 1e-9


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function on [0, 1] given by sorted knots.

    Between knots the value is the linear interpolant; at a knot it is the
    stored ordinate. Instances are immutable.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        self.x.flags.writeable = False
        self.y.flags.writeable = False

    def __call__(self, t):
        return eval_pl(self, t)

    def __len__(self):
        return len(self.x)


def make_pl(knots_x, knots_y) -> PLFunction:
    """Validate knot lists and build a PLFunction."""
    x = np.asarray(knots_x, dtype=float)
    y = np.asarray(knots_y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise MalformedKnots("knot lists must be 1-d and of equal length")
    if len(x) < 2:
        raise MalformedKnots("need at least two knots")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise MalformedKnots("knots must be finite")
    if np.any(np.diff(x) <= 0):
        raise MalformedKnots("abscissas must be strictly increasing")
    if x[0] != 0.0 or x[-1] != 1.0:
        raise MalformedKnots("abscissas must run from 0 to 1")
    return PLFunction(x, y)


def eval_pl(f: PLFunction, t):
    """Evaluate f at t (scalar or array); exact at knots.

    Points outside [0, 1], and NaN, raise OutOfDomain.
    """
    if isinstance(t, (float, int)):  # Python scalars and np.float64
        if not 0.0 <= t <= 1.0:
            raise OutOfDomain(f"evaluation point {t} outside [0, 1]")
        # np.interp copies read-only knot arrays on every call, O(n) for one
        # point. On the slice around the segment holding t it reads the same
        # knots and returns the same bits.
        j = f.x.searchsorted(t, side="right")
        lo = j - 1 if j else 0
        return float(np.interp(t, f.x[lo:j + 1], f.y[lo:j + 1]))
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and not (t_arr.min() >= 0.0 and t_arr.max() <= 1.0):
        raise OutOfDomain("evaluation point outside [0, 1]")
    out = np.interp(t_arr, f.x, f.y)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def identity_pl(knots=None) -> PLFunction:
    """The identity function, optionally carried on a given knot set."""
    if knots is None:
        return PLFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    knots = np.asarray(knots, dtype=float)
    return PLFunction(knots, knots.copy())


def constant_pl(c: float) -> PLFunction:
    return PLFunction(np.array([0.0, 1.0]), np.array([float(c), float(c)]))


def resample(f: PLFunction, knots) -> PLFunction:
    """f carried on a (usually finer) knot set; exact where knots coincide."""
    knots = np.asarray(knots, dtype=float)
    return PLFunction(knots, eval_pl(f, knots))


def merge_knots(*arrays, tol: float = INTERNAL_TOL) -> np.ndarray:
    """Sorted union of knot sets, collapsing points closer than tol."""
    xs = np.unique(np.concatenate([np.asarray(a, dtype=float) for a in arrays]))
    keep = np.concatenate(([True], np.diff(xs) > tol))
    xs = xs[keep].copy()
    xs[0] = 0.0
    xs[-1] = 1.0
    return xs


@dataclass(frozen=True)
class VariationTriple:
    """Total, positive and negative variation of a function on an interval."""

    tv: float
    vplus: float
    vminus: float


def variation(f: PLFunction, a: float, b: float) -> VariationTriple:
    """Exact variations of f on [a, b].

    The endpoints are inserted as virtual knots, then positive and negative
    knot increments are summed; tv = vplus + vminus by construction.
    """
    if not (0.0 <= a <= b <= 1.0):
        raise OutOfDomain(f"invalid interval [{a}, {b}]")
    if a == b:
        return VariationTriple(0.0, 0.0, 0.0)
    lo = np.searchsorted(f.x, a, side="right")
    hi = np.searchsorted(f.x, b, side="left")
    vals = np.concatenate(([eval_pl(f, a)], f.y[lo:hi], [eval_pl(f, b)]))
    d = np.diff(vals)
    vp = float(np.sum(d[d > 0]))
    vm = float(-np.sum(d[d < 0]))
    return VariationTriple(vp + vm, vp, vm)


def cumulative_variations(f: PLFunction) -> tuple[np.ndarray, np.ndarray]:
    """Running positive and negative variation of f at its own knots."""
    d = np.diff(f.y)
    vp = np.concatenate(([0.0], np.cumsum(np.maximum(d, 0.0))))
    vm = np.concatenate(([0.0], np.cumsum(np.maximum(-d, 0.0))))
    return vp, vm


def positive_variation_majorant(f: PLFunction) -> PLFunction:
    """x -> running positive variation of f.

    This is the minimal increasing function m with m(0) = 0 such that m - f
    is increasing.
    """
    vp, _ = cumulative_variations(f)
    return PLFunction(f.x, vp)


def first_decrease(values, knots, tol: float = 0.0):
    """First knot pair (x_i, x_j), i < j, with values[j] < max(values[:j]) - tol.

    This is the witness of a failed monotonicity test: values must be
    nondecreasing up to tol. j is the first offending index and i is the
    latest index before j that attains the running maximum, which pins the
    witness to the interval over which the values fell. Returns None when
    no index offends. For the mirror question (values[j] > min(values[:j])
    + tol, left end at the latest running minimum) pass -values; negation
    is exact, so the pair and its tie rule are the same.
    """
    values = np.asarray(values, dtype=float)
    run_max = np.maximum.accumulate(values)
    bad = np.flatnonzero(values[1:] < run_max[:-1] - tol)
    if not len(bad):
        return None
    j = int(bad[0]) + 1
    i = int(np.flatnonzero(values[:j] == run_max[j - 1])[-1])
    return (float(knots[i]), float(knots[j]))


def is_increasing(f: PLFunction, tol: float = 0.0) -> bool:
    """True iff every knot increment is >= -tol."""
    return bool(np.all(np.diff(f.y) >= -tol))


def combine(f: PLFunction, g, op: str) -> PLFunction:
    """Pointwise combination of piecewise-linear functions.

    op is one of "add", "sub", "min", "scale". For "scale", g is a scalar
    factor. add/sub/scale are exactly piecewise-linear on the knot union;
    "min" additionally inserts the exact crossing points of segments so the
    result stays in the class.
    """
    if op == "scale":
        return PLFunction(f.x, f.y * float(g))
    u = merge_knots(f.x, g.x)
    fu = eval_pl(f, u)
    gu = eval_pl(g, u)
    if op == "add":
        return PLFunction(u, fu + gu)
    if op == "sub":
        return PLFunction(u, fu - gu)
    if op == "min":
        d = fu - gu
        sign_change = d[:-1] * d[1:] < 0.0
        if np.any(sign_change):
            idx = np.nonzero(sign_change)[0]
            frac = d[idx] / (d[idx] - d[idx + 1])
            tx = u[idx] + frac * (u[idx + 1] - u[idx])
            ty = fu[idx] + frac * (fu[idx + 1] - fu[idx])
            u2 = np.concatenate((u, tx))
            y2 = np.concatenate((np.minimum(fu, gu), ty))
            order = np.argsort(u2, kind="stable")
            return PLFunction(u2[order], y2[order])
        return PLFunction(u, np.minimum(fu, gu))
    raise ValueError(f"unknown op {op!r}")
