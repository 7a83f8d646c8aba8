"""Exact piecewise-linear functions on [0, 1].

All univariate objects in trackcop (tracks, diagonals, mass functions,
region boundaries) are piecewise-linear functions given by explicit knots.
On that class, evaluation, exact inverses and monotone tests are finite
computations on the knots, with no quadrature or search involved.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadTolerance, MalformedKnots, OutOfDomain

# Slack for internal float identities vs. validation of user-supplied data.
INTERNAL_TOL = 1e-12
USER_TOL = 1e-9


def check_tol(tol):
    """tol itself if it is a finite real number >= 0; raises BadTolerance otherwise.

    Every public function that takes a user `tol` checks it here before
    using it, itself or through the first library call it makes. A memo
    keyed on tol checks only on a miss: an invalid tol is never stored, so
    it always misses. NaN must not get through: every comparison against it
    is false, so each test it slackens would pass.
    """
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise BadTolerance(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


@dataclass(frozen=True, eq=False)
class PLFunction:
    """Piecewise-linear function on [0, 1] given by sorted knots.

    Between knots the value is the linear interpolant; at a knot it is the
    stored ordinate. Instances are immutable: x and y are locked, the
    caller's arrays included. Like every trackcop class that holds arrays,
    it compares and hashes by identity (eq=False): array fields give
    generated value equality no truth value.

    np.interp copies every read-only argument, O(n) a call. So each
    instance also keeps `_wx` and `_wy`, writeable aliases of x and y that
    np.interp reads in their place: views taken before the arrays were
    locked. An array that comes in locked already is its own alias, so
    `_on_knots` and `_swapped` build functions that share another's arrays
    with the aliases their owner kept, and `_at` evaluates at another's
    knots through its alias. Other modules use these three, bar the array
    kernel that construction.region_functions feeds.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):  # lock each; its alias is a view taken first, or itself if locked
            a = np.asarray(getattr(self, name), dtype=float)
            alias = a.view() if a.flags.writeable else a
            a.flags.writeable = False
            object.__setattr__(self, name, a)
            object.__setattr__(self, "_w" + name, alias)

    def __call__(self, t):
        return eval_pl(self, t)

    def __len__(self):
        return len(self.x)

    def _on_knots(self, y) -> PLFunction:
        """A function on these knots, sharing their alias, with ordinates y.

        y may also be a PLFunction on knots of equal value; then its
        ordinates and their alias are taken.
        """
        f = PLFunction(self.x, y.y if isinstance(y, PLFunction) else y)
        object.__setattr__(f, "_wx", self._wx)
        if isinstance(y, PLFunction):
            object.__setattr__(f, "_wy", y._wy)
        return f

    def _swapped(self) -> PLFunction:
        """The function with the roles of x and y swapped, each with its alias."""
        f = PLFunction(self.y, self.x)
        object.__setattr__(f, "_wx", self._wy)
        object.__setattr__(f, "_wy", self._wx)
        return f

    def _at(self, g: PLFunction) -> np.ndarray:
        """This function at g's knots, a new array; np.interp reads g's alias of them."""
        return eval_pl(self, g._wx)

    @cached_property
    def _views(self) -> tuple:
        """memoryviews of x and y for the scalar paths: no copy, float items."""
        return memoryview(self.x), memoryview(self.y)

    @cached_property
    def _read(self):
        """The unchecked scalar reader t -> f(t), t a float in [0, 1]: _scalar_reader on _views."""
        return _scalar_reader(*self._views)

    def __getstate__(self):
        # memoryviews and the reader do not pickle; the caches are rebuilt on first use
        return {"x": self.x, "y": self.y}

    def __setstate__(self, state):
        # unpickled arrays come back writeable: lock them and take new aliases
        object.__setattr__(self, "x", state["x"])
        object.__setattr__(self, "y", state["y"])
        self.__post_init__()


def _same_pl(f: PLFunction, g: PLFunction) -> bool:
    """Whether f and g have knots and ordinates equal in value."""
    return f is g or (np.array_equal(f.x, g.x) and np.array_equal(f.y, g.y))


def make_pl(knots_x, knots_y) -> PLFunction:
    """Validate knot lists and build a PLFunction."""
    try:
        x = np.asarray(knots_x, dtype=float)
        y = np.asarray(knots_y, dtype=float)
    except (TypeError, ValueError):
        raise MalformedKnots("knots must be numbers") from None
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

    A Python float or int, or an np.float64, is checked by _unit_point and
    read by f's cached scalar reader, which returns a Python float with the
    bits np.interp(t, f.x, f.y) returns (see _scalar_reader). An array goes to
    np.interp, which reads f's writeable aliases; a locked t is copied.
    Points outside [0, 1], and NaN, raise OutOfDomain.
    """
    if isinstance(t, (float, int)):  # Python scalars and np.float64
        return f._read(_unit_point(t))
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and not (t_arr.min() >= 0.0 and t_arr.max() <= 1.0):
        raise OutOfDomain("evaluation point outside [0, 1]")
    out = np.interp(t_arr, f._wx, f._wy)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _unit_point(t, noun="evaluation point") -> float:
    """t as a Python float; raises OutOfDomain outside [0, 1] and for NaN.

    Every scalar point query checks its coordinates here, or defers to it to
    raise, and blend its weight, with noun "blend weight". The message of a
    number too large for a float leaves its digits out: an int's may run
    past what str() will print.
    """
    try:
        t = float(t)
    except OverflowError:
        raise OutOfDomain(f"{noun} beyond the float range, outside [0, 1]") from None
    if not 0.0 <= t <= 1.0:
        raise OutOfDomain(f"{noun} {t} outside [0, 1]")
    return t


def _scalar_reader(xs, ys, proportional=True):
    """t -> f(t) for f on knots xs with ordinates ys (sorted memoryviews), t a float in [0, 1].

    It returns a Python float with the bits np.interp(t, xs, ys) returns, and
    checks nothing: callers pass t through _unit_point first. In one frame it
    finds the segment [xs[j - 1], xs[j]) holding t, j = bisect_right(xs, t),
    and does np.interp's arithmetic on it: the stored ordinate at an exact
    knot hit and at or beyond the ends, else slope * (t - x0) + y0, with
    _between only to retry a NaN from infinite ordinates.

    The search starts where t is. Knots spread about evenly over [0, 1] put
    t in [xs[i], xs[i + 1]) for i = floor(t * (len(xs) - 1)): the spec's knots
    are near-uniform meshes, and psi, its band and eta on the identity
    track live on them. So that segment is tried first, with two reads.
    When it misses, it has settled on which side of it t lies, and the next
    segment on that side is tried with one more read: jittered knots, or a
    few track knots merged in, leave t there on most misses. Only then is
    the rest of that side bisected. The knots read on the way are kept as
    the segment's ends. A call into a shared search routine would cost a
    Python frame a read, most of what the guess saves. Knots that are not
    spread so, such as eta's phi(u) on a general track, where the guess
    misses by a hundred knots, take `proportional=False`: a plain
    bisect_right, without the guess's reads.

    The reader closes over the memoryviews alone, never over a function or
    a spec, so a spec whose functions hold one is still freed by reference
    counting. A one-point np.interp on the writeable aliases costs about
    1.1 us at 25 000 knots (2-vCPU shared host, numpy 2.4.6) and returns an
    np.float64.
    """
    last = len(xs) - 1
    floor = math.floor  # int() of a float costs about three times as much

    def read(t):
        if proportional:
            j = floor(t * last)  # t * last rounds to at most last for t <= 1
            x1 = xs[j]
            if x1 > t:  # t lies left of knot j
                if j == 0:
                    return ys[0]
                x0 = xs[j - 1]
                if x0 > t:  # and left of knot j - 1
                    j = bisect_right(xs, t, 0, j - 1)
                    if j == 0:
                        return ys[0]
                    x0, x1 = xs[j - 1], xs[j]
            else:  # t lies at or right of knot j
                if j == last:
                    return ys[last]
                j += 1
                x0, x1 = x1, xs[j]
                if x1 <= t:  # and at or right of knot j + 1
                    if j == last:
                        return ys[last]
                    j += 1
                    x0, x1 = x1, xs[j]
                    if x1 <= t:
                        j = bisect_right(xs, t, j + 1)
                        if j > last:
                            return ys[last]
                        x0, x1 = xs[j - 1], xs[j]
        else:
            j = bisect_right(xs, t)
            if j == 0:
                return ys[0]
            if j > last:
                return ys[last]
            x0, x1 = xs[j - 1], xs[j]
        y0 = ys[j - 1]
        if x0 == t:
            return y0
        y1 = ys[j]
        out = (y1 - y0) / (x1 - x0) * (t - x0) + y0
        return _between(x0, y0, x1, y1, t) if out != out else out

    return read


def _between(x0: float, y0: float, x1: float, y1: float, t: float) -> float:
    """np.interp's arithmetic at t on the segment from (x0, y0) to (x1, y1), x0 <= t < x1."""
    if x0 == t:
        return y0
    slope = (y1 - y0) / (x1 - x0)
    out = slope * (t - x0) + y0
    if out != out:  # NaN from infinite ordinates: np.interp retries from the right
        out = slope * (t - x1) + y1
        if out != out and y0 == y1:
            out = y0
    return out


def _pair_at(xs, ya, yb, t: float, base=None) -> tuple:
    """(f_a(t), f_b(t)) with eval_pl's scalar bits, for f_a on (xs, ya) and f_b on (xs, yb).

    One bisect_right serves both, as they share their knots. With `base`,
    the ordinates are base - ya and base - yb, formed at the one or two
    knots read: the bits of those differences taken as arrays.
    """
    j = bisect_right(xs, t)
    i, k = max(j - 1, 0), min(j, len(xs) - 1)  # the knots around t; one knot at or beyond an end
    a0, a1, b0, b1 = ya[i], ya[k], yb[i], yb[k]
    if base is not None:
        a0, a1, b0, b1 = base[i] - a0, base[k] - a1, base[i] - b0, base[k] - b1
    if i == k:
        return a0, b0
    return _between(xs[i], a0, xs[k], a1, t), _between(xs[i], b0, xs[k], b1, t)


def merge_knots(*arrays) -> np.ndarray:
    """Sorted union of knot sets, collapsing points closer than INTERNAL_TOL.

    It sorts rather than calls np.unique: the gap mask below already drops
    exact duplicates, whose gap is 0, so the result is np.unique's bit for
    bit, and np.unique's first call imports numpy.ma, about 10 ms of a CLI
    process that nothing else in trackcop needs.
    """
    xs = np.sort(np.concatenate([np.asarray(a, dtype=float) for a in arrays]))
    keep = np.concatenate(([True], np.diff(xs) > INTERNAL_TOL))
    xs = xs[keep].copy()
    xs[0] = 0.0
    xs[-1] = 1.0
    return xs


def first_decrease(values, knots, tol: float = 0.0):
    """First knot pair (x_i, x_j), i < j, at which values fail to be nondecreasing.

    This is trackcop's one monotone test: it fails where a value falls below
    the running maximum of the values before it by more than
    ``tol + INTERNAL_TOL``, values[j] < max(values[:j]) - (tol + INTERNAL_TOL).
    `tol` is the caller's slack; INTERNAL_TOL covers the rounding of values
    that take a few operations each on data in [0, 1]. j is the first
    offending index and i is the latest index before j that attains the
    running maximum, which pins the witness to the interval over which the
    values fell. Returns None when no index offends. For the mirror question
    (values[j] > min(values[:j]) + tol + INTERNAL_TOL, left end at the latest
    running minimum) pass -values; negation is exact, so the pair and its tie
    rule are the same.
    """
    values = np.asarray(values, dtype=float)
    if np.all(values[1:] >= values[:-1]):  # the serial running maximum only where it may fail
        return None
    run_max = np.maximum.accumulate(values)
    bad = np.flatnonzero(values[1:] < run_max[:-1] - (tol + INTERNAL_TOL))
    if not len(bad):
        return None
    j = int(bad[0]) + 1
    i = int(np.flatnonzero(values[:j] == run_max[j - 1])[-1])
    return (float(knots[i]), float(knots[j]))
