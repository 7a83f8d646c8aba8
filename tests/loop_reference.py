"""The code that faster kernels replaced, kept as oracles.

`first_increase_violation`, `first_decrease_violation`,
`rightmost_level` and `first_knot_off_mesh` are the loop versions of the
witness finders, of the level inverse used by region_functions and of
_validate_mesh's track-knot check; `exact_rightmost_level` is the level
inverse's formula taken in rational arithmetic and rounded once, and
`suffix_minimum` the values it is taken on where a companion dips. The
`reference_*` functions compose
them exactly as existence_check, the band test of quadruplet, psi_bounds
and region_functions did, so the vectorized code can be required to give
bit-identical results. The witness finders follow the library's one rule
for monotone tests: a value may fall below the running maximum (or rise
above the running minimum) of the values before it by up to
tol + INTERNAL_TOL. `reference_diagonal_conditions` and
`reference_quadruplet` judge condition (c) and eligibility by that rule
too, where they once held each adjacent step to tol alone.

`companion_steps` and `companion_witness` are the paper's definition of
eligibility, evaluated exactly in Fraction from the float knot data: psi is
eligible when psi, chi, eta and xi are all nondecreasing. They share no
code with the band test, so the verdict is checked against something other
than itself. `off_tie` picks the psi on which the two must agree.

`exact_shuffle_copula`, `exact_shuffle_knots` and `exact_at` are the
straight shuffle of Min of strategies.py, the knot rule of its track
section, and a piecewise-linear function's value, all in Fraction, with
the track's float knots read as exact rationals. `bertino` is the least
copula with a given diagonal.

`reference_merge_knots` is merge_knots as it was before it sorted:
np.unique of the union, then the same INTERNAL_TOL gap mask.

`reference_common_knots`, `reference_diagonal_conditions` and
`reference_make_diagonal` build a section's common knots as they were
before the knot-aligned path: a knot merge and np.interp of delta and phi
onto the merged knots, every time.

`reference_eval_scalar`, `reference_quadruplet`, `reference_blend_psi` and
`reference_pointwise_upper_bound` are the per-point path as it was before
the per-spec memos and the knot-aligned fast path: np.interp on the two
knots around a point, a knot merge for every quadruplet, and existence and
both quadruplets redone for every point.

`whole_grid_values`, `whole_splice_grid`, `whole_check_grid`,
`whole_compare`, `whole_extract_psi`, `whole_npy_bytes` and
`whole_csv_bytes` are the grid kernels and writers as they were before they
took their grids a row block at a time:
each holds several n x n temporaries at once. The blocked kernels must give
the same bits, but for the extraction: `whole_extract_psi` weighs all n^2
cells by area, the library telescopes the cells wholly below the track, and
the two agree to len(mesh) ulps of 1. `whole_read_npy_grid` is the `.npy` grid reader as it was
before grid files were streamed: np.load of the whole table.
`reference_section_deviation` is dominating_envelope's track-section test
as a loop over the columns, with a search of the whole mesh for the point
nearest phi(x).

The library once treated the identity track apart. `is_identity_track`,
`reference_c_psi_value`, `reference_c_psi_grid_values` and the closed form
in `reference_pointwise_upper_bound` keep that path: the bound of Nelsen et
al. (JMVA 2004), and C = min(x, y) wherever zeta vanishes at a knot between
x and y. The library now reads every value off the band with one formula,
which agrees with these to rounding, not bit for bit.
"""

import io
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from trackcop import (
    ComparisonResult,
    DiagonalSpec,
    BadMesh,
    GridCopula,
    IneligiblePsi,
    NoCopulaExists,
    NotACopula,
    PLFunction,
    VerificationReport,
    eval_pl,
    merge_knots,
)
from trackcop.cli import SpecFileError, _csv_text
from trackcop.construction import _validate_mesh
from trackcop.funcspace import INTERNAL_TOL


def first_increase_violation(values, knots, tol):
    """First pair i < j with values[j] > min(values[:j]) + (tol + INTERNAL_TOL).

    The left endpoint reported is the latest index attaining the running
    minimum, which pins the witness to the offending interval. Like
    first_decrease_violation it allows tol + INTERNAL_TOL, the library's one
    rule for monotone tests.
    """
    run_min = values[0]
    run_idx = 0
    for j in range(1, len(values)):
        if values[j] > run_min + (tol + INTERNAL_TOL):
            return (float(knots[run_idx]), float(knots[j]))
        if values[j] <= run_min:
            run_min = values[j]
            run_idx = j
    return None


def first_decrease_violation(values, knots, tol):
    """First pair i < j with values[j] < max(values[:j]) - (tol + INTERNAL_TOL)."""
    run_max = values[0]
    run_idx = 0
    for j in range(1, len(values)):
        if values[j] < run_max - (tol + INTERNAL_TOL):
            return (float(knots[run_idx]), float(knots[j]))
        if values[j] >= run_max:
            run_max = values[j]
            run_idx = j
    return None


def rightmost_level(knots, vals, c):
    """max{y : f(y) <= c} for an increasing PL f given by (knots, vals)."""
    idx = np.searchsorted(vals, c, side="right")
    if idx >= len(vals):
        return float(knots[-1])
    if idx == 0:
        return float(knots[0])
    lo, hi = vals[idx - 1], vals[idx]
    if hi == lo:
        return float(knots[idx - 1])
    return float(knots[idx - 1] + (c - lo) * (knots[idx] - knots[idx - 1]) / (hi - lo))


def suffix_minimum(vals):
    """min(vals[i:]) at each i: the last index with vals <= c is the last with this <= c."""
    out = np.array(vals, dtype=float)
    for i in range(len(out) - 2, -1, -1):
        out[i] = min(out[i], out[i + 1])
    return out


def exact_rightmost_level(knots, vals, c):
    """rightmost_level with its segment formula exact, rounded once to the nearest float.

    The float loop can be far off: its product (c - lo) * (x1 - x0) may
    underflow to a subnormal, which keeps only a few bits before the
    division by hi - lo scales it back up.
    """
    idx = np.searchsorted(vals, c, side="right")
    if idx >= len(vals) or idx == 0 or vals[idx] == vals[idx - 1]:
        return rightmost_level(knots, vals, c)
    lo, hi, x0, x1 = (Fraction(float(v)) for v in (vals[idx - 1], vals[idx],
                                                    knots[idx - 1], knots[idx]))
    return float(x0 + (Fraction(float(c)) - lo) * (x1 - x0) / (hi - lo))


def first_knot_off_mesh(mesh, knots):
    """The first knot farther than INTERNAL_TOL from every mesh point, or None."""
    for knot in knots:
        if np.min(np.abs(mesh - knot)) > INTERNAL_TOL:
            return knot
    return None


def reference_existence(spec, tol):
    """(variational witness, Lipschitz witness) as existence_check computed them."""
    u = spec.knots
    phi_u = eval_pl(spec.track.phi, u)
    dd = np.diff(spec.delta.y)
    dp = np.diff(phi_u)
    du = np.diff(u)
    a = np.concatenate(([0.0], np.cumsum(np.maximum(dd - dp, 0.0) + np.maximum(du - dd, 0.0))))
    b = spec.delta.y - u - phi_u
    return first_increase_violation(a - u, u, tol), first_increase_violation(b, u, tol)


def reference_band_violation(spec, psi, tol):
    """(name, witness) of the first of psi - psi_L and psi_U - psi to fall, or (None, None).

    Both bounds are summed anew at the spec's knots and read at psi's extra
    knots by linear interpolation, as the library reads its band there.
    Summed anew on the merged knots instead, they can round a difference that
    is exactly 0 to just below it and so move the witness of an exact tie.
    """
    u = merge_knots(spec.knots, psi.x)
    psi_u = eval_pl(psi, u)
    low, up = (np.interp(u, spec.knots, bound) for bound in reference_psi_bounds(spec))
    for name, values in (("psi - psi_L", psi_u - low), ("psi_U - psi", up - psi_u)):
        witness = first_decrease_violation(values, u, tol)
        if witness is not None:
            return name, witness
    return None, None


def reference_eligibility_witness(spec, psi, tol):
    return reference_band_violation(spec, psi, tol)[1]


def exact_at(xs, ys, t):
    """The piecewise-linear function on knots xs (increasing) with ordinates ys at t, exactly.

    xs, ys and t are Fractions, or floats read as such; t lies in [xs[0], xs[-1]].
    """
    j = bisect_right(xs, t)
    if j == len(xs):
        return Fraction(ys[-1])
    x0, x1, y0, y1 = (Fraction(v) for v in (xs[j - 1], xs[j], ys[j - 1], ys[j]))
    return y0 + (y1 - y0) * (Fraction(t) - x0) / (x1 - x0)


def companion_steps(spec, psi):
    """(u, {name: increments}) of psi, chi, eta and xi on each segment of u, exactly.

    u is psi's knots merged with the spec's, as floats. psi, delta and phi
    are read at u exactly from their float knots, and the companions are
    formed in Fraction: xi = u - psi, eta = delta - psi and
    chi = phi - delta + psi, each on u (eta and chi as functions of phi(u)).
    """
    u = [float(t) for t in merge_knots(spec.knots, psi.x)]
    psi_u, delta_u, phi_u = ([exact_at(f.x, f.y, t) for t in u]
                             for f in (psi, spec.delta, spec.track.phi))
    values = {"psi": psi_u,
              "chi": [p - d + q for p, d, q in zip(phi_u, delta_u, psi_u)],
              "eta": [d - q for d, q in zip(delta_u, psi_u)],
              "xi": [Fraction(t) - q for t, q in zip(u, psi_u)]}
    return u, {name: [b - a for a, b in zip(v, v[1:])] for name, v in values.items()}


def off_tie(spec, psi) -> bool:
    """Whether every companion's increment on every segment is farther than 1e-9 from 0.

    There the band test's INTERNAL_TOL and the rounding of its sums cannot
    move a verdict or a witness, so it must agree with companion_witness.
    """
    _, steps = companion_steps(spec, psi)
    return all(abs(step) > 1e-9 for name in steps for step in steps[name])


def companion_witness(spec, psi):
    """(name, pair) of the first knot pair where psi fails the paper's definition, or (None, None).

    On a segment psi - psi_L rises by min(d psi, d chi) and psi_U - psi by
    min(d eta, d xi), so the first pair where psi or chi falls is
    reported as "psi - psi_L", else the first where eta or xi falls as
    "psi_U - psi": the order in which the band test reports.
    """
    u, steps = companion_steps(spec, psi)
    for name, pair in (("psi - psi_L", ("psi", "chi")), ("psi_U - psi", ("eta", "xi"))):
        for i, falls in enumerate(zip(*(steps[k] for k in pair))):
            if min(falls) < 0:
                return name, (u[i], u[i + 1])
    return None, None


def exact_shuffle_copula(sigma):
    """C(x, y) of the straight shuffle of Min moving strip i of n to place sigma[i], in Fraction.

    C(x, y) = sum_i max(0, min(x, (i+1)/n, y - (sigma[i] - i)/n) - i/n).
    """
    n = len(sigma)
    strips = [(Fraction(i, n), Fraction(i + 1, n), Fraction(s - i, n))
              for i, s in enumerate(sigma)]

    def copula(x, y):
        x, y = Fraction(x), Fraction(y)
        return sum(max(Fraction(0), min(x, hi, y - shift) - lo) for lo, hi, shift in strips)

    return copula


def exact_shuffle_knots(sigma, track):
    """The knots of delta(x) = C(x, phi(x)) by shuffle_sections' rule, exactly, sorted.

    They are i/n, phi_inv(j/n), the track's knots, and each point inside a
    track segment and inside strip i where the track crosses the strip's
    mass segment y = x + (sigma[i] - i)/n. A track segment of slope 1 runs
    parallel to every mass segment, or along one, and crosses none.
    """
    n = len(sigma)
    tx, ty = [Fraction(float(v)) for v in track.phi.x], [Fraction(float(v)) for v in track.phi.y]
    knots = {Fraction(i, n) for i in range(n + 1)} | set(tx)
    knots |= {exact_at(ty, tx, Fraction(j, n)) for j in range(n + 1)}
    for x0, x1, y0, y1 in zip(tx, tx[1:], ty, ty[1:]):
        slope = (y1 - y0) / (x1 - x0)
        if slope == 1:
            continue
        for i, s in enumerate(sigma):
            cross = (y0 - slope * x0 - Fraction(s - i, n)) / (1 - slope)
            if x0 < cross < x1 and Fraction(i, n) < cross < Fraction(i + 1, n):
                knots.add(cross)
    return sorted(knots)


def bertino(delta, x, y):
    """B_delta(x, y) = min(x, y) - min of t - delta(t) over t between x and y.

    Bertino's copula, the least copula with diagonal delta. For a
    piecewise-linear delta the minimum is taken over the knots strictly
    between x and y and the two ends.
    """
    lo, hi = min(x, y), max(x, y)
    ts = np.concatenate(([lo], delta.x[(delta.x > lo) & (delta.x < hi)], [hi]))
    return lo - float(np.min(ts - eval_pl(delta, ts)))


def reference_psi_bounds(spec):
    """(psi_low values, psi_up values) at the spec's knots."""
    u = spec.knots
    dd = np.diff(spec.delta.y)
    dp = np.diff(eval_pl(spec.track.phi, u))
    du = np.diff(u)
    low = np.concatenate(([0.0], np.cumsum(np.maximum(dd - dp, 0.0))))
    up = u - np.concatenate(([0.0], np.cumsum(np.maximum(du - dd, 0.0))))
    return low, up


def reference_region(spec, candidate):
    """(g, h) as region_functions defines them, one knot at a time, each level inverse exact.

    Each companion's suffix minimum is taken once; once per level would be
    O(n^2) Python.
    """
    u = candidate.psi.x
    phi_u = eval_pl(spec.track.phi, u)
    chi_vals = suffix_minimum(candidate.chi.y)
    eta_vals = suffix_minimum(candidate.eta.y)
    g_vals = np.empty(len(u))
    h_vals = np.empty(len(u))
    for i in range(len(u)):
        g_vals[i] = exact_rightmost_level(candidate.chi.x, chi_vals, candidate.psi.y[i])
        h_vals[i] = exact_rightmost_level(candidate.eta.x, eta_vals, candidate.xi.y[i])
    g_vals = np.minimum(g_vals, phi_u)
    return PLFunction(u, g_vals), PLFunction(u, h_vals)


def reference_merge_knots(*arrays):
    """merge_knots by np.unique of the union, then the INTERNAL_TOL gap mask and +0.0, 1.0 ends."""
    xs = np.unique(np.concatenate([np.asarray(a, dtype=float) for a in arrays]))
    keep = np.concatenate(([True], np.diff(xs) > INTERNAL_TOL))
    xs = xs[keep].copy()
    xs[0] = 0.0
    xs[-1] = 1.0
    return xs


def reference_common_knots(delta, track):
    """(u, delta(u), phi(u)) on the merged knots of delta and the track."""
    u = merge_knots(delta.x, track.phi.x)
    return u, np.interp(u, delta.x, delta.y), np.interp(u, track.phi.x, track.phi.y)


def reference_diagonal_conditions(delta, track, tol):
    """diagonal_conditions as it was: {"a".."d": (ok, first offending knot)}."""
    u, d, p = reference_common_knots(delta, track)
    results = {"a": (abs(d[-1] - 1.0) <= tol, 1.0)}
    for name, bad in (("b", d > np.minimum(u, p) + tol),
                      ("d", np.diff(d) > np.diff(u) + np.diff(p) + tol)):
        idx = np.nonzero(bad)[0]
        results[name] = (len(idx) == 0, u[idx[0]] if len(idx) else None)
    witness = first_decrease_violation(d, u, tol)
    results["c"] = (witness is None, None if witness is None else witness[0])
    return results


def reference_make_diagonal(delta, track):
    """The DiagonalSpec make_diagonal built, with phi_values() left to interpolate."""
    u, d, _ = reference_common_knots(delta, track)
    return DiagonalSpec(PLFunction(u, d), track)


def reference_eval_scalar(f, t):
    """The scalar eval_pl before the bisect kernel: np.interp on the two knots around t."""
    j = f.x.searchsorted(t, side="right")
    lo = j - 1 if j else 0
    return float(np.interp(t, f.x[lo:j + 1], f.y[lo:j + 1]))


def reference_quadruplet(spec, psi, tol):
    """({name: (x, y)} of psi, chi, eta, xi, violation) as quadruplet built them on merged knots.

    The violation is the band test's, from reference_band_violation.
    """
    u = merge_knots(spec.knots, psi.x)
    psi_u, delta_u, phi_u = eval_pl(psi, u), eval_pl(spec.delta, u), eval_pl(spec.track.phi, u)
    parts = {"psi": (u, psi_u), "chi": (phi_u, phi_u - delta_u + psi_u),
             "eta": (phi_u, delta_u - psi_u), "xi": (u, u - psi_u)}
    name, witness = reference_band_violation(spec, psi, tol)
    if witness is None:
        return parts, None
    return parts, f"{name} decreasing on [{witness[0]:.6g}, {witness[1]:.6g}]"


def reference_blend_psi(a_psi, b_psi, t):
    """The mass function blend built, on the merged knots of both inputs."""
    u = merge_knots(a_psi.x, b_psi.x)
    return PLFunction(u, (1.0 - t) * eval_pl(a_psi, u) + t * eval_pl(b_psi, u))


def _reference_tv(f, a, b):
    """Total variation of f on [a, b]: its increments over the knots inside and the two ends."""
    if a == b:
        return 0.0
    lo = np.searchsorted(f.x, a, side="right")
    hi = np.searchsorted(f.x, b, side="left")
    vals = np.concatenate(([reference_eval_scalar(f, a)], f.y[lo:hi],
                           [reference_eval_scalar(f, b)]))
    d = np.diff(vals)
    return float(np.sum(d[d > 0])) + float(-np.sum(d[d < 0]))


def reference_pointwise_upper_bound(spec, x, y, tol):
    """pointwise_upper_bound as it was: existence, then two quadruplets, for every point."""
    witness, _ = reference_existence(spec, tol)
    if witness is not None:
        raise NoCopulaExists(f"no copula with this track section; witness {witness}")
    if is_identity_track(spec.track):
        zx = x - reference_eval_scalar(spec.delta, x)
        zy = y - reference_eval_scalar(spec.delta, y)
        zeta = PLFunction(spec.knots, spec.knots - spec.delta.y)
        tv = _reference_tv(zeta, min(x, y), max(x, y))
        return min(x, y, max(x, y) - 0.5 * (tv + zx + zy))
    values = []
    for bound in reference_psi_bounds(spec):
        parts, violation = reference_quadruplet(spec, PLFunction(spec.knots, bound), 1e-9)
        if violation is not None:
            raise IneligiblePsi(violation)
        psi = PLFunction(*parts["psi"])
        w = reference_eval_scalar(spec.track.phi_inv, y)
        kappa = (reference_eval_scalar(psi, x) - reference_eval_scalar(psi, w)
                 + reference_eval_scalar(spec.delta, w))
        values.append(min(x, y, kappa))
    return max(values)


def is_identity_track(track):
    """Whether the track's knots lie on the main diagonal, as the identity path decided it."""
    return bool(np.array_equal(track.phi.x, track.phi.y))


def _zeta_zeros(spec):
    """Knots at which zeta = x - delta(x) is exactly zero."""
    return spec.delta.x[spec.knots - spec.delta.y == 0.0]


def _zero_between(spec, lo, hi):
    """Whether a zero of zeta at a knot lies in [lo, hi] (elementwise)."""
    zeros = _zeta_zeros(spec)
    return np.searchsorted(zeros, hi, side="right") > np.searchsorted(zeros, lo, side="left")


def reference_c_psi_value(spec, candidate, x, y):
    """c_psi_value with the identity short-circuit: exactly min(x, y) across a zero of zeta."""
    if is_identity_track(spec.track) and _zero_between(spec, min(x, y), max(x, y)):
        return min(x, y)
    w = eval_pl(spec.track.phi_inv, y)
    kappa = eval_pl(candidate.psi, x) - eval_pl(candidate.psi, w) + eval_pl(spec.delta, w)
    return min(x, y, kappa)


def reference_c_psi_grid_values(spec, candidate, mesh):
    """c_psi_grid_values with the identity short-circuit masked in."""
    psi_x = eval_pl(candidate.psi, mesh)
    w = eval_pl(spec.track.phi_inv, mesh)
    col = eval_pl(spec.delta, w) - eval_pl(candidate.psi, w)
    m = np.minimum(mesh[:, None], mesh[None, :])
    values = np.minimum(m, psi_x[:, None] + col[None, :])
    if is_identity_track(spec.track) and len(_zeta_zeros(spec)):
        hi = np.maximum(mesh[:, None], mesh[None, :])
        values = np.where(_zero_between(spec, m, hi), m, values)
    return values


def whole_grid_values(spec, candidate, mesh):
    """c_psi_grid_values on the whole grid, with an n x n min(x, y) temporary."""
    psi_x = eval_pl(candidate.psi, mesh)
    w = eval_pl(spec.track.phi_inv, mesh)
    col = eval_pl(spec.delta, w) - eval_pl(candidate.psi, w)
    kappa = psi_x[:, None] + col[None, :]
    return np.minimum(np.minimum(mesh[:, None], mesh[None, :]), kappa)


def whole_splice_grid(s, mesh):
    """splice_grid from two whole grids and a boolean mask."""
    mesh = _validate_mesh(mesh, s.upper.spec.track.phi.x)
    upper = whole_grid_values(s.upper.spec, s.upper, mesh)
    lower = whole_grid_values(s.upper.spec, s.lower, mesh)
    phi_mesh = eval_pl(s.upper.spec.track.phi, mesh)
    above = mesh[None, :] >= phi_mesh[:, None]
    return GridCopula(mesh, np.where(above, upper, lower))


def whole_check_grid(grid, mode="copula", tol=1e-9):
    """check_grid on whole-grid differences (mode is not read, as in check_grid).

    Its monotone floor is -(tol + INTERNAL_TOL), the rule check_grid adopted
    after the blocked kernels; the rest is as the whole-grid kernel was.
    """
    mesh, v = grid.mesh, grid.values
    grounded = bool(np.all(np.abs(v[0, :]) <= INTERNAL_TOL)
                    and np.all(np.abs(v[:, 0]) <= INTERNAL_TOL))
    margins = bool(np.all(np.abs(v[-1, :] - mesh) <= INTERNAL_TOL)
                   and np.all(np.abs(v[:, -1] - mesh) <= INTERNAL_TOL))
    dx = np.diff(mesh)
    diff_x = np.diff(v, axis=0)
    diff_y = np.diff(v, axis=1)
    monotone = bool(np.all(diff_x >= -(tol + INTERNAL_TOL))
                    and np.all(diff_y >= -(tol + INTERNAL_TOL)))
    lip_bound = dx * (1.0 + tol) + INTERNAL_TOL
    lipschitz = bool(np.all(diff_x <= lip_bound[:, None])
                     and np.all(diff_y <= lip_bound[None, :]))
    cells = diff_x[:, 1:] - diff_x[:, :-1]
    min_cell = float(cells.min())
    i, j = np.unravel_index(np.argmin(cells), cells.shape)
    worst_cell = (float(mesh[i]), float(mesh[j]))
    two_increasing = min_cell >= -INTERNAL_TOL
    return VerificationReport(grounded, margins, monotone, lipschitz,
                              two_increasing, min_cell, worst_cell)


def whole_compare(grid1, grid2, tol=1e-9):
    """compare on the whole difference grid and its transpose."""
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


def _below_track_area(a, b, w, y0, y1):
    """Area of {(u, v): y0 <= v <= min(phi(u), y1)} over one cell, in fresh temporaries.

    phi is linear from a to b across the cell width w. Exact polygon
    clipping of the cell against the track; evaluated via the primitive
    A(t) = integral of max(phi - t, 0). The library's extraction does the
    same arithmetic, once, on the cells the track crosses.
    """
    def primitive(t):
        t = np.asarray(t, dtype=float)
        full = w * (0.5 * (a + b) - t)
        crossing = np.where(b > a, w * (b - t) ** 2 / (2.0 * np.maximum(b - a, 1e-300)), 0.0)
        out = np.where(t <= a, full, np.where(t >= b, 0.0, crossing))
        return out
    return primitive(y0) - primitive(y1)


def whole_extract_psi(grid, track, tol=1e-9):
    """extract_psi on whole-grid cell volumes and area fractions."""
    if not whole_check_grid(grid, "copula", tol).copula_ok:
        raise NotACopula("grid fails the copula checks")
    mesh = _validate_mesh(grid.mesh, track.phi.x)
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


def reference_section_deviation(grid, track, delta):
    """dominating_envelope's track-section test, one column at a time.

    For each mesh point x, m is the mesh point nearest phi(x), the upper one
    on a tie. A (quasi-)copula is 1-Lipschitz in y, so C(x, m) may miss
    delta(x) by |m - phi(x)|; the deviation is the largest excess over that.
    """
    mesh, worst = grid.mesh, -np.inf
    for i, x in enumerate(mesh):
        p = eval_pl(track.phi, float(x))
        m = min(range(len(mesh)), key=lambda k: (abs(mesh[k] - p), -k))
        worst = max(worst, abs(grid.values[i, m] - eval_pl(delta, float(x))) - abs(mesh[m] - p))
    return worst


def whole_npy_bytes(grid):
    """The bytes of a .npy grid file as np.save wrote the whole (n+1) x (n+1) table."""
    n = len(grid.mesh)
    table = np.empty((n + 1, n + 1))
    table[0, 0] = np.nan
    table[0, 1:] = grid.mesh
    table[1:, 0] = grid.mesh
    table[1:, 1:] = grid.values
    buf = io.BytesIO()
    np.save(buf, table)
    return buf.getvalue()


def whole_csv_bytes(grid):
    """The bytes of a .csv grid file, its body formatted as one table."""
    body = np.column_stack((grid.mesh, grid.values))
    return ("," + _csv_text(grid.mesh[None, :]) + _csv_text(body)).encode()


def whole_read_npy_grid(path):
    """read_grid of a .npy file, the whole table loaded and then checked."""
    try:
        table = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise SpecFileError(f"cannot read grid file {path}: {exc}")
    if not isinstance(table, np.ndarray):  # an .npz archive
        table.close()
        raise SpecFileError(f"grid file {path} is an .npz archive, not an .npy array")
    if table.dtype.kind != "f":
        raise SpecFileError(f"grid file {path} holds {table.dtype} values, not floats")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise SpecFileError(f"grid file {path}: expected a square (n+1) x (n+1) table,"
                            f" got shape {table.shape}")
    mesh = table[0, 1:]
    if not np.array_equal(table[1:, 0], mesh):
        raise SpecFileError(f"grid file {path}: row and column meshes disagree")
    try:
        return GridCopula(mesh, table[1:, 1:])
    except BadMesh as exc:
        raise SpecFileError(f"grid file {path}: {exc}")
