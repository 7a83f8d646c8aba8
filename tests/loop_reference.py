"""The per-knot Python loops that the vectorized kernels replaced, kept as oracles.

`first_increase_violation`, `first_decrease_violation` and
`rightmost_level` are the loop versions of the witness finders and of the
level inverse used by region_functions. The `reference_*` functions compose
them exactly as existence_check, eligibility_by_variation, psi_bounds and
region_functions did, so the vectorized code can be required to give
bit-identical results.
"""

import numpy as np

from trackcop import PLFunction, eval_pl, merge_knots


def first_increase_violation(values, knots, tol):
    """First pair i < j with values[j] > min(values[:j]) + tol.

    The left endpoint reported is the latest index attaining the running
    minimum, which pins the witness to the offending interval.
    """
    run_min = values[0]
    run_idx = 0
    for j in range(1, len(values)):
        if values[j] > run_min + tol:
            return (float(knots[run_idx]), float(knots[j]))
        if values[j] <= run_min:
            run_min = values[j]
            run_idx = j
    return None


def first_decrease_violation(values, knots, tol):
    """First pair i < j with values[j] < max(values[:j]) - tol."""
    run_max = values[0]
    run_idx = 0
    for j in range(1, len(values)):
        if values[j] < run_max - tol:
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


def reference_eligibility_witness(spec, psi, tol):
    u = merge_knots(spec.knots, psi.x)
    psi_u, delta_u, phi_u = eval_pl(psi, u), eval_pl(spec.delta, u), eval_pl(spec.track.phi, u)
    dd = np.diff(delta_u)
    dp = np.diff(phi_u)
    du = np.diff(u)
    cum_vm_dt = np.concatenate(([0.0], np.cumsum(np.maximum(dd - dp, 0.0))))
    cum_vp_z = np.concatenate(([0.0], np.cumsum(np.maximum(du - dd, 0.0))))
    witness = first_decrease_violation(psi_u - cum_vm_dt, u, tol)
    if witness is None:
        witness = first_decrease_violation(u - cum_vp_z - psi_u, u, tol)
    return witness


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
    """(g, h) as region_functions computed them, one knot at a time."""
    u = candidate.psi.x
    phi_u = eval_pl(spec.track.phi, u)
    g_vals = np.empty(len(u))
    h_vals = np.empty(len(u))
    for i in range(len(u)):
        g_vals[i] = rightmost_level(candidate.chi.x, candidate.chi.y, candidate.psi.y[i])
        h_vals[i] = rightmost_level(candidate.eta.x, candidate.eta.y, candidate.xi.y[i])
    g_vals = np.minimum(g_vals, phi_u)
    return PLFunction(u, g_vals), PLFunction(u, h_vals)
