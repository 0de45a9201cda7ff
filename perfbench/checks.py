"""Closed-form answers of the canonical model and the checks built on them.

The canonical model has unit growth speed c = 1, fragmentation rate
K(x) = x and uniform repartition p(du) = 2 du.  Its moments, its
dominant eigenvalue and both eigenvectors are known in closed form (the
derivations are in README.md), so every workload can be checked against
numbers computed apart from growfrag.  Each check returns a dict with
the compared values, the allowed error and a boolean ``ok``.

Tolerances:
* Monte Carlo estimate: ``MC_K_SE`` reported standard errors.
* Fleming-Viot lambda0: ``FV_K_HALF_WIDTHS`` half-widths of the run's
  95% batch-means confidence interval.
* Grid results: a first-order allowance proportional to the log-grid
  spacing ``delta = ln(x_max / x_min) / n``.
"""

from __future__ import annotations

import math

import numpy as np

LAMBDA0 = -1.0

MC_K_SE = 4.5
FV_K_HALF_WIDTHS = 3.5
MOMENT_PER_DELTA = 1.0
EIGEN_PER_DELTA = 0.5
PHI_X_MAX = 20.0


def mass(t, x0):
    """T_t 1(x0): number of cells at time t from one cell of size x0."""
    return math.cosh(t) + x0 * math.sinh(t)


def size(t, x0):
    """T_t id(x0): total size at time t from one cell of size x0."""
    return x0 * math.cosh(t) + math.sinh(t)


def phi(x):
    """Eigenfunction, up to a constant: A(1 + x) = 1 + x."""
    return 1.0 + np.asarray(x, dtype=float)


def tail_u(x):
    """U(x) = m((x, inf)) for the normalised eigenmeasure."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x) * np.exp(-x * (x + 2.0) / 2.0)


def eigen_density(x):
    """dm/dx = -U'(x) = x (x + 2) exp(-x (x + 2) / 2)."""
    x = np.asarray(x, dtype=float)
    return x * (x + 2.0) * np.exp(-x * (x + 2.0) / 2.0)


def cell_masses(edges):
    """m((a, b]) on each cell, normalised to a probability on the grid."""
    u = tail_u(edges)
    return (u[:-1] - u[1:]) / (u[0] - u[-1])


def grid_delta(x_min, x_max, n):
    """Spacing of the log-uniform grid in ln x."""
    return math.log(x_max / x_min) / n


def check_mc_estimate(estimate, std_error, expected, k=MC_K_SE):
    """Estimate within k standard errors of the closed form."""
    ok = (math.isfinite(estimate) and math.isfinite(std_error)
          and std_error > 0.0 and abs(estimate - expected) <= k * std_error)
    return {"name": "mc_estimate", "value": estimate, "expected": expected,
            "allowed": k * std_error, "ok": bool(ok)}


def check_fv_lambda0(lambda0, ci_low, ci_high, k=FV_K_HALF_WIDTHS):
    """lambda0 within k half-widths of its own confidence interval of -1."""
    half = 0.5 * (ci_high - ci_low)
    ok = (math.isfinite(lambda0) and half > 0.0
          and ci_low <= lambda0 <= ci_high
          and abs(lambda0 - LAMBDA0) <= k * half)
    return {"name": "fv_lambda0", "value": lambda0, "expected": LAMBDA0,
            "allowed": k * half, "ok": bool(ok)}


def check_moments(summary, x0, delta, per_delta=MOMENT_PER_DELTA):
    """Total mass and size at every checkpoint within a relative allowance.

    summary is the ``pde`` subcommand's list of
    ``{"t", "total_mass", "total_size"}`` records.
    """
    allowed = per_delta * delta
    worst = 0.0
    for rec in summary:
        t = rec["t"]
        for got, want in ((rec["total_mass"], mass(t, x0)),
                          (rec["total_size"], size(t, x0))):
            worst = max(worst, abs(got - want) / want)
    ok = bool(summary) and worst <= allowed
    return {"name": "moments", "value": worst, "expected": 0.0,
            "allowed": allowed, "ok": bool(ok)}


def check_lambda0_grid(lambda0, delta, per_delta=EIGEN_PER_DELTA):
    allowed = per_delta * delta
    ok = math.isfinite(lambda0) and abs(lambda0 - LAMBDA0) <= allowed
    return {"name": "spectral_lambda0", "value": lambda0, "expected": LAMBDA0,
            "allowed": allowed, "ok": bool(ok)}


def check_eigenmeasure(edges, m, delta, per_delta=EIGEN_PER_DELTA):
    """Total-variation distance from the closed-form cell masses."""
    m = np.asarray(m, dtype=float)
    tv = 0.5 * float(np.sum(np.abs(m / m.sum() - cell_masses(edges))))
    allowed = per_delta * delta
    ok = bool(np.all(m >= 0.0)) and tv <= allowed
    return {"name": "spectral_m", "value": tv, "expected": 0.0,
            "allowed": allowed, "ok": bool(ok)}


def check_eigenfunction(centers, phi_values, delta, per_delta=EIGEN_PER_DELTA,
                        x_max=PHI_X_MAX):
    """Largest relative deviation of phi from c (1 + x) on x <= x_max.

    The truncated right edge is excluded; c is the least-squares scale.
    """
    centers = np.asarray(centers, dtype=float)
    sel = centers <= x_max
    ref = phi(centers[sel])
    got = np.asarray(phi_values, dtype=float)[sel]
    scale = float(got @ ref) / float(ref @ ref)
    dev = float(np.max(np.abs(got / scale - ref) / ref)) if scale > 0 \
        else math.inf
    allowed = per_delta * delta
    return {"name": "spectral_phi", "value": dev, "expected": 0.0,
            "allowed": allowed, "ok": bool(dev <= allowed)}
