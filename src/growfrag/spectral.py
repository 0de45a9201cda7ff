"""Principal eigen-elements of the discretized generator.

The cell-mass generator M (dm/dt = M m) is a Metzler matrix, so the
resolvent (I - tau*M)^{-1} is non-negative whenever tau times the
dominant eigenvalue stays below 1 (Neumann series on the shifted
non-negative part), and Perron-Frobenius applies on a strongly
connected grid.  Power iteration on the resolvent and its transpose
yields the dominant pair: the left eigenvector of M is the grid
eigenfunction phi, the right eigenvector is the eigenmeasure m (cell
weights).  lambda0 carries the killing-time sign convention:
lambda0 = -(Perron eigenvalue of M), so a growing population has
lambda0 < 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.sparse import csgraph

from .errors import BoundViolated, DomainError, NoConvergence, RatePositive, Reducible
from .model import WeightFunction
from .pde import DensityState, DiscreteOperator, SizeGrid, pairing

_RAYLEIGH_TOL = 1e-10
_RESIDUAL_TOL = 1e-9
_MAX_ITER = 100_000
BURN_IN_FRACTION = 0.2


@dataclass
class SpectralTriple:
    """Dominant eigen-elements (lambda0, phi, m) on a size grid."""

    grid: SizeGrid
    lambda0: float
    phi: np.ndarray
    m: np.ndarray
    residuals: Tuple[float, float]
    normalization: dict

    def m_of(self, f: Callable) -> float:
        """m(f) = sum_i f(x_i) m_i (midpoint pairing)."""
        return float(sum(f(x) * w for x, w in zip(self.grid.centers, self.m)))

    def phi_at(self, x: float) -> float:
        """phi interpolated (log-linearly in x) at a point."""
        centers = self.grid.centers
        return float(np.interp(np.log(x), np.log(centers), self.phi))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "phi", "m"])
            for x, p, w in zip(self.grid.centers, self.phi, self.m):
                writer.writerow([repr(float(x)), repr(float(p)),
                                 repr(float(w))])


def _require_strongly_connected(matrix):
    pattern = (matrix != 0)
    pattern.setdiag(True)
    n_comp, _ = csgraph.connected_components(pattern, directed=True,
                                             connection="strong")
    if n_comp != 1:
        raise Reducible(
            f"operator sparsity graph has {n_comp} strong components")


def _converged(matrix, matrix_t, u, v, rayleigh, scale):
    right = float(np.max(np.abs(matrix_t @ u - rayleigh * u)))
    left = float(np.max(np.abs(matrix @ v - rayleigh * v)))
    return (right <= _RESIDUAL_TOL * scale * np.max(np.abs(u))
            and left <= _RESIDUAL_TOL * scale * np.max(np.abs(v)))


def principal_eigen(op: DiscreteOperator, psi: WeightFunction,
                    max_iter: int = _MAX_ITER) -> SpectralTriple:
    """Dominant eigenpair of the cell-mass generator by power iteration.

    Runs resolvent power iteration v <- (I - tau*M)^{-1} v (and the
    transpose solve for the left vector), enlarging tau adaptively while
    the iterates stay non-negative; stops once successive Rayleigh
    quotients agree to 1e-10 and both eigen-residuals fall below 1e-9.
    """
    from scipy.sparse import eye as speye
    from scipy.sparse.linalg import splu

    matrix = op.matrix.tocsr()
    n = matrix.shape[0]
    if matrix.shape != (n, n) or n < 2:
        raise DomainError("operator matrix must be square with >= 2 cells")
    _require_strongly_connected(matrix.copy())

    max_drain = float(np.max(-matrix.diagonal()))
    if max_drain <= 0.0:
        raise DomainError("generator diagonal must contain drain terms")
    matrix_t = matrix.T.tocsr()
    # Perron upper bound: max column sum of a Metzler matrix
    growth_ub = float(np.max(np.asarray(matrix.sum(axis=0))))

    def factor(tau):
        return splu((speye(n, format="csc") - tau * matrix.tocsc()))

    tau = 0.5 / (abs(growth_ub) + 1.0)
    lu = factor(tau)
    v = np.full(n, 1.0 / n)          # right vector of M: eigenmeasure m
    u = np.full(n, 1.0 / n)          # left vector of M: eigenfunction phi
    rayleigh = rayleigh_prev = np.inf
    tau_ceiling = np.inf           # smallest tau seen to break positivity
    done = False
    iters = 0
    block = max(40, 2 * int(np.sqrt(n)))
    while iters < max_iter and not done:
        for _ in range(block):
            iters += 1
            v_new = lu.solve(v)
            u_new = lu.solve(u, trans="T")
            floor = -1e-12 * max(np.max(np.abs(v_new)), np.max(np.abs(u_new)))
            if (not np.all(np.isfinite(v_new)) or not np.all(np.isfinite(u_new))
                    or np.min(v_new) < floor or np.min(u_new) < floor):
                # tau crossed 1/lambda_max: the resolvent lost positivity
                tau_ceiling = min(tau_ceiling, tau)
                tau *= 0.25
                lu = factor(tau)
                continue
            v = np.clip(v_new, 0.0, None)
            u = np.clip(u_new, 0.0, None)
            v /= v.sum()
            u /= u.max()
            rayleigh = float(u @ (matrix @ v)) / float(u @ v)
            if abs(rayleigh - rayleigh_prev) < _RAYLEIGH_TOL and _converged(
                    matrix, matrix_t, u, v, rayleigh,
                    abs(rayleigh) + max_drain):
                done = True
                break
            rayleigh_prev = rayleigh
        if not done and np.isfinite(rayleigh):
            # re-center the shift near (but safely below) 1/lambda
            tau_new = (0.9 / rayleigh if rayleigh > 0.0
                       else min(tau * 8.0, 1e3))
            tau_new = min(tau_new, 0.5 * tau_ceiling)
            if tau_new > tau * 1.2:
                tau = tau_new
                lu = factor(tau)
    if not done:
        raise NoConvergence(
            f"power iteration did not converge in {max_iter} iterations")

    if np.any(u <= 0.0) or np.any(v < 0.0):
        raise Reducible("dominant eigenvectors are not positive")

    centers = op.grid.centers
    psi_vals = np.array([psi(x) for x in centers])
    if np.any(psi_vals <= 0.0):
        raise DomainError("psi must be positive on the grid")
    m = v / float(psi_vals @ v)                # m(psi) = 1
    phi = u / float(np.max(np.abs(u / psi_vals)))   # max |phi/psi| = 1

    norm = abs(rayleigh) + max_drain
    right_res = float(np.max(np.abs(matrix_t @ phi - rayleigh * phi))
                      / (norm * np.max(np.abs(phi))))
    left_res = float(np.max(np.abs(matrix @ m - rayleigh * m))
                     / (norm * np.max(np.abs(m))))
    return SpectralTriple(
        grid=op.grid,
        lambda0=-rayleigh,
        phi=phi,
        m=m,
        residuals=(right_res, left_res),
        normalization={"m_psi": float(psi_vals @ m),
                       "max_phi_over_psi": float(np.max(np.abs(phi / psi_vals))),
                       "tau": tau},
    )


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the lambda0 <= lambda2 comparison."""

    lambda0: float
    lambda2: float
    margin: float          # lambda2 - lambda0 (>= -tolerance required)
    strict: bool
    tolerance: float


def lambda0_vs_bound(triple: SpectralTriple, lambda2: float,
                     nonconstant: bool = False,
                     tolerance: float = 1e-6) -> BoundReport:
    """Check lambda0 <= lambda2 (strictly if the weight ratio varies)."""
    margin = float(lambda2) - triple.lambda0
    if margin < -tolerance:
        raise BoundViolated(
            f"lambda0 = {triple.lambda0:.8g} exceeds lambda2 = "
            f"{float(lambda2):.8g} by {-margin:.3g}")
    if nonconstant and margin <= tolerance:
        raise BoundViolated(
            f"strict gap expected but lambda2 - lambda0 = {margin:.3g} "
            f"is within tolerance {tolerance:g}")
    return BoundReport(lambda0=triple.lambda0, lambda2=float(lambda2),
                       margin=margin, strict=margin > tolerance,
                       tolerance=tolerance)


def loglinear_fit(ts: np.ndarray, values: np.ndarray
                  ) -> Tuple[float, float]:
    """Least-squares slope/quality of log(values) against t.

    Returns (gamma, r_squared) with gamma = -slope.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 0.0
    if mask.sum() < 3:
        raise DomainError("need at least three positive residuals to fit")
    ts, logs = ts[mask], np.log(values[mask])
    slope, intercept = np.polyfit(ts, logs, 1)
    fit = slope * ts + intercept
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    if slope >= 0.0:
        raise RatePositive(
            f"residual fit slope {slope:.3g} >= 0: no spectral-gap decay")
    return -float(slope), r_squared


def fit_gap_rate(checkpoints: Sequence[DensityState], triple: SpectralTriple,
                 f: Callable, psi: WeightFunction,
                 burn_in: float = BURN_IN_FRACTION
                 ) -> Tuple[float, float]:
    """Spectral-gap rate from the decay of the projected residual.

    For each checkpoint the residual |e^{lambda0 t} <u_t, f> - a*m(f)/m(phi)|
    is formed, where a = e^{lambda0 t0} <u_{t0}, phi> is the (conserved)
    phi-component of the solution; the log-residual slope past the
    burn-in fraction of the horizon gives gamma = -slope.
    """
    states = sorted(checkpoints, key=lambda s: s.time)
    if not states:
        raise DomainError("no checkpoints supplied")
    for s in states:
        if s.grid.n_cells != triple.grid.n_cells or not np.allclose(
                s.grid.edges, triple.grid.edges):
            raise DomainError("checkpoint grid differs from the triple's")
    horizon = states[-1].time
    lam0 = triple.lambda0
    first = states[0]
    phi_component = float(np.exp(lam0 * first.time)
                          * (triple.phi @ first.masses))
    m_f = triple.m_of(f)
    m_phi = float(triple.phi @ triple.m)
    limit = phi_component * m_f / m_phi

    kept = [s for s in states if s.time > burn_in * horizon]
    if len(kept) < 8:
        raise DomainError(
            f"need >= 8 checkpoints past the {burn_in:.0%} burn-in, "
            f"got {len(kept)}")
    ts = np.array([s.time for s in kept])
    resid = np.array([abs(np.exp(lam0 * s.time) * pairing(s, f) - limit)
                      for s in kept])
    return loglinear_fit(ts, resid)
