"""Principal eigen-elements of the discretized generator.

The cell-mass generator M (dm/dt = M m) is a Metzler matrix, so for any
sigma above its Perron root rho0 the resolvent (sigma*I - M)^{-1} is
positive on a strongly connected grid (sigma*I - M is a non-singular
M-matrix).  principal_eigen runs inverse iteration on that resolvent and
its transpose: the left eigenvector of M is the grid eigenfunction phi,
the right eigenvector is the eigenmeasure m (cell weights).  It reads M
only through the operator's matrix: the products M v and M^T u, the
diagonal, the column sums, the strong-component count and factor(sigma).
The assembled operator gives each in O(n) from its exchange stencil, so
no n x n matrix is built.
sigma starts above the max column sum of M, a bound on rho0, and after
each round moves toward hi = max (M^T u)_i / u_i, which the left iterate
u puts below sigma and the Collatz-Wielandt bound puts at or above rho0:
every sigma stays above rho0, so every iterate stays positive.  The rounds
stop once both reach rounding: the bracket [min (M^T u)_i / u_i, hi] of
rho0, to 1e3 eps of |hi| + max drain, and the residual M m - rho m at
the two-sided Rayleigh quotient rho, to 1e3 eps of max |M| m.  lambda0
carries the killing-time sign convention: lambda0 = -rho, so a growing
population has lambda0 < 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import BoundViolated, DomainError, NoConvergence, RatePositive, Reducible
from .model import WeightFunction
from .pde import DensityState, DiscreteOperator, SizeGrid, pairing

_SOLVES = 12            # solves per vector on one factorization
_SHIFT = 0.01           # sigma keeps this share of its distance above hi
_TOL = 1e3 * np.finfo(float).eps
_MAX_ROUNDS = 100
BURN_IN_FRACTION = 0.2
_MIN_FIT_STATES = 8


@dataclass
class SpectralTriple:
    """Dominant eigen-elements (lambda0, phi, m) on a size grid."""

    grid: SizeGrid
    lambda0: float
    phi: np.ndarray
    m: np.ndarray
    residuals: Tuple[float, float]
    work: Dict[str, int]    # LU factorizations, solves, the last factor's nnz

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


def principal_eigen(op: DiscreteOperator, psi: WeightFunction
                    ) -> SpectralTriple:
    """Dominant eigenpair of the cell-mass generator by inverse iteration.

    Each round factors sigma*I - M once and takes _SOLVES solves for the
    right vector (m) and for the left vector (phi).  The left vector u
    brackets the Perron root between lo and hi, the least and largest
    (M^T u)_i / u_i.  The rounds stop once hi - lo <= _TOL*(|hi| + max
    drain) and max |M v - rho v| <= _TOL * max |M| v at the Rayleigh
    quotient rho; otherwise sigma moves to hi + _SHIFT*(sigma - hi).
    """
    matrix = op.matrix
    n = matrix.shape[0]
    if matrix.shape != (n, n) or n < 2:
        raise DomainError("operator matrix must be square with >= 2 cells")
    components = matrix.strong_components()
    if components != 1:
        raise Reducible(
            f"operator sparsity graph has {components} strong components")

    drain = np.maximum(-matrix.diagonal(), 0.0)
    max_drain = float(np.max(drain))
    if max_drain <= 0.0:
        raise DomainError("generator diagonal must contain drain terms")
    # the max column sum c of a Metzler matrix bounds its Perron root;
    # doubling |c| + 1 keeps sigma - M_jj clear of the rounding of c
    sigma = 2.0 * (abs(float(np.max(matrix.column_sums()))) + 1.0)
    v = np.ones(n)          # right vector of M: eigenmeasure m
    u = np.ones(n)          # left vector of M: eigenfunction phi
    for rounds in range(1, _MAX_ROUNDS + 1):
        lu = None   # free the old factors before the new are built
        lu = matrix.factor(sigma)
        rhs = np.zeros(lu.shape[0])     # zero past n: the stencil's R and Q
        for _ in range(_SOLVES):
            rhs[:n] = v
            v = lu.solve(rhs)[:n]
            v /= v.max()
            rhs[:n] = u
            u = lu.solve(rhs, trans="T")[:n]
            u /= u.max()
        if np.any(u <= 0.0) or np.any(v < 0.0):
            raise Reducible("dominant eigenvectors are not positive")
        ratios = matrix.apply_transpose(u) / u
        lo, hi = float(ratios.min()), float(ratios.max())
        product = matrix @ v
        rayleigh = float(u @ product) / float(u @ v)
        # |M| v = M v + 2 drain v scales the residual of m by m itself
        if (hi - lo <= _TOL * (abs(hi) + max_drain)
                and np.max(np.abs(product - rayleigh * v))
                <= _TOL * np.max(product + 2.0 * drain * v)):
            break
        # u = (sigma - M^T)^{-1} w with w > 0 puts hi below sigma, and hi
        # >= rho0, so the new sigma stays above rho0: the resolvent stays
        # positive
        sigma = hi + _SHIFT * (sigma - hi)
    else:
        raise NoConvergence(
            f"inverse iteration did not converge in {_MAX_ROUNDS} rounds")

    centers = op.grid.centers
    psi_vals = np.array([psi(x) for x in centers])
    if np.any(psi_vals <= 0.0):
        raise DomainError("psi must be positive on the grid")
    m = v / float(psi_vals @ v)                # m(psi) = 1
    phi = u / float(np.max(np.abs(u / psi_vals)))   # max |phi/psi| = 1

    norm = abs(rayleigh) + max_drain
    right_res = float(np.max(np.abs(matrix.apply_transpose(phi)
                                    - rayleigh * phi))
                      / (norm * np.max(np.abs(phi))))
    left_res = float(np.max(np.abs(matrix @ m - rayleigh * m))
                     / (norm * np.max(np.abs(m))))
    return SpectralTriple(
        grid=op.grid,
        lambda0=-rayleigh,
        phi=phi,
        m=m,
        residuals=(right_res, left_res),
        work={"factorizations": rounds, "solves": 2 * rounds * _SOLVES,
              "factor_nnz": int(lu.nnz)},
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


def fit_window(times: Sequence[float]) -> np.ndarray:
    """Which states the gap fit keeps: those past the burn-in.

    The burn-in is BURN_IN_FRACTION of the last time; fewer than
    _MIN_FIT_STATES states past it is a DomainError.
    """
    times = np.asarray(times, dtype=float)
    kept = times > BURN_IN_FRACTION * times.max()
    count = int(np.count_nonzero(kept))
    if count < _MIN_FIT_STATES:
        raise DomainError(
            f"the gap fit needs >= {_MIN_FIT_STATES} checkpoints past the "
            f"{BURN_IN_FRACTION:.0%} burn-in of t_end, got {count}")
    return kept


def fit_gap_rate(checkpoints: Sequence[DensityState], triple: SpectralTriple,
                 f: Callable) -> Tuple[float, float]:
    """Spectral-gap rate from the decay of the projected residual.

    For each checkpoint the residual |e^{lambda0 t} <u_t, f> - a*m(f)/m(phi)|
    is formed, where a = e^{lambda0 t0} <u_{t0}, phi> is the (conserved)
    phi-component of the solution; the log-residual slope over the
    fit_window states gives gamma = -slope.
    """
    states = sorted(checkpoints, key=lambda s: s.time)
    if not states:
        raise DomainError("no checkpoints supplied")
    for s in states:
        if s.grid.n_cells != triple.grid.n_cells or not np.allclose(
                s.grid.edges, triple.grid.edges):
            raise DomainError("checkpoint grid differs from the triple's")
    lam0 = triple.lambda0
    first = states[0]
    phi_component = float(np.exp(lam0 * first.time)
                          * (triple.phi @ first.masses))
    m_f = triple.m_of(f)
    m_phi = float(triple.phi @ triple.m)
    limit = phi_component * m_f / m_phi

    ts = np.array([s.time for s in states])
    kept = fit_window(ts)
    resid = np.array([abs(np.exp(lam0 * s.time) * pairing(s, f) - limit)
                      for s, keep in zip(states, kept) if keep])
    return loglinear_fit(ts[kept], resid)
