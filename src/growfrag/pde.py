"""Finite-volume solver for the growth-fragmentation density equation.

The state vector holds cell masses m_i ~ int_cell u_t(x) dx on a
log-uniform grid; its evolution dm/dt = M m is the adjoint of the
generator A: first-order donor-cell upwind transport (c > 0 moves mass
rightward), fragmentation outflow at rate K(x_i), and inflow rows
obtained by integrating the child kernel over destination cells.
Atomic ratio kernels land in cells exactly; densities are integrated
through a high-resolution cumulative table.

Starting from a point mass at x0, pairing the solution against f gives
the deterministic oracle for T_t f(x0).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy import sparse

from .errors import (CFLUnsatisfiable, CFLViolation, DomainError,
                     NegativeMass)
from .flow import FlowEngine
from .model import ModelSpec, _quad

_CFL_FACTOR = 0.9
_MIN_DT = 1e-12
_LEAK_WARN_FRACTION = 1e-3


class BoundaryLeak(UserWarning):
    """Fragmentation inflow below x_min exceeded 0.1% of total mass."""


@dataclass(frozen=True)
class SizeGrid:
    """Strictly increasing cell edges with geometric centers and widths."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 3:
            raise DomainError("grid needs at least two cells")
        if edges[0] <= 0.0 or np.any(np.diff(edges) <= 0.0):
            raise DomainError("grid edges must be positive and increasing")
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def log_uniform(x_min, x_max, n_cells):
        if not 0.0 < x_min < x_max:
            raise DomainError("grid bounds must satisfy 0 < x_min < x_max")
        return SizeGrid(np.geomspace(x_min, x_max, n_cells + 1))

    @property
    def n_cells(self):
        return len(self.edges) - 1

    @property
    def centers(self):
        return np.sqrt(self.edges[:-1] * self.edges[1:])

    @property
    def widths(self):
        return np.diff(self.edges)

    def locate(self, x):
        """Index of the cell containing x."""
        if not self.edges[0] <= x <= self.edges[-1]:
            raise DomainError(f"x={x:g} outside the grid")
        return min(int(np.searchsorted(self.edges, x, side="right")) - 1,
                   self.n_cells - 1)


@dataclass
class DensityState:
    """Cell masses at one instant."""

    grid: SizeGrid
    masses: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if len(self.masses) != self.grid.n_cells:
            raise DomainError("mass vector length does not match the grid")
        if np.any(self.masses < 0.0):
            raise NegativeMass("initial cell masses must be non-negative")

    @staticmethod
    def point_mass(grid: SizeGrid, x0: float, mass=1.0):
        m = np.zeros(grid.n_cells)
        m[grid.locate(x0)] = mass
        return DensityState(grid=grid, masses=m)

    def total_mass(self):
        return float(self.masses.sum())


def pairing(state: DensityState, f: Callable) -> float:
    """<u_t, f> ~ sum_i f(x_i) m_i with midpoint (geometric-center) nodes."""
    centers = state.grid.centers
    return float(sum(f(x) * m for x, m in zip(centers, state.masses)))


def _gauss8(f, a, b):
    """8-point Gauss-Legendre integral of f over (a, b), elementwise."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = 0
    for g, w in zip(*np.polynomial.legendre.leggauss(8)):
        total = total + w * f(mid + half * g)
    return half * total


def _density_cell_masses(measure, n_fine=8192):
    """Cumulative P(u) = p((0,u]) of the density part on a fine grid,
    returned as (grid, cumulative) for interval masses by interp."""
    # geometric refinement near 0 to absorb integrable singularities
    left = np.geomspace(1e-12, 1e-2, n_fine // 4)
    right = np.linspace(1e-2, 1.0, n_fine)[1:]
    grid = np.concatenate([[0.0], left, right])
    panel = _gauss8(np.vectorize(measure.density, otypes=[float]),
                    grid[:-1], grid[1:])
    if measure.density_singular_at_zero:
        # Gauss nodes miss most of the mass of a singularity at 0
        panel[0] = _quad(measure.density, 0.0, grid[1])
    return grid, np.concatenate([[0.0], np.cumsum(panel)])


@dataclass
class DiscreteOperator:
    """Sparse generator M of dm/dt = M m, plus solver metadata."""

    grid: SizeGrid
    matrix: sparse.csr_matrix
    below_inflow: np.ndarray   # rate of mass landing below x_min, per source
    cfl_dt: float


def build_discrete_operator(model: ModelSpec,
                            grid: SizeGrid) -> DiscreteOperator:
    """Assemble upwind transport + fragmentation exchange on the grid.

    For relative kernels the fragmentation columns (with the below-domain
    part folded into the first cell) sum to K(x_i)(p((0,1)) - 1); the
    assembly verifies this within 1e-8.
    """
    n = grid.n_cells
    edges, centers = grid.edges, grid.centers
    speed = (model.growth.c if model.growth.kind == "speed-c" else
             FlowEngine(model.growth, *model.domain_hint).speed_at)
    c_edge = np.array([speed(e) for e in edges])
    if np.any(c_edge <= 0.0):
        raise DomainError("upwind assembly requires positive speed at edges")

    # transport: donor-cell flux through each interior edge, outflow at the
    # last edge (c > 0, so the left boundary needs no condition).  Entries
    # are listed transport first, then column by column, each column's
    # inflow before its diagonal: that order fixes how CSR sums duplicates
    out = c_edge[1:] / grid.widths
    pairs = np.repeat(np.arange(n), 2)
    rows, cols = [pairs[1:]], [pairs[:-1]]
    vals = [np.stack([-out, out], axis=1).ravel()[:-1]]
    rate = np.array([model.frag.loss_rate(x) for x in centers])
    below = np.zeros(n)

    def emit(i, inflow):
        nz = np.nonzero(inflow)[0]
        rows.extend((nz, [i]))
        cols.append(np.full(len(nz) + 1, i))
        vals.extend((inflow[nz], [-rate[i]]))
        return inflow.sum() - rate[i]

    if model.frag.kind == "relative":
        measure = model.frag.ratio_measure
        p_mass = measure.mass()
        if measure.density is not None:
            cdf_grid, cdf_vals = _density_cell_masses(measure)
        frag_colsum = np.zeros(n)
        for i in np.flatnonzero(rate):
            x, inflow = centers[i], np.zeros(n)
            for u, w in measure.atoms:
                y = u * x
                if y < edges[0]:
                    below[i] += rate[i] * w
                    inflow[0] += w
                else:
                    inflow[grid.locate(y)] += w
            if measure.density is not None:
                cum = np.interp(np.clip(edges / x, 0.0, 1.0), cdf_grid,
                                cdf_vals)
                inflow += np.diff(cum)
                inflow[0] += cum[0]
                below[i] += rate[i] * cum[0]
            frag_colsum[i] = emit(i, inflow * rate[i])
        expected = rate * (p_mass - 1.0)
        if np.max(np.abs(frag_colsum - expected)) > 1e-8 * (1.0 + np.max(
                np.abs(expected))):
            raise DomainError(
                "fragmentation column sums disagree with K(x)(p((0,1))-1)")
    else:
        density = model.frag.general_density
        for i, x in enumerate(centers):
            m = int(np.searchsorted(edges, x))   # cells starting below x
            k_x = np.vectorize(lambda y: density(x, y), otypes=[float])
            mass = _gauss8(k_x, np.concatenate([[0.0], edges[:m]]),
                           np.minimum(edges[:m + 1], x))
            inflow = np.zeros(n)
            inflow[:m] = mass[1:]
            inflow[0] += mass[0]   # (0, x_min) folded into the first cell
            below[i] = mass[0]
            emit(i, inflow)

    matrix = sparse.csr_matrix(sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)))
    cfl_dt = _CFL_FACTOR / float(np.max(out + rate))
    if cfl_dt < _MIN_DT:
        raise CFLUnsatisfiable(
            f"stable time step {cfl_dt:g} below {_MIN_DT:g}")
    return DiscreteOperator(grid=grid, matrix=matrix, below_inflow=below,
                            cfl_dt=cfl_dt)


@dataclass
class Trajectory:
    """Checkpointed solver output."""

    states: List[DensityState]
    below_domain_mass: float = 0.0

    @property
    def final(self):
        return self.states[-1]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "cell_center", "mass"])
            for state in self.states:
                for x, m in zip(state.grid.centers, state.masses):
                    writer.writerow([repr(state.time), repr(float(x)),
                                     repr(float(m))])

    def summary(self):
        return [{"t": s.time,
                 "total_mass": s.total_mass(),
                 "total_size": pairing(s, lambda x: x)}
                for s in self.states]


def solve(model: ModelSpec, grid: SizeGrid, u0, t_end: float,
          dt: Optional[float] = None, method: str = "euler",
          checkpoints=None, operator: Optional[DiscreteOperator] = None
          ) -> Trajectory:
    """March dm/dt = M m to t_end with positivity checks.

    u0 is a DensityState or a point-mass location x0.  Checkpoints are
    hit exactly by shortening the step; the trajectory records them plus
    the final state.
    """
    if operator is None:
        operator = build_discrete_operator(model, grid)
    if isinstance(u0, DensityState):
        state = DensityState(grid=grid, masses=u0.masses.copy(),
                             time=u0.time)
    else:
        state = DensityState.point_mass(grid, float(u0))
    if dt is None:
        dt = operator.cfl_dt
    elif dt > operator.cfl_dt + 1e-15:
        raise CFLViolation(
            f"dt={dt:g} exceeds the positivity bound {operator.cfl_dt:g}")
    if method not in ("euler", "heun"):
        raise DomainError(f"unknown time stepper {method!r}")

    marks = sorted(set(float(t) for t in (checkpoints or []))
                   | {float(t_end)})
    if any(t < state.time or t > t_end for t in marks):
        raise DomainError("checkpoints must lie in [t0, t_end]")
    matrix = operator.matrix
    below = operator.below_inflow
    m = state.masses
    t = state.time
    leak = 0.0
    out = []
    for mark in marks:
        while t < mark - 1e-15:
            step = min(dt, mark - t)
            rate0 = matrix @ m
            if method == "euler":
                m_new = m + step * rate0
            else:
                pred = m + step * rate0
                m_new = m + 0.5 * step * (rate0 + matrix @ pred)
            floor = -1e-9 * max(m.sum(), 1e-300)
            if np.min(m_new) < floor:
                raise NegativeMass(
                    f"negative cell mass {np.min(m_new):g} at t={t + step:g}")
            np.clip(m_new, 0.0, None, out=m_new)
            leak += step * float(below @ m)
            m = m_new
            t += step
        out.append(DensityState(grid=grid, masses=m.copy(), time=mark))
    total = max(out[-1].total_mass(), 1e-300)
    if leak > _LEAK_WARN_FRACTION * total:
        warnings.warn(
            f"fragmentation inflow below x_min reached {leak:g} "
            f"({leak / total:.2%} of final mass)", BoundaryLeak)
    return Trajectory(states=out, below_domain_mass=leak)
