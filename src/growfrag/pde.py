"""Finite-volume solver for the growth-fragmentation density equation.

The state vector holds cell masses m_i ~ int_cell u_t(x) dx on a
log-uniform grid; its evolution dm/dt = M m is the adjoint of the
generator A: first-order donor-cell upwind transport (c > 0 moves mass
rightward), fragmentation outflow at rate K(x_i), and inflow rows
obtained by integrating the child kernel over destination cells.
Atomic ratio kernels land in cells exactly; densities are integrated
through the ratio measure's cumulative table, the one its draws invert.

On a log-uniform grid edges_j / x_i = r^(j-i-1/2), so a relative
kernel's unit inflow from cell i into cell j >= 1 depends on i - j
only.  The march then applies the exchange as one Toeplitz correlation
of non-negative terms (each entry keeps its relative accuracy, unlike an
FFT) instead of the ~n^2/2-entry sparse product.

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
from .model import ModelSpec, _elementwise, _gauss8

_CFL_FACTOR = 0.9
_MIN_DT = 1e-12
_LEAK_WARN_FRACTION = 1e-3
_STENCIL_RTOL = 1e-10     # largest column deviation the stencil accepts
_MASS_FLOOR = 1e-250      # cell masses below this fraction of the total


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


@dataclass(frozen=True)
class ExchangeStencil:
    """M m as transport plus a Toeplitz fragmentation exchange.

    Row 0 receives head @ (K m); row j >= 1 receives
    sum_k g[k] (K m)[j + k], where taps = g reversed.
    """

    rate: np.ndarray
    out: np.ndarray    # c(edge_{i+1}) / width_i: upwind outflow of cell i
    head: np.ndarray   # unit inflow of each column into the first cell
    taps: np.ndarray

    def apply(self, m):
        v = self.rate * m
        flux = self.out * m
        dm = np.empty_like(m)
        dm[0] = self.head @ v
        dm[1:] = np.convolve(v, self.taps)[len(m) - 1:]
        dm[1:] += flux[:-1]
        dm -= v
        dm -= flux
        return dm


@dataclass
class DiscreteOperator:
    """Sparse generator M of dm/dt = M m, plus solver metadata.

    stencil_error is the largest entrywise relative deviation of the
    unit fragmentation columns from the Toeplitz stencil, |a/g - 1|
    (None when the kernel has no density part); the march uses the
    stencil when it is at most 1e-10.
    """

    grid: SizeGrid
    matrix: sparse.csr_matrix
    below_inflow: np.ndarray   # rate of mass landing below x_min, per source
    cfl_dt: float
    stencil: Optional[ExchangeStencil] = None
    stencil_error: Optional[float] = None

    @property
    def uses_stencil(self):
        return self.stencil is not None and self.stencil_error <= _STENCIL_RTOL


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

    stencil = stencil_error = None
    if model.frag.kind == "relative":
        measure = model.frag.ratio_measure
        p_mass = measure.mass()
        has_density = measure.density is not None
        if has_density:
            cdf_grid, cdf_vals = measure.cdf_table()

        def unit_inflow(i):
            """Column i's inflow per unit rate, and the parts of it that
            land below x_min."""
            x, inflow, lost = centers[i], np.zeros(n), []
            for u, w in measure.atoms:
                y = u * x
                if y < edges[0]:
                    lost.append(w)
                    inflow[0] += w
                else:
                    inflow[grid.locate(y)] += w
            if has_density:
                # edges / x > 0, so capping at 1 is the clip to [0, 1]
                cum = np.interp(np.minimum(edges / x, 1.0), cdf_grid,
                                cdf_vals)
                inflow += cum[1:] - cum[:-1]
                inflow[0] += cum[0]
                lost.append(cum[0])
            return inflow, lost

        sources = np.flatnonzero(rate)
        if has_density:
            # g[k] is the last source's inflow into the cell k below it,
            # kept reversed in taps; column i's rows 1..i should read
            # g[i - j] (children are smaller, so rows above i get nothing)
            head, taps, stencil_error = np.zeros(n), np.zeros(n - 1), 0.0
            if len(sources):
                last = sources[-1]
                taps[n - 1 - last:] = unit_inflow(last)[0][1:last + 1]
            # one work buffer: per-column temporaries would fragment the
            # heap between the arrays the columns keep, raising peak memory
            dev_buf = np.empty(n - 1)
        frag_colsum = np.zeros(n)
        # 0/0 where column and stencil are both empty gives nan, which
        # fmax skips; a nonzero entry against a zero tap gives inf
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in sources:
                inflow, lost = unit_inflow(i)
                for w in lost:
                    below[i] += rate[i] * w
                if has_density:
                    head[i] = inflow[0]
                    dev = dev_buf[:i]
                    np.divide(inflow[1:i + 1], taps[n - 1 - i:], out=dev)
                    dev -= 1.0
                    np.abs(dev, out=dev)
                    stencil_error = max(stencil_error, float(
                        np.fmax.reduce(dev, initial=0.0)))
                frag_colsum[i] = emit(i, inflow * rate[i])
        expected = rate * (p_mass - 1.0)
        if np.max(np.abs(frag_colsum - expected)) > 1e-8 * (1.0 + np.max(
                np.abs(expected))):
            raise DomainError(
                "fragmentation column sums disagree with K(x)(p((0,1))-1)")
        if has_density:
            stencil = ExchangeStencil(rate=rate, out=out, head=head,
                                      taps=taps)
    else:
        density = model.frag.general_density
        for i, x in enumerate(centers):
            m = int(np.searchsorted(edges, x))   # cells starting below x
            k_x = _elementwise(lambda y: density(x, y))
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
                            cfl_dt=cfl_dt, stencil=stencil,
                            stencil_error=stencil_error)


@dataclass
class Trajectory:
    """Checkpointed solver output.

    steps counts the time steps taken; floored_mass is the total of the
    cell masses the floor set to 0; stencil_error is the operator's when
    the march used the Toeplitz stencil and None on the sparse path.
    """

    states: List[DensityState]
    below_domain_mass: float = 0.0
    steps: int = 0
    floored_mass: float = 0.0
    stencil_error: Optional[float] = None

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
    the final state.  After each step, cell masses below 1e-250 of the
    total (negative ones included) are set to 0, which keeps subnormal
    numbers out of the products.
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
    product = (operator.stencil.apply if operator.uses_stencil
               else operator.matrix.__matmul__)
    below = operator.below_inflow
    m = state.masses
    t = state.time
    leak = floored = 0.0
    steps = 0
    out = []
    for mark in marks:
        # a relative tolerance: the accumulated t may fall short of a
        # late mark by a few ulps, which must not cost one more step
        while t < mark - 1e-12 * max(mark, dt):
            step = min(dt, mark - t)
            rate0 = product(m)
            if method == "euler":
                m_new = m + step * rate0
            else:
                pred = m + step * rate0
                m_new = m + 0.5 * step * (rate0 + product(pred))
            total = m.sum()
            if np.min(m_new) < -1e-9 * max(total, 1e-300):
                raise NegativeMass(
                    f"negative cell mass {np.min(m_new):g} at t={t + step:g}")
            tiny = m_new < _MASS_FLOOR * total
            if tiny.any():
                floored += float(m_new[tiny].sum())
                m_new[tiny] = 0.0
            leak += step * float(below @ m)
            m = m_new
            t += step
            steps += 1
        out.append(DensityState(grid=grid, masses=m.copy(), time=mark))
    total = max(out[-1].total_mass(), 1e-300)
    if leak > _LEAK_WARN_FRACTION * total:
        warnings.warn(
            f"fragmentation inflow below x_min reached {leak:g} "
            f"({leak / total:.2%} of final mass)", BoundaryLeak)
    return Trajectory(states=out, below_domain_mass=leak, steps=steps,
                      floored_mass=floored,
                      stencil_error=(operator.stencil_error
                                     if operator.uses_stencil else None))
