"""Finite-volume solver for the growth-fragmentation density equation.

The state vector holds cell masses m_i ~ int_cell u_t(x) dx on a
log-uniform grid; its evolution dm/dt = M m is the adjoint of the
generator A: first-order donor-cell upwind transport (c > 0 moves mass
rightward), fragmentation outflow at rate K(x_i), and inflow rows
obtained by integrating the child kernel over destination cells.
Atomic ratio kernels land in cells exactly; the power density's cell
masses are differences of its closed-form cumulative P(u) = p((0,u]).

The grid is log-uniform, so edges_j / x_i = r^(j-i-1/2) and the
kernel's unit inflow from cell i into cell j >= 1 depends on i - j only:
the assembly reads the top cell's column once and shifts it for every
other.  The march applies the exchange as blocked Toeplitz matrix
products of non-negative terms over the rows it keeps (each entry keeps
its relative accuracy, unlike an FFT) instead of the ~n^2/2-entry
sparse product; spectral factors the sparse matrix built from the same
numbers.

Starting from a point mass at x0, pairing the solution against f gives
the deterministic oracle for T_t f(x0).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .errors import (CFLUnsatisfiable, CFLViolation, DomainError,
                     NegativeMass)
from .model import ModelSpec

_CFL_FACTOR = 0.9
_MIN_DT = 1e-12
_LEAK_WARN_FRACTION = 1e-3
_MASS_FLOOR = 1e-250      # cell masses below this fraction of the total
_BLOCK = 64               # exchange rows per block of the Toeplitz product
_CHUNK_BLOCKS = 4         # block rows per matmul of the exchange


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
        # e_i sqrt(e_{i+1}/e_i): the product e_i e_{i+1} overflows above 1e154
        return self.edges[:-1] * np.sqrt(self.edges[1:] / self.edges[:-1])

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

    lattice[k] is the top cell's unit inflow into cell k, and column i
    reads it shifted by top - i: row 0 receives head @ (K m), row j >= 1
    receives sum_i lattice[top + j - i] (K m)[i].  taps keeps only the
    nonzero band of k >= 1, lattice[offset:offset + len(taps)], reversed,
    so an atom costs one tap.  With L = len(taps) and k0 = n - offset - L,
    row j is sum_t taps[t] (K m)[j + k0 + t], and rows offset + L on get
    nothing.

    apply computes rows 1..offset + L - 1 in blocks of b = min(_BLOCK, L)
    as the matrix product Y = H @ C: row p of H is (K m)[1 + k0 + p b:]
    over L + b - 1 entries, a Hankel view of a zero-padded copy, and C
    is the banded Toeplitz block C[s, q] = taps[s - q].  Every
    _CHUNK_BLOCKS block rows are one matmul that stops at the last column
    of H that is nonzero for its first row, so the triangle the padding
    zeroes is never multiplied.  All terms are non-negative, so the new
    summation order moves a row by rounding only.  apply writes into
    buffers the stencil owns: one stencil serves one march at a time.
    """

    rate: np.ndarray
    out: np.ndarray    # c(edge_{i+1}) / width_i: upwind outflow of cell i
    drain: np.ndarray  # -(rate + out): what each cell loses
    head: np.ndarray   # unit inflow of each column into the first cell
    taps: np.ndarray
    offset: int

    def __post_init__(self):
        n, span = len(self.rate), len(self.taps)
        b = min(_BLOCK, span)
        rows = self.offset + span - 1       # rows 1..offset + span - 1
        blocks = -(-rows // b)
        width = span + b - 1
        block = sliding_window_view(
            np.concatenate([np.zeros(b - 1), self.taps, np.zeros(b - 1)]),
            b)[:, ::-1].copy()
        # (K m)[i] sits at padded[i]; H row p starts at 1 + k0 + p b
        padded = np.zeros(n - self.offset + blocks * b)
        hankel = sliding_window_view(padded[n - self.offset - span + 1:],
                                     width)[::b]
        result = np.empty((blocks, b))
        products = []
        for p0 in range(0, blocks, _CHUNK_BLOCKS):
            p1 = p0 + _CHUNK_BLOCKS
            # padded[n:] is 0, so row p0 reads nothing past column cols
            cols = min(width, rows - p0 * b)
            if cols == width:
                # the leading chunks that read every column are one product
                products, p0 = [], 0
            products.append((hankel[p0:p1, :cols], block[:cols],
                             result[p0:p1]))
        object.__setattr__(self, "_padded", padded[:n])
        object.__setattr__(self, "_products", products)
        object.__setattr__(self, "_rows", result.ravel()[:rows])

    def apply(self, m):
        v = np.multiply(self.rate, m, out=self._padded)
        dm = self.drain * m
        dm[1:] += self.out[:-1] * m[:-1]
        dm[0] += self.head @ v
        for h, c, y in self._products:
            np.matmul(h, c, out=y)
        dm[1:len(self._rows) + 1] += self._rows
        return dm


@dataclass
class DiscreteOperator:
    """Sparse generator M of dm/dt = M m, plus solver metadata.

    stencil applies M without the matrix, and solve marches on it; only
    an operator made by hand from a matrix, for spectral, has none.
    """

    grid: SizeGrid
    matrix: sparse.csr_matrix
    below_inflow: np.ndarray   # rate of mass landing below x_min, per source
    cfl_dt: float
    stencil: Optional[ExchangeStencil] = None


def build_discrete_operator(model: ModelSpec,
                            grid: SizeGrid) -> DiscreteOperator:
    """Assemble upwind transport + fragmentation exchange on the grid.

    The grid must be log-uniform.  Then edges_j / x_i = edges_{j+top-i} /
    x_top, so the top cell's column gives every other.  The fragmentation
    columns (with the below-domain part folded into the first cell) sum
    to K(x_i)(p((0,1)) - 1); the assembly verifies this within 1e-8.
    """
    n = grid.n_cells
    edges, centers = grid.edges, grid.centers
    if not np.allclose(edges, np.geomspace(edges[0], edges[-1], n + 1),
                       rtol=1e-12, atol=0.0):
        raise DomainError("the exchange operator needs a log-uniform grid")
    c_edge = np.array([model.growth.c(e) for e in edges])
    if np.any(c_edge <= 0.0):
        raise DomainError("upwind assembly requires positive speed at edges")
    # donor-cell transport: c > 0 moves mass rightward and out through the
    # last edge, so the left boundary needs no condition
    out = c_edge[1:] / grid.widths
    rate = np.array([model.frag.loss_rate(x) for x in centers])

    # the top cell's unit inflow: cum[k] is what lands below edge k and
    # lattice[k] what lands in cell k.  The density part reads its exact
    # cumulative P(u) = p((0,u]); each atom is located once
    top = n - 1
    measure = model.frag.ratio_measure
    cum = np.zeros(n + 1)
    if measure.density is not None:
        # edges / x > 0, so capping at 1 is the clip to [0, 1]
        cum = measure.cdf(np.minimum(edges / centers[top], 1.0))
    lattice = np.diff(cum)
    for u, w in measure.atoms:
        y = u * centers[top]
        cell = grid.locate(y) if y >= edges[0] else -1
        if cell >= 0:
            lattice[cell] += w
        cum[cell + 1:] += w
    # column i: row 0 takes all below edge top - i + 1, rows 1..i read
    # lattice[top - i + 1:], and what lands below edge top - i is lost
    head = cum[:0:-1].copy()   # contiguous, for a fast dot in apply
    below = rate * cum[top::-1]
    tails = np.append(np.cumsum(lattice[::-1])[::-1], 0.0)
    frag_colsum = rate * (cum + tails)[:0:-1] - rate
    expected = rate * (measure.mass() - 1.0)
    if np.max(np.abs(frag_colsum - expected)) > 1e-8 * (1.0 + np.max(
            np.abs(expected))):
        raise DomainError(
            "fragmentation column sums disagree with K(x)(p((0,1))-1)")
    band = np.flatnonzero(lattice[1:]) + 1
    lo, hi = (int(band[0]), int(band[-1]) + 1) if len(band) else (1, 2)
    stencil = ExchangeStencil(rate=rate, out=out, drain=-(rate + out),
                              head=head, taps=lattice[lo:hi][::-1].copy(),
                              offset=lo)

    # the same numbers as CSR: row 0 spans every column, and row j >= 1
    # spans columns j - 1..top, transport from j - 1 and then the exchange
    # from each column i >= j, lattice[top + j - i]
    first = np.maximum(np.arange(n) - 1, 0)
    counts = n - first
    indptr = np.append(0, np.cumsum(counts))
    idx = np.int32 if indptr[-1] < 2 ** 31 else np.int64
    cols = np.arange(indptr[-1], dtype=idx)
    cols -= np.repeat((indptr[:-1] - first).astype(idx), counts)
    k = np.repeat(np.arange(top, top + n, dtype=idx), counts)
    k -= cols
    values = np.append(lattice, 0.0)[k]   # column j - 1 reads the 0
    del k
    values *= rate[cols]
    values[:n] = rate * head
    values[indptr[1:n]] = out[:-1]
    diag = indptr[:-1] + np.arange(n) - first
    values[diag] += stencil.drain
    matrix = sparse.csr_matrix((values, cols, indptr), shape=(n, n))
    matrix.eliminate_zeros()
    cfl_dt = _CFL_FACTOR / float(np.max(out + rate))
    return DiscreteOperator(grid=grid, matrix=matrix, below_inflow=below,
                            cfl_dt=cfl_dt, stencil=stencil)


@dataclass
class Trajectory:
    """Checkpointed solver output.

    steps counts the time steps taken; floored_mass is the total of the
    cell masses the floor set to 0.
    """

    states: List[DensityState]
    below_domain_mass: float = 0.0
    steps: int = 0
    floored_mass: float = 0.0

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
    if operator.stencil is None:
        raise DomainError("solve marches on the operator's stencil: build "
                          "the operator with build_discrete_operator")
    if operator.cfl_dt < _MIN_DT:
        raise CFLUnsatisfiable(
            f"stable time step {operator.cfl_dt:g} below {_MIN_DT:g}")
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
    product = operator.stencil.apply
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
            low = m_new.min()
            if low < -1e-9 * max(total, 1e-300):
                raise NegativeMass(
                    f"negative cell mass {low:g} at t={t + step:g}")
            if low < _MASS_FLOOR * total:
                tiny = m_new < _MASS_FLOOR * total
                floored += float(m_new[tiny].sum())
                np.putmask(m_new, tiny, 0.0)
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
                      floored_mass=floored)
