"""Finite-volume solver for the growth-fragmentation density equation.

The state vector holds cell masses m_i ~ int_cell u_t(x) dx on a
log-uniform grid; its evolution dm/dt = M m is the adjoint of the
generator A: first-order donor-cell upwind transport (c > 0 moves mass
rightward), fragmentation outflow at rate K(x_i), and inflow rows
obtained by integrating the child kernel over destination cells.
Atomic ratio kernels land in cells exactly; the power density's cell
masses come from its closed-form cumulative P(u) = p((0,u]).

The grid is log-uniform, so edges_j / x_i = r^(j-i-1/2) and the
kernel's unit inflow from cell i into cell j >= 1 depends on i - j only:
the assembly reads one lattice, the top cell's column, and keeps M as
that stencil, O(n) numbers; no n x n matrix is built.  The density part
of the lattice is geometric, so M m and M^T u are O(n) scans, and
spectral factors the resolvent on 3n unknowns that carry the geometric
tail, O(n) too; the same 3n-node graph gives M's strong components.

A step writes m + h M m into a spare buffer as one pass of non-negative
terms: (1 + h diag) m, the transport shift, row 0, the scan and the
atoms, each coefficient scaled by h once per distinct step size.  The
CFL bound h <= 0.9 / max(out + rate) keeps 1 + h diag >= 0.1, so a
non-negative m steps to a non-negative m in rounding too; heun is
(m + E(E m)) / 2 with E = I + h M.  A pass moves mass right by at most
one cell, so the floor tests the newly reached cell alone and scans the
cells behind the front only when one of them falls below it.

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
from scipy.sparse import csgraph

from .errors import (CFLUnsatisfiable, CFLViolation, DomainError,
                     NegativeMass)
from .model import ModelSpec

_CFL_FACTOR = 0.9
_MIN_DT = 1e-12
_LEAK_WARN_FRACTION = 1e-3
_MASS_FLOOR = 1e-250      # cell masses below this fraction of the total
_SCAN_EXPONENT = 36.0     # largest |ln| of a scale factor in the exchange scan
_PASSES = {"euler": 1, "heun": 2}   # stencil passes in one step


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
    """M m as transport plus the fragmentation exchange, in O(n).

    lattice[k] is the top cell's unit inflow into cell k; row 0 receives
    first @ m, row j >= 1 sum_{i >= j} lattice[top + j - i] (K m)[i].
    lattice[top] holds the own cell's density part and atoms.  Below it
    the density part is near g^-(d-1) at k = top - d, g = e^slope =
    r^(theta+1), so row j gains near T_{j+1}, T_j = sum_{i >= j}
    g^-(i-j) (K m)[i]: a reversed cumulative sum of g^(c-i) (K m)[i]
    scaled back by g^-(c-j), c the top of a chunk of at most 36 / slope
    rows, so no factor leaves [e^-36, e^36]; a doubling scan carries each
    chunk's foot into the chunks below.  All terms are non-negative, so
    each row keeps its relative accuracy.  Each atom in cells 1..top-1,
    (top - cell, weight) in atoms, is one shifted axpy.  apply scans in
    buffers the stencil owns: one stencil serves one march at a time.
    """

    rate: np.ndarray
    out: np.ndarray    # c(edge_{i+1}) / width_i: upwind outflow of cell i
    first: np.ndarray  # K_i times column i's unit inflow into cell 0
    lattice: np.ndarray
    near: float        # density part of lattice[top - 1]; 0 without one
    slope: float       # ln g
    atoms: tuple

    def __post_init__(self):
        count = len(self.rate) - 2 if self.near > 0.0 else 0  # T_2..T_top
        span = max(1, min(count, int(_SCAN_EXPONENT / (self.slope or 1.0))))
        chunks = np.zeros((-(-count // span), span))  # top padding stays 0
        q = np.arange(span - 1, -1, -1)      # distance to the chunk's top
        vars(self).update(   # the factors carry K; row 0 reads all of first
            _diag=self.lattice[-1] * np.append(0.0, self.rate[1:])
            - (self.rate + self.out),
            _chunks=chunks, _sums=chunks.reshape(-1)[:count],
            _up=np.resize(np.exp(self.slope * q), count)
            * self.rate[2:2 + count],
            _rise=np.resize(np.exp(self.slope * q[::-1]), count),
            _down=self.near * np.exp(-self.slope * q),
            _carry=np.exp(-self.slope * (q + 1)),
            _doubling=[(d, np.exp(-self.slope * span * d)) for d in
                       2 ** np.arange((len(chunks) - 1).bit_length())],
            _atoms=[(shift, weight * self.rate[1 + shift:])
                    for shift, weight in self.atoms])
        vars(self)["_product"] = self._terms(0.0, 1.0)

    def _terms(self, unit, h):
        """Coefficients of unit*I + h*M: the diagonal, then the transport
        shift, row 0's first, the scan's down factors and the atoms'
        weights, each scaled by h."""
        return (unit + h * self._diag, h * self.out[:-1], h * self.first,
                h * self._down, [(shift, h * weights)
                                 for shift, weights in self._atoms])

    def apply(self, m, terms=None, out=None):
        """M m, or with the terms of a stepper unit*I + h*M applied to m,
        written into out (a new array by default).  Only the diagonal
        term can be negative, so with unit = 1 and 1 + h diag >= 0 a
        non-negative m gives a non-negative result in rounding too."""
        diag, shift, first, down, atoms = terms or self._product
        dm = np.multiply(diag, m, out=out)
        dm[1:] += shift * m[:-1]
        dm[0] += first @ m
        sums, chunks = self._sums, self._chunks
        if len(sums):
            # sums[j - 1] becomes near T_{j+1}, row j's share
            np.multiply(m[2:], self._up, out=sums)
            np.add.accumulate(chunks[:, ::-1], axis=1, out=chunks[:, ::-1])
            chunks *= down
            if len(chunks) > 1:
                ends = chunks[:, 0].copy()   # chunk c's foot, T from c up
                for d, factor in self._doubling:
                    ends[:-d] += factor * ends[d:]
                chunks[:-1] += ends[1:, None] * self._carry
            dm[1:-1] += sums
        for shift, weights in atoms:
            dm[1:-shift] += weights * m[1 + shift:]
        return dm

    def apply_transpose(self, u):
        """M^T u, a new array.  Column i >= 2 reads near K_i S_{i-1}, S_k =
        sum_{1 <= j <= k} g^-(k-j) u_j: a forward cumulative sum of
        g^(j-b) u_j scaled back by g^-(k-b), b the foot of a chunk, in
        apply's chunks, so no factor leaves [e^-36, e^36]; the doubling
        scan carries each chunk's top into the chunks above.  The
        transport, row 0 and the atoms are apply's, transposed."""
        du = self._diag * u
        du += self.first * u[0]
        du[:-1] += self.out[:-1] * u[1:]
        count = len(self._sums)
        if count:
            chunks = np.zeros_like(self._chunks)
            sums = chunks.reshape(-1)[:count]   # sums[k - 1] becomes S_k
            np.multiply(u[1:1 + count], self._rise, out=sums)
            np.add.accumulate(chunks, axis=1, out=chunks)
            chunks *= self._down[::-1]
            if len(chunks) > 1:
                ends = chunks[:, -1].copy()   # chunk c's top, S from c down
                for d, factor in self._doubling:
                    ends[d:] += factor * ends[:-d]
                chunks[1:] += ends[:-1, None] * self._carry[::-1]
            du[2:] += self.rate[2:] * sums
        for shift, weights in self._atoms:
            du[1 + shift:] += weights * u[1:-shift]
        return du

    def stepper(self, h, method):
        """One time step of length h as step(m, out), written into out.

        euler is E m with E = I + h M, one pass of apply; heun is
        (m + E(E m)) / 2, two passes and one axpy, the same polynomial
        m + h M m + h^2 M^2 m / 2 as the trapezoidal predictor-corrector.
        For h within the CFL bound 1 + h diag >= 0.1, so both map a
        non-negative m to a non-negative result.  A heun stepper owns
        its predictor buffer.
        """
        terms = self._terms(1.0, h)
        if method == "euler":
            return lambda m, out: self.apply(m, terms, out)
        pred = np.empty(len(self.rate))

        def heun(m, out):
            self.apply(self.apply(m, terms, pred), terms, out)
            out += m
            out *= 0.5
            return out
        return heun

    def resolvent_factor(self, sigma):
        """SuperLU factor of sigma*I - M on 3n unknowns (x, R, Q), O(n).

        R_j = rate_{j+1} x_{j+1} + R_{j+1} / g (R_{n-1} = 0) is the
        geometric tail that row j in 1..n-2 reads as near R_j, and Q_j =
        first_j x_j + Q_{j+1} (Q_n = 0) the suffix sum row 0 reads as Q_0.
        sigma*I - M is the Schur complement of this matrix on x, so the
        first n entries of the solution for (y, 0, 0) are (sigma*I - M)^-1
        y, and trans="T" solves the transpose.  For sigma above the Perron
        root of M the matrix is a non-singular M-matrix, factored without
        pivoting under a symmetric ordering: every multiplier is <= 0 and
        every pivot > 0, so a non-negative y solves non-negative.
        """
        from scipy.sparse.linalg import splu

        return splu(self._augmented(sigma), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def strong_components(self):
        """Number of strong components of M's graph, from the 3n-node
        graph of resolvent_factor's matrix: a path from cell i to cell j
        through R and Q nodes is an entry of the Schur complement sigma*I -
        M, and an M-matrix's Schur complement has no cancellation, so two
        cells share a component there exactly when they share one in M."""
        _, labels = csgraph.connected_components(
            self._augmented(0.0), directed=True, connection="strong")
        return len(np.unique(labels[:len(self.rate)]))

    def _augmented(self, sigma):
        """resolvent_factor's CSC matrix on (x, R, Q), zeros eliminated."""
        n = len(self.rate)
        x = np.arange(n)
        r, q = x + n, x + 2 * n
        tail = x[1:1 + len(self._sums)]   # rows 1..n-2 with a density part
        parts = [(x, x, sigma - self._diag), (x[1:], x[:-1], -self.out[:-1]),
                 (tail, r[tail], -self.near), (x[:1], q[:1], -1.0),
                 (r, r, 1.0), (r[tail], r[tail + 1], -np.exp(-self.slope)),
                 (r[tail], x[tail + 1], -self.rate[tail + 1]),
                 (q, q, 1.0), (q, x, -self.first), (q[:-1], q[1:], -1.0)]
        parts += [(x[1:-shift], x[1 + shift:], -weights)
                  for shift, weights in self._atoms]
        rows = np.concatenate([i for i, _, _ in parts])
        cols = np.concatenate([j for _, j, _ in parts])
        values = np.concatenate([np.broadcast_to(v, i.shape)
                                 for i, _, v in parts])
        matrix = sparse.csc_matrix((values, (rows, cols)), shape=(3 * n,) * 2)
        matrix.eliminate_zeros()
        return matrix


class StencilGenerator:
    """The generator M as an O(n) operator on its stencil.

    This is what spectral reads of M: shape, M @ m, apply_transpose,
    diagonal, column_sums, strong_components and factor(sigma), the
    stencil's resolvent_factor.  The diagonal and the column sums are the
    assembly's closed forms; nnz counts the coefficients the stencil
    stores, rate, out, first and the lattice.
    """

    def __init__(self, stencil: ExchangeStencil, column_sums: np.ndarray):
        n = len(stencil.rate)
        self.stencil = stencil
        self.shape = (n, n)
        self.nnz = 4 * n
        self._column_sums = column_sums
        self._diagonal = stencil._diag.copy()
        self._diagonal[0] += stencil.first[0]   # row 0 reads its own cell

    def __matmul__(self, m):
        return self.stencil.apply(m)

    def apply_transpose(self, u):
        return self.stencil.apply_transpose(u)

    def diagonal(self):
        return self._diagonal

    def column_sums(self):
        return self._column_sums

    def strong_components(self):
        return self.stencil.strong_components()

    def factor(self, sigma):
        return self.stencil.resolvent_factor(sigma)


@dataclass
class DiscreteOperator:
    """Generator M of dm/dt = M m, plus solver metadata.

    matrix is M as the protocol spectral reads, a StencilGenerator from
    the assembly; stencil applies M: solve marches on it.  Only an
    operator made by hand, for spectral, has no stencil.
    """

    grid: SizeGrid
    matrix: StencilGenerator
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
    # lattice[k] what lands in cell k, with P(u) = P(1) u^(theta+1) in
    # closed form: P(u_{k+1}) (1 - 1/g) below the own cell, u_k = e_k /
    # x_top = r^(k - top - 1/2), g = r^(theta+1).  Each atom is located once
    top = n - 1
    measure = model.frag.ratio_measure
    cum, lattice = np.zeros(n + 1), np.zeros(n)
    near = slope = 0.0
    if measure.density is not None:
        # edges / x > 0, so capping at 1 is the clip to [0, 1]
        cum = measure.cdf(np.minimum(edges / centers[top], 1.0))
        slope = (measure.theta + 1.0) * float(
            np.log(edges[-1]) - np.log(edges[0])) / n
        lattice[:top] = measure.cdf(1.0) * -np.expm1(-slope) * np.exp(
            -slope * (np.arange(top, 0, -1) - 0.5))
        lattice[top] = measure.cdf(1.0) * -np.expm1(-0.5 * slope)
        near = float(lattice[top - 1])
    atoms = []
    for u, w in measure.atoms:
        y = u * centers[top]
        cell = grid.locate(y) if y >= edges[0] else -1
        if cell >= 0:
            lattice[cell] += w
        if 0 < cell < top:
            atoms.append((top - cell, w))
        cum[cell + 1:] += w
    # column i: row 0 takes all below edge top - i + 1, rows 1..i read
    # lattice[top - i + 1:], and what lands below edge top - i is lost
    first = rate * cum[:0:-1]
    below = rate * cum[top::-1]
    tails = np.append(np.cumsum(lattice[::-1])[::-1], 0.0)
    frag_colsum = rate * (cum + tails)[:0:-1] - rate
    expected = rate * (measure.mass() - 1.0)
    if np.max(np.abs(frag_colsum - expected)) > 1e-8 * (1.0 + np.max(
            np.abs(expected))):
        raise DomainError(
            "fragmentation column sums disagree with K(x)(p((0,1))-1)")
    stencil = ExchangeStencil(rate=rate, out=out, first=first,
                              lattice=lattice, near=near, slope=slope,
                              atoms=tuple(atoms))

    # transport columns sum to 0 but the last, which empties through x_max
    column_sums = frag_colsum.copy()
    column_sums[-1] -= out[-1]
    cfl_dt = _CFL_FACTOR / float(np.max(out + rate))
    return DiscreteOperator(grid=grid,
                            matrix=StencilGenerator(stencil, column_sums),
                            below_inflow=below, cfl_dt=cfl_dt,
                            stencil=stencil)


@dataclass
class Trajectory:
    """Checkpointed solver output.

    steps counts the time steps taken; floored_mass is the total of the
    cell masses the floor set to 0, and floor_scans the number of steps
    whose floor scanned every cell behind the front.
    """

    states: List[DensityState]
    below_domain_mass: float = 0.0
    steps: int = 0
    floored_mass: float = 0.0
    floor_scans: int = 0

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


def _front(m):
    """Index of the last nonzero cell, 0 when there is none."""
    nonzero = np.flatnonzero(m)
    return int(nonzero[-1]) if len(nonzero) else 0


def solve(model: ModelSpec, grid: SizeGrid, u0, t_end: float,
          dt: Optional[float] = None, method: str = "euler",
          checkpoints=None, operator: Optional[DiscreteOperator] = None
          ) -> Trajectory:
    """March dm/dt = M m to t_end with positivity checks.

    u0 is a DensityState or a point-mass location x0.  Checkpoints are
    hit exactly by shortening the step; the trajectory records them plus
    the final state.  Each step is one stepper of the stencil per
    distinct step size, written into a spare buffer.

    After each step, cell masses below 1e-250 of the total are set to 0,
    which keeps subnormal numbers out of the products.  A pass moves
    mass right by at most one cell, so every cell past the front, the
    last nonzero cell plus one cell per pass, stays exactly 0: only the
    newly reached cells are tested one by one, and the whole vector
    behind the front only when its least positive cell falls below the
    floor.
    """
    if not np.isfinite(t_end):
        raise DomainError(f"t_end={t_end!r} must be finite")
    if dt is not None and not 0.0 < dt < np.inf:
        raise DomainError(f"dt={dt!r} must be positive and finite")
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
    if method not in _PASSES:
        raise DomainError(f"unknown time stepper {method!r}")

    marks = sorted(set(float(t) for t in (checkpoints or []))
                   | {float(t_end)})
    if any(t < state.time or t > t_end for t in marks):
        raise DomainError("checkpoints must lie in [t0, t_end]")
    steppers = {}
    below = operator.below_inflow
    m = state.masses
    spare = np.empty_like(m)
    front, n, reach = _front(m), len(m), _PASSES[method]
    t = state.time
    leak = floored = 0.0
    steps = scans = 0
    out = []
    for mark in marks:
        # a relative tolerance: the accumulated t may fall short of a
        # late mark by a few ulps, which must not cost one more step
        while t < mark - 1e-12 * max(mark, dt):
            step = min(dt, mark - t)
            if step not in steppers:
                steppers[step] = operator.stencil.stepper(step, method)
            m_new = steppers[step](m, spare)
            total = m.sum()
            floor = _MASS_FLOOR * total
            low = m_new[:front + 1].min()
            if low < -1e-9 * max(total, 1e-300):
                raise NegativeMass(
                    f"negative cell mass {low:g} at t={t + step:g}")
            for k in range(front + 1, min(front + 1 + reach, n)):
                if m_new[k] < floor:
                    floored += float(m_new[k])
                    m_new[k] = 0.0
                else:
                    front = k
            if low < floor:
                behind = m_new[:front + 1]
                # cells already 0 need no floor: test the positive ones
                if low != 0.0 or np.min(behind, where=behind > 0.0,
                                        initial=np.inf) < floor:
                    tiny = behind < floor
                    floored += float(behind[tiny].sum())
                    np.putmask(behind, tiny, 0.0)
                    front = _front(behind)
                    scans += 1
            leak += step * float(below @ m)
            m, spare = m_new, m
            t += step
            steps += 1
        out.append(DensityState(grid=grid, masses=m.copy(), time=mark))
    total = max(out[-1].total_mass(), 1e-300)
    if leak > _LEAK_WARN_FRACTION * total:
        warnings.warn(
            f"fragmentation inflow below x_min reached {leak:g} "
            f"({leak / total:.2%} of final mass)", BoundaryLeak)
    return Trajectory(states=out, below_domain_mass=leak, steps=steps,
                      floored_mass=floored, floor_scans=scans)
