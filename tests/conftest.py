"""Shared fixtures: reference models, grids, and tilting weights."""

import numpy as np
import pytest
from scipy import sparse

from growfrag.model import (
    FragmentationKernel,
    GrowthSpec,
    ModelSpec,
    WeightFunction,
    constant_weight,
    mitosis_ratio,
    uniform_ratio,
)
from growfrag.pde import SizeGrid, build_discrete_operator
from growfrag import spectral

DOMAIN = (1e-2, 40.0)


def operator_matrix(op):
    """The generator M of an assembled operator as a CSR matrix, entry by
    entry from its stencil: the oracle for the O(n) operator."""
    stencil = op.stencil
    rate, out, lattice = stencil.rate, stencil.out, stencil.lattice
    n = len(rate)
    top = n - 1
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
    values[:n] = stencil.first
    values[indptr[1:n]] = out[:-1]
    diag = indptr[:-1] + np.arange(n) - first
    values[diag] -= rate + out
    matrix = sparse.csr_matrix((values, cols, indptr), shape=(n, n))
    matrix.eliminate_zeros()
    return matrix


def make_canonical():
    """Unit growth speed, linear fragmentation rate, uniform repartition."""
    return ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: x, uniform_ratio()),
        domain_hint=DOMAIN,
        irreducible=True,
    )


def make_mitosis():
    """Unit speed, constant unit rate, equal mitosis."""
    return ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: 1.0, mitosis_ratio()),
        domain_hint=DOMAIN,
        irreducible=True,
    )


def make_conserving_linear():
    """Exponential growth (speed x), unit rate, mass-conserving uniform."""
    return ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: x),
        frag=FragmentationKernel.relative(lambda x: 1.0, uniform_ratio(),
                                          mass_conserving=True),
        domain_hint=DOMAIN,
        irreducible=True,
    )


def make_critical():
    """Speed x with constant rate: growth and fragmentation balance in
    log-size, so the size distribution spreads without relaxing."""
    return ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: x),
        frag=FragmentationKernel.relative(lambda x: 1.0, uniform_ratio()),
        domain_hint=DOMAIN,
        irreducible=True,
    )


def eigenfunction_weight(model, triple, cut_lo=0.02, cut_hi=25.0,
                         tail_slope=1.3):
    """Smooth positive weight tracking the discrete eigenfunction.

    The eigenfunction is interpolated (monotone cubic, in log-log) over
    the interior of its grid only: cells outside [cut_lo, cut_hi] are
    dropped because the domain truncation distorts the eigenvector near
    the boundary cells.  The weight continues with a flat log-slope on
    the left (so the generator ratio stays bounded near zero) and a
    log-slope of at least `tail_slope` on the right (steep enough that
    the ratio decreases at infinity for super-linear rates).
    """
    from scipy.interpolate import PchipInterpolator

    centers = triple.grid.centers
    keep = (centers >= cut_lo) & (centers <= cut_hi)
    logx = np.log(centers[keep])
    logphi = np.log(triple.phi[keep])
    spline = PchipInterpolator(logx, logphi)
    dspline = spline.derivative()
    lo, hi = float(logx[0]), float(logx[-1])
    level_lo, level_hi = float(spline(lo)), float(spline(hi))
    slope_hi = max(tail_slope, float(dspline(hi)))

    def log_value(x):
        lx = np.log(x)
        if lx <= lo:
            return level_lo
        if lx >= hi:
            return level_hi + slope_hi * (lx - hi)
        return float(spline(lx))

    def elasticity(x):
        lx = np.log(x)
        if lx <= lo:
            return 0.0
        if lx >= hi:
            return slope_hi
        return float(dspline(lx))

    def value(x):
        return float(np.exp(log_value(x)))

    def log_slope(x):
        # d ln h/ds = c(x) (d ln h/dx) = c(x) (d ln h/d ln x) / x
        return model.growth.c(x) * elasticity(x) / x

    return WeightFunction(value=value, log_slope=log_slope,
                          label="eigen-interp",
                          kinks=(float(np.exp(lo)), float(np.exp(hi))),
                          log_value=log_value)


@pytest.fixture(scope="session")
def canonical_model():
    return make_canonical()


@pytest.fixture(scope="session")
def canonical_grid():
    return SizeGrid.log_uniform(DOMAIN[0], DOMAIN[1], 256)


@pytest.fixture(scope="session")
def canonical_operator(canonical_model, canonical_grid):
    return build_discrete_operator(canonical_model, canonical_grid)


@pytest.fixture(scope="session")
def canonical_triple(canonical_operator):
    return spectral.principal_eigen(canonical_operator, constant_weight(1.0))


@pytest.fixture(scope="session")
def canonical_weight(canonical_model, canonical_triple):
    """(h, b): admissible tilting weight for the canonical model."""
    from growfrag.lyapunov import verify_assumption1

    h = eigenfunction_weight(canonical_model, canonical_triple)
    report = verify_assumption1(canonical_model, h)
    return h, report.b
