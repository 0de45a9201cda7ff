"""Shared fixtures: reference models, grids, and tilting weights."""

import numpy as np
import pytest

from growfrag.flow import FlowEngine
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

    flow = FlowEngine(model.growth, *model.domain_hint)
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

    def log_slope(x):
        lx = np.log(x)
        if lx <= lo:
            return 0.0
        if lx >= hi:
            return slope_hi
        return float(dspline(lx))

    def value(x):
        return float(np.exp(log_value(x)))

    def s_derivative(x):
        # dh/ds = c(x) h'(x) = h(x) c(x) dlog(h)/dlog(x) / x
        return value(x) * flow.speed_at(x) * log_slope(x) / x

    return WeightFunction(value=value, s_derivative=s_derivative,
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
