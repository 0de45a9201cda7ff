"""Model primitives: kernels, ratio measures, weights, generator."""

import numpy as np
import pytest

from growfrag.errors import DomainError
from growfrag.flow import FlowEngine
from growfrag.model import (
    FragmentationKernel,
    RatioMeasure,
    WeightFunction,
    constant_weight,
    identity_weight,
    mitosis_ratio,
    power_ratio,
    tilted_generator,
    uniform_ratio,
)

from conftest import make_canonical, make_conserving_linear


# -- ratio measures ------------------------------------------------------

def test_uniform_ratio_moments():
    p = uniform_ratio()
    assert p.mass() == pytest.approx(2.0, rel=1e-10)
    assert p.mean() == pytest.approx(1.0, rel=1e-10)
    assert p.moment(2.0) == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_mitosis_ratio_moments():
    p = mitosis_ratio()
    assert p.mass() == pytest.approx(2.0)
    assert p.mean() == pytest.approx(1.0)
    assert p.integral(lambda u: u ** 3) == pytest.approx(0.25)


def test_power_ratio_mass_conserving():
    for theta in (-0.5, 0.0, 1.0, 3.0):
        p = power_ratio(theta)
        assert p.mean() == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(DomainError):
        power_ratio(-1.0)


def test_ratio_measure_sampling_matches_cdf():
    p = uniform_ratio()
    rng = np.random.default_rng(5)
    draws = np.array([p.sample(rng.random) for _ in range(4000)])
    # p(du) = 2 du normalizes to the uniform law on (0, 1)
    from scipy.stats import kstest
    stat = kstest(draws, lambda u: np.clip(u, 0, 1))
    assert stat.pvalue > 0.01


def test_uniform_ratio_draw_is_the_uniform_itself():
    # the exact inverse CDF u = U returns U's own bits, which keeps the
    # pinned Monte Carlo outputs of the uniform kernel in place
    p = uniform_ratio()
    for v in np.random.default_rng(9).random(100000):
        v = float(v)
        draws = iter((0.5, v))
        assert p.sample(lambda: next(draws)) == v


@pytest.mark.parametrize("theta", [-0.9, -0.5, 0.5, 2.0])
def test_power_ratio_draws_follow_exact_cdf(theta):
    # (theta + 2) u^theta du normalizes to the law with CDF u^(theta + 1);
    # a midpoint CDF table once gave mean 0.140 at theta = -0.9, not 1/11
    p = power_ratio(theta)
    rng = np.random.default_rng(7)
    draws = np.array([p.sample(rng.random) for _ in range(20000)])
    from scipy.stats import kstest
    stat = kstest(draws, lambda u: np.clip(u, 0, 1) ** (theta + 1.0))
    assert stat.pvalue > 1e-3


def test_ratio_measure_sampling_integrates_mass_once():
    p = uniform_ratio()
    integral, calls = p.integral, []

    def counting_integral(g, **kwargs):
        calls.append(g)
        return integral(g, **kwargs)

    p.integral = counting_integral
    rng = np.random.default_rng(3)
    p.sample(rng.random)
    assert len(calls) == 1
    for _ in range(100):
        p.sample(rng.random)
    assert len(calls) == 1


def test_atomic_sampling():
    p = mitosis_ratio()
    rng = np.random.default_rng(1)
    draws = {p.sample(rng.random) for _ in range(100)}
    assert draws == {0.5}


# -- kernels -------------------------------------------------------------

def test_relative_kernel_integrate_and_mass():
    frag = FragmentationKernel.relative(lambda x: x, uniform_ratio())
    x = 3.0
    # int f(y) k(x,dy) = K(x) int f(ux) 2 du
    assert frag.integrate(x, lambda y: 1.0) == pytest.approx(2.0 * x)
    assert frag.integrate(x, lambda y: y) == pytest.approx(x * x, rel=1e-9)
    assert frag.loss_rate(x) == pytest.approx(x)


def test_mass_conserving_flag_validated():
    with pytest.raises(DomainError):
        FragmentationKernel.relative(lambda x: 1.0,
                                     RatioMeasure(atoms=[(0.5, 3.0)]),
                                     mass_conserving=True)


def test_kernel_rejects_nonpositive_x():
    frag = FragmentationKernel.relative(lambda x: 1.0, uniform_ratio())
    with pytest.raises(DomainError):
        frag.integrate(0.0, lambda y: 1.0)


# -- generator -----------------------------------------------------------

def _generator_apply(model, w, x):
    """A w(x), from the ratio A w/w."""
    return w(x) * tilted_generator(model, w, x)[1]


def test_generator_identity_weight_gives_speed():
    # mean-conserving repartition: A id(x) = c(x) exactly
    model = make_conserving_linear()
    f = identity_weight(model.growth)
    for x in (0.2, 1.0, 5.0):
        assert _generator_apply(model, f, x) == pytest.approx(
            model.growth.c(x), rel=1e-9)


def test_generator_constant_weight_gives_branching_rate():
    # A 1(x) = K(x) (p((0,1)) - 1)
    model = make_canonical()
    one = constant_weight(1.0)
    for x in (0.1, 1.0, 10.0):
        assert _generator_apply(model, one, x) == pytest.approx(
            x * (2.0 - 1.0), rel=1e-9)


def test_generator_linearity():
    model = make_canonical()
    f = identity_weight(model.growth)
    g = constant_weight(1.0)
    alpha, beta = 0.7, -0.3
    combo = WeightFunction(
        value=lambda x: alpha * f(x) + beta * g(x),
        log_slope=lambda x: (alpha * f(x) * f.log_slope(x)
                             + beta * g(x) * g.log_slope(x))
        / (alpha * f(x) + beta * g(x)))
    for x in (0.5, 2.0, 8.0):
        lhs = _generator_apply(model, combo, x)
        rhs = alpha * _generator_apply(model, f, x) \
            + beta * _generator_apply(model, g, x)
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + abs(rhs)))


def test_generator_jump_integral_vs_simpson_oracle():
    # compare the kernel integral against a 1e6-node Simpson rule
    from scipy.integrate import simpson
    model = make_canonical()
    flow = FlowEngine(model.growth, *model.domain_hint)
    h = WeightFunction(value=lambda x: np.exp(-x) + x ** 2,
                       log_slope=lambda x: (-np.exp(-x) + 2 * x)
                       * model.growth.c(x) / (np.exp(-x) + x ** 2))
    x = 0.5
    jump = tilted_generator(model, h, x)[0] * h(x)
    ys = np.linspace(1e-12, x, 1_000_001)
    dens = (np.exp(-ys) + ys ** 2) * x * (2.0 / x)   # h(y) K(x) p'(y/x)/x
    oracle = simpson(dens, x=ys)
    assert jump == pytest.approx(oracle, rel=1e-6)


def test_generator_rejects_nonpositive_x():
    model = make_canonical()
    with pytest.raises(DomainError):
        tilted_generator(model, constant_weight(1.0), -1.0)


# -- probe grid and weights ----------------------------------------------

def test_probe_grid_spans_domain():
    model = make_canonical()
    probes = model.probe_grid()
    assert probes[0] <= model.domain_hint[0] * 1.0000001
    assert probes[-1] >= model.domain_hint[1] * 0.9999999
    assert np.all(np.diff(probes) > 0)


def test_weight_ratio_uses_log_values():
    w = WeightFunction(value=lambda x: np.exp(x),
                       log_slope=lambda x: 1.0,
                       log_value=lambda x: x)
    # plain values overflow at x=2000 but the ratio stays finite
    assert w.tilt(1999.0)(2000.0) == pytest.approx(np.e, rel=1e-12)

