"""Tests of the benchmark's closed forms and checks, without growfrag.

Run with ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import checks


def _kernel_integral(f, x):
    """int f(y) k(x, dy) for K(x) = x, p(du) = 2 du."""
    val, _ = integrate.quad(lambda u: 2.0 * f(u * x), 0.0, 1.0,
                            epsabs=1e-13, epsrel=1e-12)
    return x * val


def _generator(f, df, x):
    """A f(x) = c f'(x) + int f(y) k(x, dy) - K(x) f(x), with c = 1."""
    return df(x) + _kernel_integral(f, x) - x * f(x)


XS = [0.01, 0.3, 1.0, 2.5, 7.0]


@pytest.mark.parametrize("x", XS)
def test_generator_moments(x):
    assert _generator(lambda y: 1.0, lambda y: 0.0, x) == pytest.approx(x)
    assert _generator(lambda y: y, lambda y: 1.0, x) == pytest.approx(1.0)


@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
def test_moment_ode_matches_closed_form(x0):
    ts = np.linspace(0.0, 2.0, 9)
    sol = integrate.solve_ivp(lambda t, y: [y[1], y[0]], (0.0, 2.0),
                              [1.0, x0], t_eval=ts, rtol=1e-11, atol=1e-12)
    for t, n, m1 in zip(ts, *sol.y):
        assert n == pytest.approx(checks.mass(t, x0), rel=1e-8)
        assert m1 == pytest.approx(checks.size(t, x0), rel=1e-8)


@pytest.mark.parametrize("x", XS)
def test_phi_is_eigenfunction(x):
    lam_growth = -checks.LAMBDA0
    got = _generator(lambda y: 1.0 + y, lambda y: 1.0, x)
    assert got == pytest.approx(lam_growth * float(checks.phi(x)))


@pytest.mark.parametrize("x", XS)
def test_eigenmeasure_solves_adjoint_equation(x):
    """n = -U' solves 0 = -n' - K n + int_x^inf k(y, x) n(y) dy - n."""
    n = checks.eigen_density
    h = 1e-5 * max(x, 1.0)
    dn = (float(n(x + h)) - float(n(x - h))) / (2.0 * h)
    inflow, _ = integrate.quad(lambda y: 2.0 * float(n(y)), x, np.inf,
                               epsabs=1e-13, epsrel=1e-12)
    residual = -dn - x * float(n(x)) + inflow + checks.LAMBDA0 * float(n(x))
    assert abs(residual) < 1e-7
    tail, _ = integrate.quad(lambda y: float(n(y)), x, np.inf,
                             epsabs=1e-13, epsrel=1e-12)
    assert tail == pytest.approx(float(checks.tail_u(x)), rel=1e-9)


def test_eigenmeasure_is_normalised():
    total, _ = integrate.quad(lambda y: float(checks.eigen_density(y)),
                              0.0, np.inf)
    assert total == pytest.approx(1.0, rel=1e-10)
    edges = np.geomspace(0.01, 40.0, 257)
    assert checks.cell_masses(edges).sum() == pytest.approx(1.0)


# -- each check accepts the truth and rejects a wrong answer -------------

def test_mc_check_rejects_five_standard_errors():
    want, se = checks.size(1.0, 1.0), 0.3
    assert checks.check_mc_estimate(want + se, se, want)["ok"]
    assert checks.check_mc_estimate(want - 4.0 * se, se, want)["ok"]
    assert not checks.check_mc_estimate(want + 5.0 * se, se, want)["ok"]
    assert not checks.check_mc_estimate(want - 5.0 * se, se, want)["ok"]
    assert not checks.check_mc_estimate(want, 0.0, want)["ok"]


def test_fv_check_rejects_lambda0_outside_its_allowance():
    half = 0.17

    def ci_around(lam):
        return lam, lam - half, lam + half

    assert checks.check_fv_lambda0(*ci_around(-1.0 + 3.0 * half))["ok"]
    assert not checks.check_fv_lambda0(*ci_around(-1.0 + 4.0 * half))["ok"]
    assert not checks.check_fv_lambda0(*ci_around(-1.0 - 4.0 * half))["ok"]
    assert not checks.check_fv_lambda0(-1.0, -1.0, -1.0)["ok"]


DELTA = checks.grid_delta(0.01, 40.0, 1024)


def _exact_summary(x0, scale=1.0):
    return [{"t": t, "total_mass": scale * checks.mass(t, x0),
             "total_size": scale * checks.size(t, x0)}
            for t in (0.5, 1.0, 1.5, 2.0)]


def test_moment_check_rejects_two_percent_mass_error():
    assert checks.check_moments(_exact_summary(1.0), 1.0, DELTA)["ok"]
    assert checks.check_moments(_exact_summary(1.0, 1.005), 1.0, DELTA)["ok"]
    assert not checks.check_moments(_exact_summary(1.0, 1.02), 1.0,
                                    DELTA)["ok"]
    assert not checks.check_moments(_exact_summary(1.0, 0.98), 1.0,
                                    DELTA)["ok"]
    assert not checks.check_moments([], 1.0, DELTA)["ok"]


def test_lambda0_check_rejects_past_grid_allowance():
    allowed = checks.EIGEN_PER_DELTA * DELTA
    assert checks.check_lambda0_grid(-1.0 - 0.26 * DELTA, DELTA)["ok"]
    assert not checks.check_lambda0_grid(-1.0 - 1.01 * allowed, DELTA)["ok"]
    assert not checks.check_lambda0_grid(-1.0 + 1.01 * allowed, DELTA)["ok"]


def test_eigenmeasure_check_rejects_shifted_measure():
    edges = np.geomspace(0.01, 40.0, 1025)
    exact = checks.cell_masses(edges)
    assert checks.check_eigenmeasure(edges, exact, DELTA)["ok"]
    shifted = np.roll(exact, 1)
    assert not checks.check_eigenmeasure(edges, shifted, DELTA)["ok"]


def test_eigenfunction_check_rejects_wrong_shape():
    centers = np.sqrt(np.geomspace(0.01, 40.0, 1025)[:-1]
                      * np.geomspace(0.01, 40.0, 1025)[1:])
    exact = 3.0 * checks.phi(centers)
    assert checks.check_eigenfunction(centers, exact, DELTA)["ok"]
    # a deviation beyond x = 20 is outside the compared range
    edge = exact * np.where(centers > 30.0, 0.5, 1.0)
    assert checks.check_eigenfunction(centers, edge, DELTA)["ok"]
    bent = exact * (1.0 + 0.01 * np.minimum(centers, 20.0) / 20.0)
    assert not checks.check_eigenfunction(centers, bent, DELTA)["ok"]
    assert not checks.check_eigenfunction(centers, centers ** 1.01 + 1.0,
                                          DELTA)["ok"]


def test_grid_delta():
    assert checks.grid_delta(0.01, 40.0, 1024) == pytest.approx(
        math.log(4000.0) / 1024)
