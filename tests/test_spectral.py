"""Principal eigen-elements and spectral-gap rate fitting."""

import numpy as np
import pytest
from scipy import sparse

from growfrag.errors import DomainError, RatePositive, Reducible
from growfrag.model import constant_weight, identity_weight
from growfrag.flow import FlowEngine
from growfrag.pde import DensityState, DiscreteOperator, SizeGrid, \
    build_discrete_operator
from growfrag.spectral import (
    SpectralTriple,
    fit_gap_rate,
    lambda0_vs_bound,
    loglinear_fit,
    principal_eigen,
)
from growfrag.errors import BoundViolated

from conftest import make_canonical


def _toy_operator(matrix):
    grid = SizeGrid.log_uniform(0.5, 2.0, matrix.shape[0])
    return DiscreteOperator(grid=grid, matrix=sparse.csr_matrix(matrix),
                            below_inflow=np.zeros(matrix.shape[0]),
                            cfl_dt=0.1, model=None)


# -- eigenpair -------------------------------------------------------------

def test_two_by_two_exact():
    # [[-1, 2], [1, -1]] has dominant eigenvalue sqrt(2) - 1 with right
    # vector (sqrt(2), 1) and left vector (1, sqrt(2))
    op = _toy_operator(np.array([[-1.0, 2.0], [1.0, -1.0]]))
    triple = principal_eigen(op, constant_weight(1.0))
    lam = np.sqrt(2.0) - 1.0
    assert triple.lambda0 == pytest.approx(-lam, abs=1e-12)
    # m normalized to sum 1, phi to max 1
    m_exact = np.array([np.sqrt(2.0), 1.0])
    m_exact /= m_exact.sum()
    assert np.allclose(triple.m, m_exact, atol=1e-12)
    phi_exact = np.array([1.0 / np.sqrt(2.0), 1.0])
    assert np.allclose(triple.phi, phi_exact, atol=1e-12)


def test_reducible_matrix_rejected():
    block = np.array([[-1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(Reducible):
        principal_eigen(_toy_operator(block), constant_weight(1.0))


def test_canonical_growth_is_supercritical(canonical_triple):
    # the population grows, so the killing-time exponent is negative
    assert canonical_triple.lambda0 < 0.0
    assert canonical_triple.residuals[0] <= 1e-8
    assert canonical_triple.residuals[1] <= 1e-8


def test_normalizations(canonical_triple):
    assert canonical_triple.m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(canonical_triple.phi) == pytest.approx(1.0, abs=1e-12)
    assert np.all(canonical_triple.m >= 0.0)
    assert np.all(canonical_triple.phi > 0.0)


def test_matches_dense_eigensolver(canonical_model):
    grid = SizeGrid.log_uniform(0.01, 40.0, 256)
    op = build_discrete_operator(canonical_model, grid)
    triple = principal_eigen(op, constant_weight(1.0))
    dense = op.matrix.toarray()
    eigvals = np.linalg.eigvals(dense)
    perron = float(np.max(eigvals.real))
    assert triple.lambda0 == pytest.approx(-perron, abs=1e-8)


def test_refinement_contracts(canonical_model):
    vals = []
    for n in (128, 256, 512):
        grid = SizeGrid.log_uniform(0.01, 40.0, n)
        op = build_discrete_operator(canonical_model, grid)
        vals.append(principal_eigen(op, constant_weight(1.0)).lambda0)
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_psi_only_rescales(canonical_model, canonical_operator,
                           canonical_triple):
    flow = FlowEngine(canonical_model.growth, *canonical_model.domain_hint)
    other = principal_eigen(canonical_operator, identity_weight(flow))
    assert other.lambda0 == pytest.approx(canonical_triple.lambda0,
                                          abs=1e-10)
    ratio_m = other.m / canonical_triple.m
    ratio_phi = other.phi / canonical_triple.phi
    assert np.allclose(ratio_m, ratio_m[0], rtol=1e-8)
    assert np.allclose(ratio_phi, ratio_phi[0], rtol=1e-8)


# -- lambda0 vs lambda2 ------------------------------------------------------

def test_bound_comparison(canonical_triple):
    report = lambda0_vs_bound(canonical_triple, -0.5, nonconstant=True)
    assert report.strict
    assert report.margin == pytest.approx(-0.5 - canonical_triple.lambda0)
    with pytest.raises(BoundViolated):
        lambda0_vs_bound(canonical_triple, canonical_triple.lambda0 - 1.0)
    with pytest.raises(BoundViolated):
        lambda0_vs_bound(canonical_triple, canonical_triple.lambda0,
                         nonconstant=True)


# -- rate fitting -------------------------------------------------------------

def test_loglinear_fit_exact_decay():
    ts = np.linspace(1.0, 6.0, 12)
    gamma, r2 = loglinear_fit(ts, 3.0 * np.exp(-2.0 * ts))
    assert gamma == pytest.approx(2.0, abs=1e-6)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_loglinear_fit_flags_growth():
    ts = np.linspace(0.0, 5.0, 10)
    with pytest.raises(RatePositive):
        loglinear_fit(ts, np.exp(0.5 * ts))


def test_loglinear_fit_needs_points():
    with pytest.raises(DomainError):
        loglinear_fit(np.array([1.0, 2.0]), np.array([1.0, 0.5]))


def test_fit_gap_rate_on_synthetic_checkpoints(canonical_model):
    # exact semigroup surrogate: u_t = e^{rho t} (m + e^{-gamma t} d)
    # with d orthogonal to phi, so the projected residual decays at
    # exactly gamma
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    op = build_discrete_operator(canonical_model, grid)
    triple = principal_eigen(op, constant_weight(1.0))
    rho = -triple.lambda0
    gamma_true = 2.0
    rng = np.random.default_rng(3)
    # relative perturbation keeps every cell positive; its phi-component
    # is cancelled inside the heaviest cell
    d = triple.m * rng.uniform(-0.5, 0.5, grid.n_cells)
    k = int(np.argmax(triple.m))
    d[k] -= (triple.phi @ d) / triple.phi[k]
    states = []
    for t in np.linspace(0.5, 4.0, 12):
        masses = np.exp(rho * t) * (triple.m + 1e-2 * np.exp(-gamma_true * t)
                                    * d)
        states.append(DensityState(grid=grid, masses=masses, time=float(t)))
    gamma, r2 = fit_gap_rate(states, triple, lambda x: 1.0,
                             constant_weight(1.0))
    assert gamma == pytest.approx(gamma_true, rel=1e-3)
    assert r2 > 0.999


def test_fit_gap_rate_rejects_foreign_grid(canonical_model,
                                           canonical_triple):
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    state = DensityState.point_mass(grid, 1.0)
    with pytest.raises(DomainError):
        fit_gap_rate([state] * 10, canonical_triple, lambda x: 1.0,
                     constant_weight(1.0))


# -- artifacts ------------------------------------------------------------------

def test_triple_csv_and_json(canonical_triple, tmp_path):
    out = tmp_path / "triple.csv"
    canonical_triple.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "x,phi,m"
    import json
    from growfrag.cli import dumps_stable
    payload = json.loads(dumps_stable({
        "lambda0": canonical_triple.lambda0,
        "gamma": 1.5,
        "r_squared": 0.99,
        "residuals": {"right": canonical_triple.residuals[0],
                      "left": canonical_triple.residuals[1]},
    }))
    assert payload["lambda0"] == canonical_triple.lambda0
    assert payload["gamma"] == 1.5
    assert set(payload["residuals"]) == {"right", "left"}
