"""Principal eigen-elements and spectral-gap rate fitting."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from growfrag.errors import DomainError, RatePositive, Reducible
from growfrag.model import (FragmentationKernel, GrowthSpec, ModelSpec,
                            constant_weight, identity_weight, power_ratio)
from growfrag.pde import DensityState, DiscreteOperator, SizeGrid, \
    build_discrete_operator, solve
from growfrag.spectral import (
    SpectralTriple,
    fit_gap_rate,
    lambda0_vs_bound,
    loglinear_fit,
    principal_eigen,
)
from growfrag.errors import BoundViolated

from conftest import (make_canonical, make_critical, make_mitosis,
                      operator_matrix)


class _SparseGenerator:
    """What principal_eigen reads of a generator, on a hand-built matrix."""

    def __init__(self, matrix):
        self.matrix = sparse.csr_matrix(matrix)
        self.shape = self.matrix.shape

    def __matmul__(self, v):
        return self.matrix @ v

    def apply_transpose(self, u):
        return self.matrix.T @ u

    def diagonal(self):
        return self.matrix.diagonal()

    def column_sums(self):
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def strong_components(self):
        count, _ = csgraph.connected_components(
            self.matrix != 0, directed=True, connection="strong")
        return count

    def factor(self, sigma):
        eye = sparse.identity(self.shape[0], format="csc")
        return splu(sigma * eye - self.matrix.tocsc())


def _toy_operator(matrix):
    grid = SizeGrid.log_uniform(0.5, 2.0, matrix.shape[0])
    return DiscreteOperator(grid=grid, matrix=_SparseGenerator(matrix),
                            below_inflow=np.zeros(matrix.shape[0]),
                            cfl_dt=0.1)


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


def test_solve_refuses_an_operator_without_a_stencil(canonical_model):
    # an operator made by hand carries no stencil; solve marches on one
    op = _toy_operator(np.array([[-1.0, 2.0], [1.0, -1.0]]))
    with pytest.raises(DomainError, match="build_discrete_operator"):
        solve(canonical_model, op.grid, 1.0, 0.5, operator=op)


def test_reducible_matrix_rejected():
    block = np.array([[-1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(Reducible, match="has 2 strong components"):
        principal_eigen(_toy_operator(block), constant_weight(1.0))


def test_coarse_mitosis_grid_is_reducible_on_the_stencil():
    # cells of 3.2 decades keep every mitosis child in its parent's cell:
    # the stencil's 3n-node graph finds the CSR matrix's 64 components
    grid = SizeGrid.log_uniform(0.01, 1e200, 64)
    op = build_discrete_operator(make_mitosis(), grid)
    count, _ = csgraph.connected_components(
        operator_matrix(op) != 0, directed=True, connection="strong")
    assert count == op.matrix.strong_components() == 64
    with pytest.raises(Reducible, match="has 64 strong components"):
        principal_eigen(op, constant_weight(1.0))


def test_fine_grid_eigen_solve_stays_small():
    # at n = 8192 the n^2/2-entry CSR matrix alone took about 400 MB; the
    # O(n) operator assembles and eigen-solves in a fraction of 64 MB
    grid = SizeGrid.log_uniform(0.01, 40.0, 8192)
    tracemalloc.start()
    try:
        op = build_discrete_operator(make_canonical(), grid)
        triple = principal_eigen(op, constant_weight(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert triple.lambda0 == pytest.approx(-1.0, abs=5e-4)


def test_canonical_growth_is_supercritical(canonical_triple):
    # the population grows, so the killing-time exponent is negative
    assert canonical_triple.lambda0 < 0.0
    assert canonical_triple.residuals[0] <= 1e-14
    assert canonical_triple.residuals[1] <= 1e-14


def test_normalizations(canonical_triple):
    assert canonical_triple.m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(canonical_triple.phi) == pytest.approx(1.0, abs=1e-12)
    assert np.all(canonical_triple.m >= 0.0)
    assert np.all(canonical_triple.phi > 0.0)


def _power_kernel_model(theta=-0.5):
    """CANONICAL with the ratio density p(du) = (theta+2) u^theta du,
    singular at u = 0 by default."""
    return ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: x, power_ratio(theta)),
        domain_hint=(0.01, 40.0),
        irreducible=True,
    )


def _shape_gap(got, want):
    """Largest relative gap of two positive vectors, each scaled to sum 1,
    on the cells at or above 1e-6 of want's maximum."""
    got = got / got.sum()
    want = np.abs(want) / np.abs(want).sum()
    kept = want >= 1e-6 * want.max()
    return float(np.max(np.abs(got[kept] - want[kept]) / want[kept]))


_MODELS = [
    (make_canonical, (0.01, 40.0)),
    (make_mitosis, (0.01, 40.0)),
    (_power_kernel_model, (0.01, 40.0)),
    (make_critical, (0.02, 40.0)),      # the CLI's CRITICAL domain
]
_MODEL_IDS = ["canonical", "mitosis", "power", "critical"]


@pytest.mark.parametrize("make_model, domain", _MODELS, ids=_MODEL_IDS)
def test_matches_dense_eigensolver(make_model, domain):
    grid = SizeGrid.log_uniform(domain[0], domain[1], 256)
    op = build_discrete_operator(make_model(), grid)
    triple = principal_eigen(op, constant_weight(1.0))
    eigvals, left, right = scipy.linalg.eig(operator_matrix(op).toarray(),
                                            left=True)
    k = int(np.argmax(eigvals.real))
    assert triple.lambda0 == pytest.approx(-eigvals[k].real, abs=1e-12)
    assert _shape_gap(triple.m, right[:, k].real) <= 1e-7
    assert _shape_gap(triple.phi, left[:, k].real) <= 1e-7


@pytest.mark.parametrize("make_model, domain", _MODELS + [
    (lambda: _power_kernel_model(200.0), (1e-3, 1e3)),
    (make_canonical, (1e-12, 40.0)),
], ids=_MODEL_IDS + ["power200", "canonical-wide"])
def test_stencil_factor_solves_the_resolvent(make_model, domain):
    # the stencil's O(n) factor solves sigma*I - M and its transpose as the
    # direct factor does, and keeps a non-negative right-hand side's
    # solution non-negative, also with sigma near the Perron root
    grid = SizeGrid.log_uniform(domain[0], domain[1], 256)
    op = build_discrete_operator(make_model(), grid)
    n = grid.n_cells
    matrix = operator_matrix(op).tocsc()
    sigma = 2.0 * (abs(float(np.max(np.asarray(matrix.sum(axis=0))))) + 1.0)
    direct = splu(sigma * sparse.identity(n, format="csc") - matrix)
    rho = -principal_eigen(op, constant_weight(1.0)).lambda0
    rng = np.random.default_rng(5)
    rhs = [np.ones(n), np.eye(n)[0], np.eye(n)[-1],
           rng.random(n) * (rng.random(n) < 0.5)]
    # principal_eigen's first shift, and the one two rounds on
    for shift in (sigma, rho + 1e-4 * (sigma - rho)):
        lu = op.matrix.factor(shift)
        for y, trans in itertools.product(rhs, ("N", "T")):
            got = lu.solve(np.append(y, np.zeros(2 * n)), trans=trans)[:n]
            assert np.all(got >= 0.0)
            if shift == sigma:
                want = direct.solve(y, trans=trans)
                kept = want >= 1e-6 * want.max()
                assert np.max(np.abs(got[kept] - want[kept])
                              / want[kept]) <= 1e-12


def test_refinement_contracts(canonical_model):
    vals = []
    for n in (128, 256, 512):
        grid = SizeGrid.log_uniform(0.01, 40.0, n)
        op = build_discrete_operator(canonical_model, grid)
        vals.append(principal_eigen(op, constant_weight(1.0)).lambda0)
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_psi_only_rescales(canonical_model, canonical_operator,
                           canonical_triple):
    other = principal_eigen(canonical_operator,
                            identity_weight(canonical_model.growth))
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
    gamma, r2 = fit_gap_rate(states, triple, lambda x: 1.0)
    assert gamma == pytest.approx(gamma_true, rel=1e-3)
    assert r2 > 0.999


def test_fit_gap_rate_rejects_foreign_grid(canonical_model,
                                           canonical_triple):
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    state = DensityState.point_mass(grid, 1.0)
    with pytest.raises(DomainError):
        fit_gap_rate([state] * 10, canonical_triple, lambda x: 1.0)


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
