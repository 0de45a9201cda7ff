"""End-to-end acceptance checks tying all modules together."""

import time
import warnings

import numpy as np
import pytest

from growfrag.flow import FlowEngine
from growfrag.lyapunov import (
    build_h_pseudo_entrance,
    criterion_lnx,
    criterion_mitosis_kernel,
    criterion_reggen,
    criterion_uniform_kernel,
    lambda2_bound,
    verify_assumption1,
)
from growfrag.model import (
    FragmentationKernel,
    GrowthSpec,
    ModelSpec,
    WeightFunction,
    constant_weight,
    identity_weight,
    mitosis_ratio,
    power_ratio,
    uniform_ratio,
)
from growfrag.pde import SizeGrid, build_discrete_operator, pairing, solve
from growfrag.pdmp import (
    TiltedJumpLaw,
    mc_semigroup,
    simulate_path,
)
from growfrag.errors import RatePositive
from growfrag import qsd, spectral

from conftest import (
    eigenfunction_weight,
    make_canonical,
    make_conserving_linear,
    make_critical,
    make_mitosis,
    operator_matrix,
)

pytestmark = pytest.mark.slow


# -- 1: analytic thresholds ---------------------------------------------------

def test_acceptance_thresholds_fast_and_exact():
    start = time.perf_counter()
    thr_u, arg_u = criterion_uniform_kernel()
    thr_m, arg_m = criterion_mitosis_kernel()
    lnx_u = criterion_lnx(
        FragmentationKernel.relative(lambda x: 1.0, uniform_ratio()))
    lnx_m = criterion_lnx(
        FragmentationKernel.relative(lambda x: 1.0, mitosis_ratio()))
    reggen = criterion_reggen(2.0, 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert thr_u == pytest.approx(3.0 + 2.0 * np.sqrt(2.0), abs=1e-6)
    assert arg_u == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-5)
    assert thr_m == pytest.approx(3.86, abs=0.01)
    assert lnx_u[0] == pytest.approx(2.0, abs=1e-6)
    assert lnx_u[1] == pytest.approx(2.0, abs=1e-6)
    assert lnx_m[0] == pytest.approx(1.0 / np.log(2.0), abs=1e-6)
    assert reggen == pytest.approx(1.0, abs=1e-9)


# -- 2: exact growth identities ------------------------------------------------

@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_acceptance_exact_identities():
    # mitosis splits conserve nothing but count: <u_t, 1> = e^t; the
    # tilted estimator with a flat weight reproduces it with zero variance
    mitosis = make_mitosis()
    flow_m = FlowEngine(mitosis.growth, *mitosis.domain_hint)
    law_m = TiltedJumpLaw(mitosis, constant_weight(1.0), 1.0, flow_m)
    conserving = make_conserving_linear()
    flow_c = FlowEngine(conserving.growth, *conserving.domain_hint)
    law_c = TiltedJumpLaw(conserving, identity_weight(conserving.growth),
                          1.0, flow_c)
    for t in (0.5, 1.0, 2.0):
        [(est, se)], _ = mc_semigroup(mitosis, law_m, [lambda y: 1.0], 1.0,
                                      t, n_paths=64, seed=1)
        assert est == pytest.approx(np.exp(t), rel=1e-12)
        assert se == 0.0
        [(est, se)], _ = mc_semigroup(conserving, law_c, [lambda y: y], 1.0,
                                      t, n_paths=64, seed=1)
        assert est == pytest.approx(np.exp(t), rel=1e-12)
        assert se == 0.0

    # the density solver reproduces the same identities within 1%
    grid = SizeGrid.log_uniform(0.01, 40.0, 2048)
    traj = solve(mitosis, grid, 1.0, t_end=1.0)
    assert pairing(traj.final, lambda x: 1.0) == pytest.approx(np.e,
                                                               rel=0.01)
    grid_c = SizeGrid.log_uniform(0.01, 40.0, 1024)
    traj_c = solve(conserving, grid_c, 1.0, t_end=1.0)
    assert pairing(traj_c.final, lambda x: x) == pytest.approx(np.e,
                                                               rel=0.01)


# -- 3: stochastic/deterministic duality ------------------------------------------

@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_acceptance_duality(canonical_model, canonical_weight):
    h, b = canonical_weight
    flow = FlowEngine(canonical_model.growth, *canonical_model.domain_hint)
    law = TiltedJumpLaw(canonical_model, h, b, flow)
    t = 2.0
    fs = [lambda y: 1.0, lambda y: y,
          lambda y: 1.0 if 1.0 <= y <= 2.0 else 0.0]
    sup_near_zero = [1.0, 0.0, 0.0]   # |f| on (0, x_min]: leak exposure
    mc, _ = mc_semigroup(canonical_model, law, fs, 1.0, t, n_paths=2000,
                         seed=21)

    pde_vals = {}
    leak = {}
    for n in (256, 512):
        grid = SizeGrid.log_uniform(0.01, 40.0, n)
        traj = solve(canonical_model, grid, 1.0, t_end=t)
        pde_vals[n] = [pairing(traj.final, f) for f in fs]
        leak[n] = traj.below_domain_mass
    for k, f in enumerate(fs):
        coarse, fine = pde_vals[256][k], pde_vals[512][k]
        extrapolated = 2.0 * fine - coarse   # first-order Richardson
        scheme = 2.0 * abs(fine - coarse) + leak[512] * sup_near_zero[k]
        est, se = mc[k]
        assert abs(est - extrapolated) <= 3.0 * se + scheme, (
            f"functional {k}: mc {est} +- {se}, pde {extrapolated}, "
            f"scheme budget {scheme}")


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_acceptance_duality_singular_power_kernel():
    # c = 1, K(x) = x, p(du) = 1.5 u^-0.5 du: A h = sqrt(2) h exactly for
    # h = 1 + sqrt(2) x, so with b = sqrt(2) no path is killed, and
    # <u_t, id> = cosh(sqrt(2) t) + sinh(sqrt(2) t) / sqrt(2) from x0 = 1
    model = ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: x, power_ratio(-0.5),
                                          mass_conserving=True),
        domain_hint=(0.01, 40.0))
    root2 = np.sqrt(2.0)
    h = WeightFunction(value=lambda x: 1.0 + root2 * x,
                       log_slope=lambda x: root2 / (1.0 + root2 * x))
    law = TiltedJumpLaw(model, h, root2)
    t = 0.5
    exact = np.cosh(root2 * t) + np.sinh(root2 * t) / root2
    [(est, se)], _ = mc_semigroup(model, law, [lambda y: y], 1.0, t,
                                  n_paths=2000, seed=21)
    assert abs(est - exact) <= 3.0 * se

    pde_vals = {}
    for n in (256, 512):
        grid = SizeGrid.log_uniform(0.01, 40.0, n)
        traj = solve(model, grid, 1.0, t_end=t)
        pde_vals[n] = pairing(traj.final, lambda x: x)
    coarse, fine = pde_vals[256], pde_vals[512]
    extrapolated = 2.0 * fine - coarse
    # mass landing below x_min is folded into the first cell, whose
    # center exceeds every y in (0, x_min) by at most that center
    scheme = 2.0 * abs(fine - coarse) \
        + traj.below_domain_mass * grid.centers[0]
    assert abs(est - extrapolated) <= 3.0 * se + scheme, (
        f"mc {est} +- {se}, pde {extrapolated}, scheme budget {scheme}")
    assert abs(extrapolated - exact) <= scheme


# -- 4: principal eigenvalue --------------------------------------------------------

def test_acceptance_spectral(canonical_model, canonical_operator,
                             canonical_triple):
    assert canonical_triple.lambda0 < 0.0
    lam2 = lambda2_bound(canonical_model,
                         identity_weight(canonical_model.growth))
    assert canonical_triple.lambda0 <= float(lam2) + 1e-6
    dense = operator_matrix(canonical_operator).toarray()
    perron = float(np.max(np.linalg.eigvals(dense).real))
    assert canonical_triple.lambda0 == pytest.approx(-perron, abs=1e-8)
    assert max(canonical_triple.residuals) <= 1e-8


# -- 5: spectral-gap dichotomy -----------------------------------------------------

def _gap_fit(model):
    grid = SizeGrid.log_uniform(0.02, 60.0, 256)
    op = build_discrete_operator(model, grid)
    triple = spectral.principal_eigen(op, constant_weight(1.0))
    marks = list(np.linspace(0.9, 4.0, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = solve(model, grid, 1.0, t_end=4.0, method="heun",
                     checkpoints=marks, operator=op)
    return spectral.fit_gap_rate(traj.states, triple, lambda x: 1.0)


def test_acceptance_gap_dichotomy():
    gamma, r2 = _gap_fit(make_canonical())
    assert gamma > 0.0
    assert r2 > 0.99

    try:
        _, r2_crit = _gap_fit(make_critical())
        assert r2_crit < 0.9
    except RatePositive:
        pass   # no decay at all also witnesses the missing gap


# -- 6: quasi-stationary consistency --------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")
def test_acceptance_quasi_stationary(canonical_model, canonical_grid,
                                     canonical_operator, canonical_triple,
                                     canonical_weight):
    h, b = canonical_weight
    b_run = b + 0.06   # extra uniform killing keeps kill statistics rich
    flow = FlowEngine(canonical_model.growth, *canonical_model.domain_hint)
    law = TiltedJumpLaw(canonical_model, h, b_run, flow)
    res = qsd.fv_run(canonical_model, law, n_particles=1000, t_end=5.0,
                     seed=17)

    # rate identity within the confidence interval plus the grid error
    grid_128 = SizeGrid.log_uniform(0.01, 40.0, 128)
    lam_128 = spectral.principal_eigen(
        build_discrete_operator(canonical_model, grid_128),
        constant_weight(1.0)).lambda0
    grid_tol = 2.0 * abs(canonical_triple.lambda0 - lam_128)
    ci_half = 0.5 * (res.ci[1] - res.ci[0])
    lam_fv = res.lambda0X - b_run
    assert abs(lam_fv - canonical_triple.lambda0) <= ci_half + grid_tol

    # eigenmeasure: total variation on a coarse comparison grid
    coarse = SizeGrid.log_uniform(0.01, 40.0, 24)
    m_fv, _ = qsd.reconstruct_m_phi(res.nu_hat, None, h, coarse)
    idx = np.clip(np.searchsorted(coarse.edges, canonical_grid.centers,
                                  side="right") - 1, 0, 23)
    m_spec = np.bincount(idx, weights=canonical_triple.m, minlength=24)
    m_spec /= m_spec.sum()
    tv = 0.5 * float(np.sum(np.abs(m_fv - m_spec)))
    assert tv <= 0.05

    # eigenfunction: eta * h proportional to phi over the central half
    probe_grid = SizeGrid.log_uniform(0.01, 40.0, 16)
    logs = np.log(probe_grid.centers)
    mid, span = 0.5 * (logs[0] + logs[-1]), logs[-1] - logs[0]
    probes = probe_grid.centers[np.abs(logs - mid) <= span / 4.0]
    eta = qsd.eta_estimate(canonical_model, law, probes, t_probe=2.0,
                           lambda0X=res.lambda0X, n_paths=600, seed=23)
    phi_fv = eta.values * np.array([h(x) for x in probes])
    phi_spec = np.array([canonical_triple.phi_at(x) for x in probes])
    ratio = phi_fv / phi_spec
    ratio /= ratio.mean()
    assert np.max(np.abs(ratio - 1.0)) <= 0.05


# -- 7: structural invariants ----------------------------------------------------------

def test_acceptance_flow_identity():
    from growfrag.model import GrowthSpec
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: np.sqrt(x)),
                      1e-3, 1e3)
    xs = np.geomspace(1e-2, 1e2, 64)
    ts = np.linspace(1e-3, 5.0, 64)
    for x in xs:
        sx = flow.s_of(x)
        for t in ts:
            assert abs(flow.s_of(flow.flow_at(x, t)) - sx - t) <= 1e-10


def test_acceptance_mc_support_bound(canonical_model, canonical_weight):
    # fragmentation only shrinks: every path stays below the flow image
    mitosis = make_mitosis()
    flow = FlowEngine(mitosis.growth, *mitosis.domain_hint)
    law = TiltedJumpLaw(mitosis, constant_weight(1.0), 1.0, flow)
    bound = flow.flow_at(1.0, 1.0)
    for i in range(30_000):
        trace = simulate_path(mitosis, law, 1.0, 1.0, seed=29, stream_id=i)
        assert trace.endpoint <= bound + 1e-9

    h, b = canonical_weight
    model = canonical_model
    flow_c = FlowEngine(model.growth, *model.domain_hint)
    law_c = TiltedJumpLaw(model, h, b, flow_c)
    bound_c = flow_c.flow_at(1.0, 1.0)
    for i in range(500):
        trace = simulate_path(model, law_c, 1.0, 1.0, seed=31, stream_id=i)
        if trace.alive:
            assert trace.endpoint <= bound_c + 1e-9


def test_acceptance_h_independence(canonical_model, canonical_weight):
    h, b = canonical_weight
    flow = FlowEngine(canonical_model.growth, *canonical_model.domain_hint)
    law_eigen = TiltedJumpLaw(canonical_model, h, b, flow)
    h2 = build_h_pseudo_entrance(canonical_model, 2.0)
    b2 = verify_assumption1(canonical_model, h2).b
    law_entrance = TiltedJumpLaw(canonical_model, h2, b2, flow)
    [(est_a, se_a)], _ = mc_semigroup(canonical_model, law_eigen,
                                      [lambda y: y], 1.0, 1.0, n_paths=800,
                                      seed=37)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        [(est_b, se_b)], _ = mc_semigroup(canonical_model, law_entrance,
                                          [lambda y: y], 1.0, 1.0,
                                          n_paths=2500, seed=37)
    assert abs(est_a - est_b) <= 3.0 * float(np.hypot(se_a, se_b))


def test_acceptance_bitwise_reruns(canonical_model, canonical_weight):
    # a rerun rebuilds its numerical state from scratch (fresh flow
    # tables), exactly like a fresh process invocation
    h, b = canonical_weight
    mc_runs, fv_runs = [], []
    for _ in range(2):
        flow = FlowEngine(canonical_model.growth,
                          *canonical_model.domain_hint)
        law = TiltedJumpLaw(canonical_model, h, b, flow)
        mc_runs.append(mc_semigroup(canonical_model, law, [lambda y: y],
                                    1.0, 0.5, n_paths=100, seed=41))
        law_kill = TiltedJumpLaw(canonical_model, h, b + 0.2, flow)
        fv_runs.append(qsd.fv_run(canonical_model, law_kill,
                                  n_particles=150, t_end=1.5, seed=43))
    assert mc_runs[0] == mc_runs[1]
    assert fv_runs[0].lambda0X == fv_runs[1].lambda0X
    assert np.array_equal(fv_runs[0].nu_hat, fv_runs[1].nu_hat)
