"""Finite-volume transport-fragmentation solver."""

import warnings

import numpy as np
import pytest

from growfrag.errors import CFLViolation, DomainError
from growfrag.flow import FlowEngine
from growfrag.model import (
    FragmentationKernel,
    GrowthSpec,
    ModelSpec,
    mitosis_ratio,
    power_ratio,
    uniform_ratio,
)
from growfrag.pde import (
    BoundaryLeak,
    DensityState,
    ExchangeStencil,
    SizeGrid,
    build_discrete_operator,
    pairing,
    solve,
)

from conftest import (make_canonical, make_conserving_linear, make_mitosis,
                      operator_matrix)


def _transport_only(speed):
    return ModelSpec(
        growth=GrowthSpec.from_speed(speed),
        frag=FragmentationKernel.relative(lambda x: 0.0, uniform_ratio()),
        domain_hint=(1e-2, 40.0))


# -- grid and states -----------------------------------------------------

def test_log_uniform_grid_geometry():
    grid = SizeGrid.log_uniform(0.01, 40.0, 128)
    assert grid.n_cells == 128
    ratios = grid.edges[1:] / grid.edges[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert grid.locate(1.0) == np.searchsorted(grid.edges, 1.0) - 1


def test_point_mass_state():
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    state = DensityState.point_mass(grid, 1.0)
    assert state.total_mass() == pytest.approx(1.0)
    assert np.count_nonzero(state.masses) == 1
    assert state.masses[grid.locate(1.0)] == pytest.approx(1.0)


def test_pairing_is_midpoint_sum():
    grid = SizeGrid.log_uniform(0.01, 40.0, 32)
    state = DensityState(grid=grid, masses=np.full(32, 0.5), time=0.0)
    assert pairing(state, lambda x: 1.0) == pytest.approx(16.0)
    assert pairing(state, lambda x: x) == pytest.approx(
        0.5 * grid.centers.sum())


# -- operator structure ----------------------------------------------------

def test_pure_transport_conserves_mass():
    model = _transport_only(lambda x: 1.0)
    grid = SizeGrid.log_uniform(0.01, 40.0, 512)
    traj = solve(model, grid, 1.0, t_end=1.0)
    final = traj.final
    assert final.total_mass() == pytest.approx(1.0, abs=1e-12)
    center = pairing(final, lambda x: x)
    # upwind diffusion spreads the pulse but the mean drifts with the flow
    assert center == pytest.approx(2.0, rel=0.02)


def test_mitosis_inflow_is_exact_dyadic_shift():
    # grid with 16 cells per octave: a half-size child lands exactly 16
    # cells below its parent
    model = make_mitosis()
    grid = SizeGrid.log_uniform(2.0 ** -7, 2.0 ** 3, 160)
    full = operator_matrix(build_discrete_operator(model, grid)).toarray()
    bare = operator_matrix(build_discrete_operator(
        _transport_only(lambda x: 1.0), grid)).toarray()
    frag = full - bare
    for j in range(20, 160, 13):
        col = frag[:, j].copy()
        assert col[j] == pytest.approx(-1.0, abs=1e-10)
        assert col[j - 16] == pytest.approx(2.0, abs=1e-10)
        col[j] = col[j - 16] = 0.0
        assert np.max(np.abs(col)) <= 1e-10


def test_uniform_inflow_matches_analytic_column():
    # uniform repartition: inflow from cell j into [a, b] is
    # K(x_j) * 2 * (min(b, x_j) - a) / x_j
    model = make_canonical()
    grid = SizeGrid.log_uniform(0.01, 40.0, 96)
    full = operator_matrix(build_discrete_operator(model, grid)).toarray()
    bare = operator_matrix(build_discrete_operator(
        _transport_only(lambda x: 1.0), grid)).toarray()
    frag = full - bare
    edges, centers = grid.edges, grid.centers
    for j in (20, 50, 90):
        x = centers[j]
        rate = x
        for i in range(j):
            lo, hi = edges[i], min(edges[i + 1], x)
            expected = rate * 2.0 * max(hi - lo, 0.0) / x
            if i == 0:
                # below-domain inflow is folded into the first cell
                expected += rate * 2.0 * edges[0] / x
            assert frag[i, j] == pytest.approx(expected, rel=1e-6,
                                               abs=1e-12)
        assert frag[j, j] == pytest.approx(
            -rate + rate * 2.0 * (x - edges[j]) / x, rel=1e-5)


def test_column_sums_match_branching_rate():
    # d/dt <u, 1> picks up K(x) (p0 - 1) per unit mass; the below-domain
    # inflow is already folded into the first cell by the assembly
    model = make_canonical()
    grid = SizeGrid.log_uniform(0.01, 40.0, 128)
    op = build_discrete_operator(model, grid)
    sums = np.asarray(operator_matrix(op).sum(axis=0)).ravel()
    centers = grid.centers
    interior = slice(1, -1)   # top cell loses transport outflow
    assert np.allclose(sums[interior], centers[interior], rtol=1e-6,
                       atol=1e-8)


def test_general_kernel_matches_its_relative_form():
    # the fragmentation columns against p integrated over each destination
    # cell by adaptive quadrature, independently of the ratio measure's
    # closed-form cumulative, to 1e-12 relative
    from scipy.integrate import quad
    grid = SizeGrid.log_uniform(0.01, 40.0, 96)
    edges, centers = grid.edges, grid.centers
    bare = operator_matrix(build_discrete_operator(
        _transport_only(lambda x: 1.0), grid)).toarray()
    for ratio in (uniform_ratio(), power_ratio(-0.5)):
        model = ModelSpec(
            growth=GrowthSpec.from_speed(lambda x: 1.0),
            frag=FragmentationKernel.relative(lambda x: 1.0, ratio),
            domain_hint=(1e-2, 40.0))
        op = build_discrete_operator(model, grid)
        frag = operator_matrix(op).toarray() - bare
        for j in (5, 30, 60, 95):
            x = centers[j]
            # the first cell also takes the children below x_min
            lo = np.concatenate([[0.0], edges[1:j + 1] / x])
            hi = np.minimum(edges[1:j + 2] / x, 1.0)
            want = np.array([quad(ratio.density, a, b, epsabs=0.0,
                                  epsrel=1e-12, limit=200)[0]
                             for a, b in zip(lo, hi)])
            want[j] -= 1.0   # the unit rate leaves cell j
            tol = 1e-12 * np.abs(want) + 1e-15
            assert np.all(np.abs(frag[:j + 1, j] - want) <= tol)
            assert not frag[j + 1:, j].any()


# -- time marching -----------------------------------------------------------

def test_cfl_violation_raised():
    model = make_canonical()
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    op = build_discrete_operator(model, grid)
    with pytest.raises(CFLViolation):
        solve(model, grid, 1.0, t_end=0.1, dt=op.cfl_dt * 10.0, operator=op)


@pytest.mark.parametrize("dt", [0.0, -1e-4, float("nan"), float("inf"),
                                1e-300])
def test_bad_step_size_is_a_domain_error_naming_dt(dt):
    # dt = 0 once looped forever, nan stopped after one step at t = nan
    # and a negative dt was reported as a negative mass; dt = 1e-300
    # looped forever once t + dt == t
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    with pytest.raises(DomainError, match="dt"):
        solve(make_mitosis(), grid, 1.0, t_end=0.5, dt=dt)


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_horizon_is_a_domain_error_naming_t_end(t_end):
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    with pytest.raises(DomainError, match="t_end"):
        solve(make_mitosis(), grid, 1.0, t_end=t_end)


@pytest.mark.parametrize("bounds, n", [((0.001, 400.0), 64),
                                      ((0.01, 40.0), 32)])
def test_operator_on_another_grid_is_a_domain_error(bounds, n):
    # on another grid with the same n the march once returned total mass
    # 1.8129 for 1.6563; with another n it ended in a numpy ValueError
    model = make_canonical()
    op = build_discrete_operator(model, SizeGrid.log_uniform(*bounds, n))
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    with pytest.raises(DomainError, match="grid"):
        solve(model, grid, 1.0, 0.5, operator=op)


def test_checkpoints_hit_exactly():
    model = make_mitosis()
    grid = SizeGrid.log_uniform(0.01, 40.0, 128)
    traj = solve(model, grid, 1.0, t_end=1.0, checkpoints=[0.25, 0.5])
    times = [s.time for s in traj.states]
    assert times == [0.25, 0.5, 1.0]


def test_unknown_method_rejected():
    model = make_mitosis()
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    with pytest.raises(DomainError):
        solve(model, grid, 1.0, t_end=0.5, method="rk4")


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_mitosis_number_growth():
    # constant unit splitting rate doubles counts at rate 1: <u_t, 1> = e^t
    model = make_mitosis()
    grid = SizeGrid.log_uniform(0.01, 40.0, 2048)
    traj = solve(model, grid, 1.0, t_end=1.0)
    number = pairing(traj.final, lambda x: 1.0)
    assert number == pytest.approx(np.e, rel=0.01)


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_conserving_mass_growth():
    # speed x with a mean-conserving kernel: <u_t, x> = x0 e^t
    model = make_conserving_linear()
    grid = SizeGrid.log_uniform(0.01, 40.0, 1024)
    traj = solve(model, grid, 1.0, t_end=1.0)
    mass = pairing(traj.final, lambda x: x)
    assert mass == pytest.approx(np.e, rel=0.01)


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_first_order_refinement():
    model = make_conserving_linear()
    errs = []
    for n in (256, 512):
        grid = SizeGrid.log_uniform(0.01, 40.0, n)
        traj = solve(model, grid, 1.0, t_end=1.0)
        errs.append(abs(pairing(traj.final, lambda x: x) - np.e))
    ratio = errs[0] / errs[1]
    assert 1.5 <= ratio <= 2.5


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_solution_support_bound():
    # fragmentation only moves mass downward, so the exact solution is
    # supported below the flow image of the start; the upwind scheme
    # smears a diffusive tail past that front, but it dies off within a
    # fixed size factor and tightens under grid refinement
    model = make_canonical()
    flow = FlowEngine(model.growth, *model.domain_hint)
    top = flow.flow_at(1.0, 1.0)
    tails_at_3 = []
    for n in (256, 512):
        grid = SizeGrid.log_uniform(0.01, 40.0, n)
        traj = solve(model, grid, 1.0, t_end=1.0)
        m = traj.final.masses
        total = m.sum()
        tails_at_3.append(m[grid.centers > 1.5 * top].sum() / total)
        if n == 512:
            assert m[grid.centers > 2.0 * top].sum() <= 1e-12 * total
    assert tails_at_3[1] < 0.5 * tails_at_3[0]


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_march_reports_its_product_and_steps(monkeypatch):
    # a density kernel and mitosis alike march on the Toeplitz stencil,
    # one pass per Euler step and two per Heun step, and never form M @ m
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    products = []
    apply = ExchangeStencil.apply
    monkeypatch.setattr(ExchangeStencil, "apply",
                        lambda self, *args: products.append(1)
                        or apply(self, *args))

    def matmul(self, m):
        raise AssertionError("the march formed M @ m")
    monkeypatch.setattr(ExchangeStencil, "__matmul__", matmul)
    for model in (make_canonical(), make_mitosis()):
        op = build_discrete_operator(model, grid)
        for method, passes in (("euler", 1), ("heun", 2)):
            products.clear()
            traj = solve(model, grid, 1.0, t_end=0.5, method=method,
                         operator=op)
            assert traj.steps == int(np.ceil(0.5 / op.cfl_dt))
            assert len(products) == passes * traj.steps


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_steep_power_kernel_marches_without_overflow():
    # theta = 200 on (1e-3, 1e3): the scan's factor g^k over the whole
    # grid would be e^2777; its chunks keep each within e^36
    model = ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: x, power_ratio(200.0)),
        domain_hint=(1e-3, 1e3))
    grid = SizeGrid.log_uniform(1e-3, 1e3, 256)
    with np.errstate(over="raise"):
        op = build_discrete_operator(model, grid)
        traj = solve(model, grid, 1.0, t_end=0.01, operator=op)
    m = traj.final.masses
    assert np.all(np.isfinite(m)) and np.all(m >= 0.0)
    assert traj.final.total_mass() > 0.0


_POWER_HALF = ModelSpec(
    growth=GrowthSpec.from_speed(lambda x: 1.0),
    frag=FragmentationKernel.relative(lambda x: x, power_ratio(-0.5)),
    domain_hint=(0.01, 40.0))


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
@pytest.mark.parametrize("model", [make_canonical(), make_mitosis(),
                                   _POWER_HALF],
                         ids=["canonical", "mitosis", "power-0.5"])
def test_front_tracked_floor_matches_the_full_floor(model):
    # from a point mass the front crosses more than 100 cells in 400
    # steps with cells still 0 past it; Euler steps on the sparse matrix
    # that floor every cell must give the same zeros, and the same cells
    # and floored mass to 1e-12
    grid = SizeGrid.log_uniform(0.01, 40.0, 512)
    op = build_discrete_operator(model, grid)
    matrix = operator_matrix(op)
    dt = op.cfl_dt
    traj = solve(model, grid, 1.0, 400 * dt, dt=dt, operator=op)
    m = DensityState.point_mass(grid, 1.0).masses
    floored = 0.0
    for _ in range(400):
        new = m + dt * (matrix @ m)
        tiny = new < 1e-250 * m.sum()
        floored += new[tiny].sum()
        new[tiny] = 0.0
        m = new
    got = traj.final.masses
    assert traj.steps == 400
    assert np.flatnonzero(m)[-1] - grid.locate(1.0) > 100 and m[-1] == 0.0
    assert np.array_equal(got == 0.0, m == 0.0)
    kept = m != 0.0
    assert np.all(np.abs(got[kept] - m[kept]) <= 1e-12 * m[kept])
    assert traj.floored_mass == pytest.approx(floored, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_floor_skips_cells_that_are_already_zero():
    # mitosis from a point mass keeps cells between the atom's images
    # exactly 0 for a while: 0 is below the floor, yet no step whose
    # positive cells all stay above it scans the cells behind the front
    grid = SizeGrid.log_uniform(0.01, 40.0, 512)
    model = make_mitosis()
    op = build_discrete_operator(model, grid)
    dt = op.cfl_dt
    traj = solve(model, grid, 1.0, 400 * dt, dt=dt, checkpoints=[20 * dt],
                 operator=op)
    early = traj.states[0].masses
    assert traj.steps == 400
    assert np.any(early[:np.flatnonzero(early)[-1]] == 0.0)
    assert traj.floor_scans == 0


def test_floor_zeroes_denormal_range_masses():
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    m0 = np.zeros(64)
    m0[10], m0[40] = 1.0, 1e-280
    traj = solve(make_canonical(), grid,
                 DensityState(grid=grid, masses=m0), t_end=0.05)
    # the 1e-280 cell and what it sends on fall below 1e-250 of the total
    assert 0.0 < traj.floored_mass < 2e-280
    m = traj.final.masses
    assert np.all((m == 0.0) | (m >= 1e-250 * m.sum()))


def test_boundary_leak_warning():
    model = make_canonical()
    grid = SizeGrid.log_uniform(0.01, 40.0, 128)
    with pytest.warns(BoundaryLeak):
        solve(model, grid, 1.0, t_end=4.0, method="heun")


def test_trajectory_csv_and_summary(tmp_path):
    model = make_mitosis()
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    traj = solve(model, grid, 1.0, t_end=0.5, checkpoints=[0.25])
    out = tmp_path / "density.csv"
    traj.to_csv(out)
    assert out.read_text().startswith("t,cell_center,mass")
    summary = traj.summary()
    assert [row["t"] for row in summary] == [0.25, 0.5]
    assert summary[-1]["total_mass"] > 1.0   # splitting raises counts


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_marks_end_without_a_rounding_step():
    # t accumulates k * dt with rounding, so it can fall a few ulps short
    # of the mark k * dt; the march must not add a ~1e-15 step for that
    model = ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 0.5),
        frag=FragmentationKernel.relative(lambda x: 0.5 * x ** 0.5,
                                          uniform_ratio()),
        domain_hint=(0.5, 2.0))
    grid = SizeGrid.log_uniform(0.5, 2.0, 8)
    op = build_discrete_operator(model, grid)
    marks = [k * op.cfl_dt for k in range(1, 21)]
    traj = solve(model, grid, 1.0, marks[-1], checkpoints=marks,
                 operator=op)
    assert traj.steps == 20
    assert [s.time for s in traj.states] == marks
