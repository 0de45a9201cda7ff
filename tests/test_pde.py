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

from conftest import make_canonical, make_conserving_linear, make_mitosis


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
    full = build_discrete_operator(model, grid).matrix.toarray()
    bare = build_discrete_operator(_transport_only(lambda x: 1.0),
                                   grid).matrix.toarray()
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
    full = build_discrete_operator(model, grid).matrix.toarray()
    bare = build_discrete_operator(
        _transport_only(lambda x: 1.0), grid).matrix.toarray()
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
    sums = np.asarray(op.matrix.sum(axis=0)).ravel()
    centers = grid.centers
    interior = slice(1, -1)   # top cell loses transport outflow
    assert np.allclose(sums[interior], centers[interior], rtol=1e-6,
                       atol=1e-8)


def test_general_kernel_matches_its_relative_form():
    # the fragmentation columns against p integrated over each destination
    # cell by adaptive quadrature, independently of the ratio measure's
    # CDF table.  The table interpolates P(u) = p((0, u]) linearly
    # between its nodes, so each edge may be off by h^2/8 max|p'| on its
    # table panel of width h
    from scipy.integrate import quad
    grid = SizeGrid.log_uniform(0.01, 40.0, 96)
    edges, centers = grid.edges, grid.centers
    bare = build_discrete_operator(_transport_only(lambda x: 1.0),
                                   grid).matrix.toarray()
    for ratio, slope in ((uniform_ratio(), lambda u: 0.0),
                         (power_ratio(-0.5), lambda u: 0.75 * u ** -1.5)):
        model = ModelSpec(
            growth=GrowthSpec.from_speed(lambda x: 1.0),
            frag=FragmentationKernel.relative(lambda x: 1.0, ratio),
            domain_hint=(1e-2, 40.0))
        frag = build_discrete_operator(model, grid).matrix.toarray() - bare
        nodes = ratio.cdf_table()[0]

        def interpolation_error(u):
            k = np.searchsorted(nodes, u)
            if nodes[k] == u:
                return 0.0
            a, b = nodes[k - 1], nodes[k]
            return (b - a) ** 2 / 8.0 * max(slope(a), slope(b))

        for j in (5, 30, 60, 95):
            x = centers[j]
            # the first cell also takes the children below x_min
            lo = np.concatenate([[0.0], edges[1:j + 1] / x])
            hi = np.minimum(edges[1:j + 2] / x, 1.0)
            want = np.array([quad(ratio.density, a, b, epsabs=0.0,
                                  epsrel=1e-12, limit=200)[0]
                             for a, b in zip(lo, hi)])
            want[j] -= 1.0   # the unit rate leaves cell j
            tol = 1e-8 * np.abs(want) + np.array(
                [interpolation_error(a) + interpolation_error(b)
                 for a, b in zip(lo, hi)])
            assert np.all(np.abs(frag[:j + 1, j] - want) <= tol)
            assert not frag[j + 1:, j].any()


# -- time marching -----------------------------------------------------------

def test_cfl_violation_raised():
    model = make_canonical()
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    op = build_discrete_operator(model, grid)
    with pytest.raises(CFLViolation):
        solve(model, grid, 1.0, t_end=0.1, dt=op.cfl_dt * 10.0, operator=op)


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
    # one product per Euler step, and never read the sparse matrix
    grid = SizeGrid.log_uniform(0.01, 40.0, 64)
    products = []
    apply = ExchangeStencil.apply
    monkeypatch.setattr(ExchangeStencil, "apply",
                        lambda self, m: products.append(1) or apply(self, m))
    for model in (make_canonical(), make_mitosis()):
        op = build_discrete_operator(model, grid)
        op.matrix = None
        products.clear()
        traj = solve(model, grid, 1.0, t_end=0.5, operator=op)
        assert traj.steps == len(products) == int(np.ceil(0.5 / op.cfl_dt))


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
