"""Property-based tests (hypothesis)."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from growfrag.cli import _KNOWN_KEYS, dumps_stable, load_config, main
from growfrag.errors import ConfigError, DomainError
from growfrag.flow import FlowEngine
from growfrag.model import (FragmentationKernel, GrowthSpec, ModelSpec,
                            RatioMeasure, mitosis_ratio)
from growfrag.pde import (DensityState, SizeGrid,
                          build_discrete_operator, solve)

_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=False, allow_infinity=False))
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_dumps_stable_round_trips(obj):
    assert json.loads(dumps_stable(obj)) == obj


# [model] values: the documented kinds; numbers from floats (nan and inf
# included), integers and one word; booleans in valid and misspelt forms.
# Ordinary positive numbers come often, so that most examples get past
# growth_c0 and rate_k0 to the keys read after them.
_NUMBERS = st.one_of(st.floats(0.25, 4.0), st.integers(1, 4), st.floats(),
                     st.integers(), st.just("many"))
_BOOLEANS = st.sampled_from(["1", "yes", "true", "on", "0", "no", "false",
                             "off", "True", "OFF", "ture", "yse", "2"])
_MODEL_SECTIONS = st.fixed_dictionaries({
    "growth": st.sampled_from(["constant", "linear", "power"]),
    "growth_c0": _NUMBERS,
    "growth_exponent": _NUMBERS,
    "kernel": st.sampled_from(["uniform", "mitosis", "power"]),
    "kernel_theta": _NUMBERS,
    "rate": st.sampled_from(["constant", "linear", "power"]),
    "rate_k0": _NUMBERS,
    "rate_exponent": _NUMBERS,
    "mass_conserving": _BOOLEANS,
    "irreducible": _BOOLEANS,
})
_POWER_KERNEL = {"growth": "constant", "growth_c0": 1, "growth_exponent": 1,
                 "kernel": "power", "kernel_theta": 1, "rate": "constant",
                 "rate_k0": 1, "rate_exponent": 1, "mass_conserving": "no",
                 "irreducible": "yes"}


# two inputs that once ended in a DomainError: a power kernel with
# theta <= -1, and a mass-conserving one whose mean quadrature underflows
# to 0 (a draw too rare to expect in 300 examples)
@settings(max_examples=300, deadline=None)
@given(model=_MODEL_SECTIONS)
@example(model=dict(_POWER_KERNEL, kernel_theta=-2.0))
@example(model=dict(_POWER_KERNEL, kernel_theta=1e10, mass_conserving="on"))
def test_model_config_loads_or_names_a_model_key(tmp_path_factory, model):
    assert set(model) == _KNOWN_KEYS["model"]
    path = tmp_path_factory.getbasetemp() / "fuzzed.ini"
    path.write_text(
        "[model]\n" + "".join(f"{k} = {v}\n" for k, v in model.items())
        + "[numerics]\nx_min = 0.01\nx_max = 40.0\n[run]\nseed = 1\n")
    try:
        load_config(str(path))
    except ConfigError as exc:
        assert exc.key in _KNOWN_KEYS["model"]


# relative kernels: 0-2 atoms plus no density, the uniform one, or
# (theta + 2) u^theta with theta in (-0.95, 3), singular at 0 for theta < 0
_ATOMS = st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.0, 3.0)),
                  max_size=2)
_DENSITIES = st.one_of(st.none(), st.just("uniform"),
                       st.floats(-0.95, 3.0, exclude_min=True,
                                 exclude_max=True))
_COEFFICIENTS = st.tuples(st.floats(0.1, 10.0), st.floats(-1.0, 2.0))


def _relative_model(atoms, density, rate, speed, x_min, x_max):
    theta = 0.0 if density == "uniform" else density
    measure = RatioMeasure(atoms=atoms, theta=theta)
    (k0, k_exp), (c0, c_exp) = rate, speed
    return ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: c0 * x ** c_exp),
        frag=FragmentationKernel.relative(lambda x: k0 * x ** k_exp,
                                          measure),
        domain_hint=(x_min, x_max))


# the singular density whose first table panel Gauss-8 once under-counted,
# so that the assembly's own column-sum check raised DomainError
@settings(max_examples=100, deadline=None)
@given(atoms=_ATOMS, density=_DENSITIES, rate=_COEFFICIENTS,
       speed=_COEFFICIENTS, n=st.integers(8, 48),
       x_min=st.floats(1e-3, 0.5), x_max=st.floats(2.0, 100.0))
@example(atoms=[], density=-0.5, rate=(1.0, 1.0), speed=(1.0, 0.0), n=32,
         x_min=0.01, x_max=40.0)
def test_operator_columns_sum_to_branching_rate(atoms, density, rate, speed,
                                                n, x_min, x_max):
    model = _relative_model(atoms, density, rate, speed, x_min, x_max)
    measure = model.frag.ratio_measure
    (k0, k_exp), (c0, c_exp) = rate, speed
    grid = SizeGrid.log_uniform(x_min, x_max, n)
    op = build_discrete_operator(model, grid)
    m = op.matrix.toarray()
    assert np.min(m - np.diag(np.diag(m))) >= 0.0
    assert np.min(op.below_inflow) >= 0.0
    # transport columns sum to 0, except the outflow at the last edge
    transport = np.zeros(n)
    transport[-1] = -c0 * grid.edges[-1] ** c_exp / grid.widths[-1]
    branching = k0 * grid.centers ** k_exp * (measure.mass() - 1.0)
    assert np.all(np.abs(m.sum(axis=0) - transport - branching)
                  <= 1e-8 * np.abs(m).sum(axis=0))


def _reference_operator(model, grid):
    """M integrated column by column, each column at its own center: the
    density part through P(min(e_{j+1}/x_i, 1)) - P(min(e_j/x_i, 1)),
    each atom located per column; returns M, the sum of the absolute
    terms of each entry, and the rate of mass leaving below x_min."""
    measure = model.frag.ratio_measure
    edges, centers, n = grid.edges, grid.centers, grid.n_cells
    inflow, lost = np.zeros((n, n)), np.zeros(n)
    for i, x in enumerate(centers):
        if measure.density is not None:
            cum = measure.cdf(np.minimum(edges / x, 1.0))
            inflow[:, i] = np.diff(cum)
            inflow[0, i] += cum[0]
            lost[i] = cum[0]
        for u, w in measure.atoms:
            if u * x < edges[0]:
                inflow[0, i] += w
                lost[i] += w
            else:
                inflow[grid.locate(u * x), i] += w
    rate = np.array([model.frag.loss_rate(x) for x in centers])
    out = np.array([model.growth.c(e) for e in edges[1:]]) / grid.widths
    exchange = inflow * rate
    transport = np.diag(out[:-1], -1)
    drain = np.diag(rate + out)
    return exchange + transport - drain, exchange + transport + drain, \
        rate * lost


@settings(max_examples=100, deadline=None)
@given(atoms=_ATOMS, density=_DENSITIES, rate=_COEFFICIENTS,
       speed=_COEFFICIENTS, n=st.integers(8, 48),
       x_min=st.floats(1e-3, 0.5), x_max=st.floats(2.0, 100.0))
@example(atoms=[(0.3, 0.7)], density=-0.5, rate=(1.0, 1.0),
         speed=(1.0, 0.0), n=1024, x_min=0.01, x_max=40.0)
def test_operator_matches_per_column_reference(atoms, density, rate, speed,
                                               n, x_min, x_max):
    # the operator reads one lattice column; every column must agree with
    # its own integration to 1e-12 of the entry's terms
    model = _relative_model(atoms, density, rate, speed, x_min, x_max)
    grid = SizeGrid.log_uniform(x_min, x_max, n)
    op = build_discrete_operator(model, grid)
    want, scale, below = _reference_operator(model, grid)
    assert np.all(np.abs(op.matrix.toarray() - want) <= 1e-12 * scale)
    assert np.all(np.abs(op.below_inflow - below) <= 1e-12 * below)


def _masses(seed, n):
    """Random non-negative cell masses spanning 300 decades, with zeros."""
    rng = np.random.default_rng(seed)
    m = rng.random(n) * 10.0 ** rng.uniform(-300.0, 0.0, n)
    m[rng.random(n) < 0.2] = 0.0
    return m


@settings(max_examples=100, deadline=None)
@given(atoms=_ATOMS, density=_DENSITIES, rate=_COEFFICIENTS,
       speed=_COEFFICIENTS, n=st.integers(8, 48),
       x_min=st.floats(1e-3, 0.5), x_max=st.floats(2.0, 100.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stencil_product_matches_matrix(atoms, density, rate, speed, n,
                                        x_min, x_max, seed):
    # atom-only measures included: every kernel marches on the stencil
    model = _relative_model(atoms, density, rate, speed, x_min, x_max)
    grid = SizeGrid.log_uniform(x_min, x_max, n)
    op = build_discrete_operator(model, grid)
    m = _masses(seed, n)
    got, want = op.stencil.apply(m), op.matrix @ m
    assert np.all(np.abs(got - want) <= 1e-10 * (abs(op.matrix) @ m))


# one atom, an atom plus a density, or a power density alone
_ATOM = st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 3.0)),
                 min_size=1, max_size=1)
_THETA = st.floats(-0.95, 3.0, exclude_min=True, exclude_max=True)
_STENCIL_KERNELS = st.one_of(
    st.tuples(_ATOM, st.none()),
    st.tuples(_ATOM, st.one_of(st.just("uniform"), _THETA)),
    st.tuples(st.just([]), _THETA))


# n below the 64-row block, across it and past several 256-row products
@settings(max_examples=100, deadline=None)
@given(kernel=_STENCIL_KERNELS, rate=_COEFFICIENTS, speed=_COEFFICIENTS,
       n=st.integers(2, 600), x_min=st.floats(1e-3, 0.5),
       x_max=st.floats(2.0, 100.0), seed=st.integers(0, 2 ** 32 - 1))
@example(kernel=([], "uniform"), rate=(1.0, 1.0), speed=(1.0, 0.0), n=1024,
         x_min=0.01, x_max=40.0, seed=0)
@example(kernel=([(0.5, 2.0)], None), rate=(1.0, 0.0), speed=(1.0, 0.0),
         n=1024, x_min=0.01, x_max=40.0, seed=1)
def test_blocked_exchange_matches_its_row_sums(kernel, rate, speed, n, x_min,
                                               x_max, seed):
    # row j >= 1 of the exchange is sum_{i >= j} lattice[top + j - i] K_i
    # m_i, summed here term by term; apply must agree to 1e-13 of the sum
    # of each row's absolute terms
    model = _relative_model(*kernel, rate, speed, x_min, x_max)
    stencil = build_discrete_operator(
        model, SizeGrid.log_uniform(x_min, x_max, n)).stencil
    lattice = np.zeros(n)
    lattice[stencil.offset:stencil.offset + len(stencil.taps)] = \
        stencil.taps[::-1]
    m = _masses(seed, n)
    v = stencil.rate * m
    got = stencil.apply(m)
    for j in range(n):
        if j == 0:
            terms = np.append(stencil.head * v, stencil.drain[0] * m[0])
        else:
            terms = np.append(lattice[j:][::-1] * v[j:],
                              [stencil.out[j - 1] * m[j - 1],
                               stencil.drain[j] * m[j]])
        want = math.fsum(terms)
        assert abs(got[j] - want) <= 1e-13 * np.abs(terms).sum()


def test_grid_that_is_not_log_uniform_is_rejected():
    # interior edges moved by 1e-6 break the Toeplitz structure
    grid = SizeGrid.log_uniform(0.01, 40.0, 24)
    edges = grid.edges.copy()
    edges[1:-1] *= 1.0 + 1e-6 * np.where(np.arange(23) % 2, 1.0, -1.0)
    model = _relative_model([], "uniform", (1.0, 1.0), (1.0, 0.0), 0.01,
                            40.0)
    with pytest.raises(DomainError):
        build_discrete_operator(model, SizeGrid(edges))


@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
def test_atom_kernel_marches_on_one_tap():
    # mitosis, the CLI kernel with no density part, keeps the one tap of
    # its atom: the cell of x_top / 2.  Its march agrees with Euler steps
    # on the sparse matrix
    model = ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: 1.0, mitosis_ratio()),
        domain_hint=(0.01, 40.0))
    grid = SizeGrid.log_uniform(0.01, 40.0, 24)
    op = build_discrete_operator(model, grid)
    assert list(op.stencil.taps) == [2.0]
    assert op.stencil.offset == grid.locate(grid.centers[-1] / 2.0)
    dt = op.cfl_dt
    traj = solve(model, grid, 1.0, 20 * dt, dt=dt, operator=op)
    m = DensityState.point_mass(grid, 1.0).masses
    for _ in range(20):
        m = m + dt * (op.matrix @ m)
    assert traj.steps == 20
    assert np.allclose(traj.final.masses, m, rtol=1e-12, atol=1e-300)


# total(t) + floored_mass + outflow through x_max equals total(0) plus the
# branching integral of sum_i K_i (p((0,1)) - 1) m_i.  Mass landing below
# x_min (below_domain_mass) stays in the first cell, so it is no loss.
@pytest.mark.filterwarnings("ignore::growfrag.pde.BoundaryLeak")
@settings(max_examples=60, deadline=None)
@given(atoms=_ATOMS, density=_DENSITIES, rate=_COEFFICIENTS,
       speed=_COEFFICIENTS, n=st.integers(8, 48),
       x_min=st.floats(1e-3, 0.5), x_max=st.floats(2.0, 100.0),
       seed=st.integers(0, 2 ** 32 - 1),
       method=st.sampled_from(["euler", "heun"]))
def test_march_balances_mass(atoms, density, rate, speed, n, x_min, x_max,
                             seed, method):
    model = _relative_model(atoms, density, rate, speed, x_min, x_max)
    grid = SizeGrid.log_uniform(x_min, x_max, n)
    op = build_discrete_operator(model, grid)
    (k0, k_exp), (c0, c_exp) = rate, speed
    branching = k0 * grid.centers ** k_exp * (
        model.frag.ratio_measure.mass() - 1.0)
    outflow = np.zeros(n)
    outflow[-1] = c0 * grid.edges[-1] ** c_exp / grid.widths[-1]
    m0 = _masses(seed, n)
    # a power-of-two step makes every mark a sum of whole steps, exactly
    dt = 2.0 ** np.floor(np.log2(op.cfl_dt))
    marks = [dt * k for k in range(1, 21)]
    traj = solve(model, grid, DensityState(grid=grid, masses=m0), marks[-1],
                 dt=dt, method=method, checkpoints=marks, operator=op)
    assert traj.steps == 20
    states = [m0] + [s.masses for s in traj.states]
    gained = lost = scale = 0.0
    for m in states[:-1]:
        # the rates a step of the method integrates
        nodes = [m] if method == "euler" else [
            m, m + dt * (op.matrix @ m)]
        for node in nodes:
            w = dt / len(nodes)
            gained += w * float(branching @ node)
            lost += w * float(outflow @ node)
            scale += w * float((np.abs(branching) + outflow) @ node)
    balance = (traj.final.total_mass() + traj.floored_mass + lost
               - m0.sum() - gained)
    assert abs(balance) <= 1e-9 * (m0.sum() + scale)


# speed c0 x^g on a table over (0.1, 10): queries start below and above
# it and flow past its top, so the round trip covers extended tables
@settings(max_examples=100, deadline=None)
@given(c0=st.floats(0.1, 10.0), g=st.floats(-1.0, 0.5),
       xs=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
       ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
def test_flow_round_trip_on_power_speeds(c0, g, xs, ts):
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: c0 * x ** g),
                      0.1, 10.0)
    for x in xs:
        for t in ts:
            s_x = flow.s_of(x)
            s_end = flow.s_of(flow.flow_at(x, t))
            assert abs(s_end - (s_x + t)) <= 1e-9 * (1.0 + abs(s_x + t))


# [numerics] values: ordinary ones in most draws, so that many runs get
# past config loading and the CFL bound, plus malformed ones (nan, inf,
# signs, words, blanks, extreme magnitudes).  grid_n stays <= 256 and dt
# >= t_end / 1e4, with dt always given (the CFL default can take 1e10
# steps on a grid that reaches down to 1e-10), so that no example runs
# for more than seconds or holds more than ~1 MB of matrix
_T_END = 0.5
_MALFORMED = st.sampled_from(["", "many", "nan", "inf", "-inf", "-1", "0",
                              "1e400", "0x10", "1,5"])


def _mostly(ordinary, wild, draws=10):
    """ordinary in draws - 2 of draws, else wild or malformed."""
    return st.integers(0, draws - 1).flatmap(
        lambda k: wild if k == 0 else _MALFORMED if k == 1 else ordinary)


_NUMERICS = st.fixed_dictionaries({
    "grid_n": _mostly(st.integers(2, 64), st.integers(-3, 256)),
    "x_min": _mostly(st.floats(0.05, 0.9), st.floats(1e-300, 10.0)),
    "x_max": _mostly(st.floats(1.5, 20.0), st.floats(0.5, 1e300)),
    "dt": _mostly(st.floats(np.log10(_T_END / 1e4), -1.0).map(
        lambda e: max(10.0 ** e, _T_END / 1e4)), st.floats(_T_END / 1e4)),
    "method": _mostly(st.sampled_from(["euler", "heun"]),
                      st.sampled_from([" heun ", "Euler", "rk4"])),
})
_KERNELS = st.sampled_from([
    "kernel = uniform\nrate = linear\n",
    "kernel = mitosis\nrate = constant\n",
])


@settings(max_examples=100, deadline=None)
@given(numerics=_NUMERICS, kernel=_KERNELS,
       command=st.sampled_from(["pde", "spectral"]))
def test_numerics_config_runs_or_exits_with_a_json_error(
        tmp_path_factory, numerics, kernel, command):
    base = tmp_path_factory.getbasetemp()
    path = base / "numerics.ini"
    path.write_text(
        "[model]\ngrowth = constant\n" + kernel + "[numerics]\n"
        + "".join(f"{k} = {v}\n" for k, v in numerics.items())
        + f"[run]\nt_end = {_T_END}\nx0 = 1.0\n")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main([command, "--config", str(path),
                     "--out", str(base / "numerics-out")])
    assert code in (0, 1, 2)
    if code:
        # stderr holds the one JSON error object, which names the error
        assert "error" in json.loads(err.getvalue())


# [run] values for check, simulate and qsd, on CANONICAL (c = 1, K(x) = x,
# p(du) = 2 du) or MITOSIS (c = 1, K = 1, u = 1/2) over (0.01, 40): each
# key ordinary in 18 draws of 20, else wild or malformed, so that about a
# third of the examples run whole and exit 0.  t_end <= 1, n_paths <= 40
# and n_particles <= 130 keep every run under about a second
def _run_key(ordinary, wild):
    return _mostly(ordinary, wild, draws=20)


_RUN = st.fixed_dictionaries({
    "seed": _run_key(st.integers(0, 2 ** 32), st.integers(-5, 2 ** 70)),
    "x0": _run_key(st.floats(0.05, 20.0), st.floats(1e-320, 1e300)),
    "f": _run_key(st.sampled_from(["one", "id", "indicator:0.5:2"]),
                  st.sampled_from(["indicator:nan:inf", "indicator:2:1",
                                   "indicator:-1:0", "indicator:1",
                                   "indicator:0:1e300", "sqrt"])),
    "regime": _run_key(st.sampled_from(["pseudo-entrance", "constant"]),
                       st.sampled_from(["powerlaw", "entrance",
                                        "K-constant", "lnx", "PowerLaw",
                                        " constant "])),
    "alpha": _run_key(st.floats(1.1, 3.0), st.floats(-5.0, 50.0)),
    "beta": _run_key(st.floats(0.0, 2.0), st.floats(-5.0, 50.0)),
    "burn_in": _run_key(st.floats(0.01, 0.04), st.floats(1e-300, 10.0)),
    "t_end": _run_key(st.floats(0.05, 1.0), st.floats(1e-300, 1.0)),
    "n_paths": _run_key(st.integers(2, 40), st.integers(-3, 40)),
    "n_particles": _run_key(st.integers(2, 130), st.integers(-3, 130)),
    "checkpoints": _run_key(st.just("0.01, 0.02"), st.lists(
        st.floats(), max_size=3).map(lambda v: ", ".join(map(str, v)))),
})
_CANONICAL_RUN = "kernel = uniform\nrate = linear\n"
_MITOSIS_RUN = "kernel = mitosis\nrate = constant\n"
_RUN_MODELS = st.sampled_from([_CANONICAL_RUN, _MITOSIS_RUN])
_RUN_EXAMPLE = {"seed": 1, "x0": 1.0, "f": "id", "regime": "pseudo-entrance",
                "alpha": 2.0, "beta": 0.0, "burn_in": 0.1, "t_end": 0.5,
                "n_paths": 20, "n_particles": 40, "checkpoints": ""}


# two inputs that once exited 0 with an identically-zero functional, one
# that ended in a DomainError, not a config error naming beta, and one whose
# numpy pass flags once made check exit 2 naming no key
@settings(max_examples=100, deadline=None)
@given(run=_RUN, model=_RUN_MODELS,
       command=st.sampled_from(["check", "simulate", "qsd"]))
@example(run=dict(_RUN_EXAMPLE, f="indicator:nan:inf"),
         model=_CANONICAL_RUN, command="simulate")
@example(run=dict(_RUN_EXAMPLE, f="indicator:2:1"), model=_CANONICAL_RUN,
         command="qsd")
@example(run=dict(_RUN_EXAMPLE, regime="powerlaw", beta=-1),
         model=_CANONICAL_RUN, command="simulate")
@example(run=dict(_RUN_EXAMPLE, regime="K-constant"), model=_MITOSIS_RUN,
         command="check")
def test_run_config_runs_or_exits_with_a_json_error(tmp_path_factory, run,
                                                    model, command):
    assert set(run) == _KNOWN_KEYS["run"] - {"lambda0_estimate"}
    base = tmp_path_factory.getbasetemp()
    path = base / "run.ini"
    path.write_text(
        "[model]\ngrowth = constant\n" + model
        + "[numerics]\nx_min = 0.01\nx_max = 40.0\n[run]\n"
        + "".join(f"{k} = {v}\n" for k, v in run.items()))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main([command, "--config", str(path),
                     "--out", str(base / "run-out")])
    assert code in (0, 1, 2)
    if code == 1 and command == "check" and not err.getvalue():
        # a check that ran and failed reports on stdout
        assert json.loads(out.getvalue())["passed"] is False
    elif code:
        # stderr holds the one JSON error object; a config error names a
        # [run] key
        payload = json.loads(err.getvalue())
        assert "error" in payload
        if code == 2:
            assert payload["key"] in _KNOWN_KEYS["run"]
