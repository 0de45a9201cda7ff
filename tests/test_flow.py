"""Deterministic growth flow: scale function, inversion, transport."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from growfrag import flow as flow_module
from growfrag.errors import DomainError
from growfrag.flow import FlowEngine, HermiteTable
from growfrag.model import GrowthSpec


def test_scale_exponential_growth():
    # c(x) = x: s(x) = ln x, so s(e) = 1
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: x), 1e-3, 1e3)
    assert flow.s_of(np.e) == pytest.approx(1.0, abs=1e-10)
    assert flow.s_of(1.0) == pytest.approx(0.0, abs=1e-12)


def test_scale_unit_speed():
    # c == 1: s(x) = x - 1, so s(5) = 4
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: 1.0), 1e-3, 1e3)
    assert flow.s_of(5.0) == pytest.approx(4.0, abs=1e-10)


def test_scale_with_square_root_kink():
    # c(x) = sqrt(|x - 1|): s(2) = int_1^2 dy/sqrt(y-1) = 2, and
    # s(x) = sign(x - 1) 2 |x - 1|^0.5; on Python floats c is exactly 0 at
    # the kink, where 1/c is an integrable singularity
    for speed in (lambda x: np.sqrt(abs(x - 1.0)),
                  lambda x: abs(x - 1.0) ** 0.5):
        flow = FlowEngine(GrowthSpec.from_speed(speed, kinks=(1.0,)),
                          1e-3, 1e3)
        assert flow.s_of(2.0) == pytest.approx(2.0, abs=1e-8)
        for x in (0.25, 0.9, 1.1, 5.0):
            exact = math.copysign(2.0 * abs(x - 1.0) ** 0.5, x - 1.0)
            assert flow.s_of(x) == pytest.approx(exact, rel=1e-8)


def test_flow_through_degenerate_point():
    # x' = sqrt(x - 1), x(0) = 1 (degenerate): x(t) = 1 + t^2/4
    growth = GrowthSpec.from_speed(lambda x: np.sqrt(abs(x - 1.0)),
                                   kinks=(1.0,))
    flow = FlowEngine(growth, 1e-3, 1e3)
    for t in (0.5, 1.0, 2.0):
        assert flow.flow_at(1.0, t) == pytest.approx(1.0 + t * t / 4.0,
                                                     rel=1e-6)


SMOOTH_SPEEDS = [lambda x: 1.0, math.sqrt, lambda x: x,
                 lambda x: 1.0 + x * x, lambda x: x ** 3,
                 lambda x: x / (1.0 + x), lambda x: 1.0 / x]


def test_lobatto_panels_agree_with_quad(monkeypatch):
    # 7 x 1440 lattice panels on (0.0056, 178): the Lobatto rule accepts
    # every one, within 1e-14 relative of the quad of _panel_integral
    integral = flow_module._panel_integral
    fallbacks = []
    monkeypatch.setattr(flow_module, "_panel_integral",
                        lambda c, a, b: fallbacks.append((a, b)) or math.nan)
    worst = 0.0
    for c in SMOOTH_SPEEDS:
        for k in range(-720, 720):
            a, b = flow_module._lattice(k), flow_module._lattice(k + 1)
            got = flow_module._panel(c, a, b, 1.0 / c(a), 1.0 / c(b))
            want = integral(c, a, b)
            worst = max(worst, abs(got - want) / want)
    assert fallbacks == []
    assert worst <= 1e-14


def test_panel_falls_back_to_quad_at_a_jump_or_a_zero_of_the_speed(
        monkeypatch):
    integral = flow_module._panel_integral
    fallbacks = []

    def counted(c, a, b):
        fallbacks.append((a, b))
        return integral(c, a, b)

    monkeypatch.setattr(flow_module, "_panel_integral", counted)
    # c jumps from 1 to 3 at the kink 2, where it is read from the right
    step = lambda x: 1.0 if x < 2.0 else 3.0
    a = 2.0 - 1e-3
    got = flow_module._panel(step, a, 2.0, 1.0, 1.0 / 3.0)
    assert got == pytest.approx(2.0 - a, rel=1e-12)
    # c = |x - 1|^0.5 on Python floats is exactly 0 at the kink 1
    root = lambda x: abs(x - 1.0) ** 0.5
    b = 1.0 + 1e-3
    got = flow_module._panel(root, 1.0, b, math.inf, 1.0 / root(b))
    assert got == pytest.approx(2.0 * (b - 1.0) ** 0.5, rel=1e-8)
    assert fallbacks == [(a, 2.0), (1.0, b)]


def test_flow_scale_identity_on_lattice():
    # s(phi(x, t)) = s(x) + t on a 64 x 64 lattice, to 1e-10
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: np.sqrt(x)),
                      1e-3, 1e3)
    xs = np.geomspace(1e-2, 1e2, 64)
    ts = np.linspace(1e-3, 5.0, 64)
    worst = 0.0
    for x in xs:
        sx = flow.s_of(x)
        for t in ts:
            err = abs(flow.s_of(flow.flow_at(x, t)) - sx - t)
            worst = max(worst, err)
    assert worst <= 1e-10


def test_flow_semigroup_property():
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: x / (1.0 + x)),
                      1e-3, 1e3)
    for x in (0.05, 1.0, 20.0):
        for s, t in ((0.3, 0.7), (1.0, 2.0)):
            two_step = flow.flow_at(flow.flow_at(x, s), t)
            one_step = flow.flow_at(x, s + t)
            assert two_step == pytest.approx(one_step,
                                             rel=1e-9, abs=1e-12)


def test_widening_the_scale_table_keeps_its_bits():
    # queries past either end widen the table by appending panels: every
    # node, value and Hermite coefficient already in it keeps its bits,
    # so s and the flow agree with a table built wide from the start
    growth = GrowthSpec.from_speed(np.sqrt)
    flow = FlowEngine(growth, 1e-2, 3.0)
    xs = [float(x) for x in np.geomspace(1e-2, 3.0, 200)]
    s_before = [flow.s_of(x) for x in xs]
    before = flow.flow_at(2.0, 0.1)
    nodes, coef = list(flow._xs), list(flow._fwd._c3)
    flow.flow_at(2.0, 5.0)
    flow.s_of(1e-4)
    lo = flow._xs.index(nodes[0])
    assert flow._xs[lo:lo + len(nodes)] == nodes
    assert list(flow._fwd._c3)[lo:lo + len(coef)] == coef
    assert [flow.s_of(x) for x in xs] == s_before
    wide = FlowEngine(growth, 1e-5, 24.0)
    assert [wide.s_of(x) for x in xs] == s_before
    assert flow.flow_at(2.0, 0.1) == wide.flow_at(2.0, 0.1) == before


def test_flow_monotone_in_x_and_t():
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: np.sqrt(x)),
                      1e-3, 1e3)
    xs = np.geomspace(0.01, 50.0, 30)
    vals = np.array([flow.flow_at(x, 1.0) for x in xs])
    assert np.all(np.diff(vals) > 0)
    ts = np.linspace(0.0, 3.0, 30)
    vals_t = np.array([flow.flow_at(1.0, t) for t in ts])
    assert np.all(np.diff(vals_t) > 0)


def test_lower_scale_limit():
    # c(x) = x diverges in scale at zero; c == 1 reaches zero at s = -1
    flow_exp = FlowEngine(GrowthSpec.from_speed(lambda x: x), 1e-3, 1e3)
    assert not np.isfinite(flow_exp.s_lower_limit())
    flow_lin = FlowEngine(GrowthSpec.from_speed(lambda x: 1.0), 1e-3, 1e3)
    assert flow_lin.s_lower_limit() == pytest.approx(-1.0, abs=1e-3)


def test_flow_rejects_nonpositive_start():
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: 1.0), 1e-3, 1e3)
    with pytest.raises(DomainError):
        flow.flow_at(0.0, 1.0)


def _table_queries(knots, rng):
    lo, hi = knots[0], knots[-1]
    span = hi - lo
    beyond = span * np.exp(rng.uniform(np.log(1e-12), np.log(1e3), 2000))
    queries = [rng.uniform(lo, hi, 20000), knots,
               np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
               lo - beyond, hi + beyond]
    if lo > 0.0:
        queries.append(np.exp(rng.uniform(np.log(lo), np.log(hi), 20000)))
    return np.concatenate(queries + [[np.nan]])


@pytest.mark.parametrize("speed", [lambda x: 1.0, lambda x: np.sqrt(x),
                                   lambda x: x / (1.0 + x)],
                         ids=["unit", "sqrt", "saturating"])
def test_hermite_table_returns_scipy_bits(speed):
    # the same knots, values and slopes a scale table is built from; any
    # change of scipy's interval search or summation order fails here
    knots = np.unique(np.append(np.geomspace(1e-3, 1e3, 1920), 1.0))
    slopes = np.array([1.0 / speed(x) for x in knots])
    mids = 0.5 * (knots[:-1] + knots[1:])
    panels = np.diff(knots) / np.array([speed(x) for x in mids])
    values = np.concatenate([[0.0], np.cumsum(panels)])
    spline = CubicHermiteSpline(knots, values, slopes)
    inverse = CubicHermiteSpline(values, knots, 1.0 / slopes)
    rng = np.random.default_rng(7)
    for ppoly in (spline, spline.derivative(), inverse):
        table = HermiteTable(ppoly)
        queries = _table_queries(ppoly.x, rng)
        got = np.array([table(float(q)) for q in queries])
        want = ppoly(queries)
        assert np.isnan(got[-1]) and np.isnan(want[-1])
        assert got[:-1].tobytes() == want[:-1].tobytes()


def test_hermite_table_rejects_other_degrees():
    line = CubicHermiteSpline([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        HermiteTable(line.derivative(2))
