"""Deterministic growth flow: scale function, inversion, transport."""

import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from growfrag import flow as flow_module
from growfrag.errors import DomainError
from growfrag.flow import FlowEngine
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
    nodes, coef = list(flow._xs), list(flow._c3)
    flow.flow_at(2.0, 5.0)
    flow.s_of(1e-4)
    lo = flow._xs.index(nodes[0])
    assert flow._xs[lo:lo + len(nodes)] == nodes
    assert flow._c3[lo:lo + len(coef)] == coef
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


# speeds with a node where 1/c is infinite (the root at its kink 1) or
# jumps (the step at its kink 2), where the node slope is the secant
KINKED_SPEEDS = {
    "root": (lambda x: abs(x - 1.0) ** 0.5, (1.0,)),
    "step": (lambda x: 1.0 if x < 2.0 else 3.0, (2.0,)),
}


@pytest.mark.parametrize("speed, kinks", [
    (lambda x: 1.0, ()), (lambda x: x / (1.0 + x), ()),
    KINKED_SPEEDS["root"]], ids=["unit", "saturating", "root"])
def test_scale_returns_the_bits_of_scipys_hermite_spline(speed, kinks):
    # the table's own pieces against scipy's spline through its nodes and
    # values, with slope 1/c, or the secant of the neighbouring nodes where
    # 1/c is negative, NaN or above 1e300; any change of the piece
    # arithmetic, the interval search or the summation order fails here
    flow = FlowEngine(GrowthSpec.from_speed(speed, kinks=kinks), 1e-3, 1e3)
    knots, values = np.array(flow._xs), np.array(flow._svals)
    with np.errstate(divide="ignore"):
        slopes = 1.0 / np.array([speed(x) for x in knots])
    bad = np.flatnonzero(~((slopes >= 0.0) & (slopes < 1e300)))
    assert bool(len(bad)) == bool(kinks)   # c = 0 at the root's kink
    for i in bad:
        lo, hi = max(i - 1, 0), min(i + 1, len(knots) - 1)
        slopes[i] = (values[hi] - values[lo]) / (knots[hi] - knots[lo])
    spline = CubicHermiteSpline(knots, values, slopes)
    rng = np.random.default_rng(7)
    queries = np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        rng.uniform(knots[0], knots[-1], 20000),
        np.exp(rng.uniform(np.log(knots[0]), np.log(knots[-1]), 20000))])
    queries = queries[(knots[0] <= queries) & (queries <= knots[-1])]
    got = np.array([flow.s_of(float(q)) for q in queries])
    assert len(flow._xs) == len(knots)   # no query widened the table
    assert got.tobytes() == spline(queries).tobytes()


@pytest.mark.parametrize("name", sorted(KINKED_SPEEDS))
def test_flow_round_trip_next_to_nodes_and_kinks(name):
    # s(phi(x, t)) - s(x) - t within the inversion tolerance, from and to
    # the nodes of the kink cluster and their floating-point neighbours
    speed, kinks = KINKED_SPEEDS[name]
    flow = FlowEngine(GrowthSpec.from_speed(speed, kinks=kinks), 1e-3, 1e3)
    kink = kinks[0]
    near = [x for x in flow._xs if abs(x - kink) < 0.1]
    starts = sorted({y for x in near[::7] for y in (
        x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))})
    s_near = [flow.s_of(x) for x in near]
    worst = 0.0
    for x in starts:
        s_x = flow.s_of(x)
        # durations to every 11th node of the cluster above x, then a few
        # that end between nodes
        ts = [s - s_x for s in s_near[::11] if s > s_x] + [1e-9, 1e-4, 0.3]
        for t in ts:
            worst = max(worst, abs(flow.s_of(flow.flow_at(x, t)) - s_x - t))
    assert worst <= flow_module._INV_TOL


def test_scale_and_flow_never_return_nan_or_inf():
    # below about 1e-300 the pieces of c = 1 are so narrow that their cubic
    # coefficient overflows: s and the flow raise naming x, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = FlowEngine(GrowthSpec.from_speed(lambda x: 1.0), 1e-3, 1e3)
        with pytest.raises(DomainError, match="x=1e-300"):
            flow.s_of(1e-300)
        with pytest.raises(DomainError, match="x=1e-300"):
            flow.flow_at(1e-300, 1.0)
        # flat in floating point there, but finite
        assert flow.s_of(1e-30) == pytest.approx(-1.0, abs=1e-14)
        assert flow.flow_at(1e-30, 1.5) == pytest.approx(1.5, abs=1e-12)
    # c is infinite from 2 on, so s is flat there: the flow to s(10) from
    # 1 lands on the flat top piece, which the scale cannot invert
        # the array reads raise as the scalar reads do
        with pytest.raises(DomainError, match="x=1e-300"):
            flow.s_of_array([2.0, 1e-300])
        with pytest.raises(DomainError, match="x=1e-300"):
            flow.flow_at_array([2.0, 1e-300], 1.0)
    flat = FlowEngine(GrowthSpec.from_speed(
        lambda x: 1.0 if x < 2.0 else math.inf, kinks=(2.0,)), 0.5, 10.0)
    with pytest.raises(DomainError, match="x=1 lands on the flat"):
        flat.flow_at(1.0, flat.s_of(10.0))
    with pytest.raises(DomainError, match="x=1 lands on the flat"):
        flat.flow_at_array([1.5, 1.0], [0.1, flat.s_of(10.0)])


# the canonical growth c = 1, its pseudo-entrance G table (the scale of
# c/K = 1/x), and the two kinked speeds
ARRAY_TABLES = {"canonical": (lambda x: 1.0, ()),
                "pseudo-entrance G": (lambda x: 1.0 / x, ()),
                **KINKED_SPEEDS}


@pytest.mark.parametrize("name", sorted(ARRAY_TABLES))
def test_array_reads_return_the_scalar_bits(name):
    # s_of_array and flow_at_array against s_of and flow_at, each on a
    # fresh table: at every node, both its floating-point neighbours and
    # 10^4 log-uniform points, for durations 0, 1e-300, log-uniform ones
    # and ones whose flow leaves the table, which both reads widen
    speed, kinks = ARRAY_TABLES[name]
    growth = GrowthSpec.from_speed(speed, kinks=kinks)
    nodes = np.array(FlowEngine(growth, 1e-2, 40.0)._xs)
    rng = np.random.default_rng(21)
    xs = np.concatenate([
        nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, np.inf),
        np.exp(rng.uniform(np.log(1e-2), np.log(40.0), 10_000))])
    ts = np.exp(rng.uniform(np.log(1e-9), np.log(5.0), len(xs)))
    # s(400) - s(1) carries every start past 100
    ts[::5], ts[1::5] = 0.0, 1e-300
    ts[2::97] = FlowEngine(growth, 1.0, 400.0).s_of(400.0)
    arrays, scalars = FlowEngine(growth, 1e-2, 40.0), \
        FlowEngine(growth, 1e-2, 40.0)
    got = arrays.s_of_array(xs)
    assert got.tobytes() == np.array(
        [scalars.s_of(float(x)) for x in xs]).tobytes()
    top = arrays._xs[-1]
    got = arrays.flow_at_array(xs, ts)
    assert arrays._xs[-1] > top   # the long durations widened the table
    assert got.tobytes() == np.array(
        [scalars.flow_at(float(x), float(t)) for x, t in zip(xs, ts)]
    ).tobytes()
    # one x against many t keeps the broadcast shape
    assert arrays.flow_at_array(2.0, ts[:7].reshape(1, 7)).tobytes() == \
        np.array([[scalars.flow_at(2.0, float(t)) for t in ts[:7]]]).tobytes()


@pytest.mark.parametrize("x, t", [(0.0, 1.0), (-2.0, 0.0), (1.0, -1e-300)])
def test_array_flow_rejects_what_the_scalar_flow_rejects(x, t):
    flow = FlowEngine(GrowthSpec.from_speed(lambda x: 1.0), 1e-3, 1e3)
    with pytest.raises(DomainError) as scalar:
        flow.flow_at(x, t)
    with pytest.raises(DomainError) as array:
        flow.flow_at_array([1.0, x], [0.5, t])
    assert str(array.value) == str(scalar.value)
    if x <= 0.0:
        with pytest.raises(DomainError) as scalar:
            flow.s_of(x)
        with pytest.raises(DomainError) as array:
            flow.s_of_array([1.0, x])
        assert str(array.value) == str(scalar.value)
