"""Jump-process simulation: thinning, child sampling, semigroup MC."""

import csv
import dataclasses

import numpy as np
import pytest
from scipy.stats import kstest

from growfrag import pdmp
from growfrag.errors import DomainError
from growfrag.flow import FlowEngine
from growfrag.lyapunov import build_h_pseudo_entrance, verify_assumption1
from growfrag.model import (FragmentationKernel, GrowthSpec, ModelSpec,
                            constant_weight, generator_apply, identity_weight,
                            power_ratio, uniform_ratio)
from growfrag.pdmp import (
    CEMETERY,
    NO_JUMP,
    PdmpState,
    TiltedJumpLaw,
    make_rng,
    mc_semigroup,
    next_jump_time,
    post_jump_sample,
    simulate_path,
)

from conftest import (DOMAIN, make_canonical, make_conserving_linear,
                      make_mitosis)


def _law(model, h=None, b=1.0):
    flow = FlowEngine(model.growth, *model.domain_hint)
    if h is None:
        h = constant_weight(1.0)
    return TiltedJumpLaw(model, h, b, flow)


# -- random streams --------------------------------------------------------

def test_make_rng_reproducible_and_stream_independent():
    a = make_rng(42, 7).random(5)
    b = make_rng(42, 7).random(5)
    c = make_rng(42, 8).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- waiting times ----------------------------------------------------------

def test_constant_rate_waiting_time_mean():
    # mitosis with h == 1, b = 1: total jump rate r == 2 everywhere
    law = _law(make_mitosis(), b=1.0)
    n = 20_000
    draws = np.empty(n)
    for i in range(n):
        state = PdmpState.fresh(1.0, seed=3, stream_id=i)
        tau = next_jump_time(state, law, 50.0)
        assert tau is not NO_JUMP
        draws[i] = tau
    mean = draws.mean()
    sigma = draws.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 0.5) <= 3.0 * sigma


def test_zero_rate_never_jumps():
    # b = 0 and h == 1 on a rate-0 kernel leaves r == 0: no jump ever
    import growfrag.model as gm
    model = gm.ModelSpec(
        growth=gm.GrowthSpec.from_speed(lambda x: 1.0),
        frag=gm.FragmentationKernel.relative(lambda x: 0.0,
                                             gm.uniform_ratio()))
    law = _law(model, b=0.0)
    state = PdmpState.fresh(1.0)
    assert next_jump_time(state, law, 100.0) is NO_JUMP


def test_inhomogeneous_waiting_time_distribution():
    # unit speed from x0 = 1 with r(x) = x gives rate 1 + u along the
    # flow, so P(tau > t) = exp(-t - t^2/2)
    law = _law(make_canonical(), b=0.0)
    n = 2000
    draws = np.empty(n)
    for i in range(n):
        state = PdmpState.fresh(1.0, seed=9, stream_id=i)
        tau = next_jump_time(state, law, 30.0)
        assert tau is not NO_JUMP
        draws[i] = tau
    cdf = lambda t: 1.0 - np.exp(-t - 0.5 * t * t)  # noqa: E731
    assert kstest(draws, cdf).pvalue > 0.01


def _reference_jump_time(state, law, horizon):
    """next_jump_time before its scan was trimmed, for a growth without
    kinks: np.linspace arcs, and s(x) and r read afresh at every point."""
    x, rng, flow = state.position, state.rng, law.flow

    def rate(t):
        flow._s_memo = (np.nan, -1, 0.0)   # forget s(x)
        return law.r(flow.flow_at(x, t))

    breaks = np.linspace(0.0, horizon, 17)
    for t0, t1 in zip(breaks[:-1], breaks[1:]):
        arc = np.linspace(t0, t1, pdmp._ARC_SAMPLES)
        r_bar = pdmp._MAJORANT_SAFETY * max(rate(u) for u in arc)
        while r_bar > 0.0:
            t, violated = t0, False
            while True:
                t += rng.standard_exponential() / r_bar
                if t >= t1:
                    break
                r_t = rate(t)
                if r_t > r_bar:
                    r_bar, violated = 2.0 * max(r_bar, r_t), True
                    break
                if rng.random() * r_bar <= r_t:
                    return t
            if not violated:
                break
    return NO_JUMP


def test_jump_time_across_a_scale_table_rebuild_matches_a_fresh_scan():
    # the flow from just below the scale table's upper end 3 leaves the
    # table, and the wider table built then moves s(x) (a curved s: a
    # linear one is exact on every table).  From 2.905 the first window's
    # end point leaves it, so the next window must read its start rate
    # afresh; from 2.99 an inner arc point does.  A rate that falls along
    # the flow makes each window's start rate its max.
    model = ModelSpec(growth=GrowthSpec.from_speed(np.sqrt),
                      frag=FragmentationKernel.relative(
                          lambda x: 1.0 / x, uniform_ratio()),
                      domain_hint=DOMAIN, irreducible=True)
    for x0 in (2.905, 2.99):
        for stream in range(10):
            laws = [TiltedJumpLaw(model, constant_weight(1.0), 1.0,
                                  FlowEngine(model.growth, 1e-2, 3.0))
                    for _ in range(2)]
            states = [PdmpState.fresh(x0, seed=4, stream_id=stream)
                      for _ in range(2)]
            builds = laws[0].flow.builds
            got = next_jump_time(states[0], laws[0], 1.0)
            assert laws[0].flow.builds > builds
            assert got == _reference_jump_time(states[1], laws[1], 1.0)
            assert states[0].rng.random() == states[1].rng.random()


# -- post-jump sampling ------------------------------------------------------

def test_mitosis_child_is_half():
    law = _law(make_mitosis(), b=1.0)
    for i in range(20):
        state = PdmpState.fresh(3.0, seed=1, stream_id=i)
        child = post_jump_sample(state, law)
        assert child == pytest.approx(1.5, rel=1e-12)


def test_untilted_child_ratio_is_uniform():
    # h == 1: children of the uniform repartition are uniform on (0, x)
    model = make_conserving_linear()   # K == 1: b = 1 gives q == 0
    law = _law(model, b=1.0)
    draws = []
    for i in range(3000):
        state = PdmpState.fresh(1.0, seed=4, stream_id=i)
        child = post_jump_sample(state, law)
        assert child is not CEMETERY
        draws.append(child)
    assert kstest(np.array(draws), lambda u: np.clip(u, 0, 1)).pvalue > 0.01


def test_identity_tilted_child_ratio():
    # h = id tilts the uniform child ratio to density 2u (CDF u^2)
    model = make_conserving_linear()
    flow = FlowEngine(model.growth, *model.domain_hint)
    law = _law(model, h=identity_weight(flow), b=1.0)
    draws = []
    for i in range(3000):
        state = PdmpState.fresh(1.0, seed=8, stream_id=i)
        child = post_jump_sample(state, law)
        assert child is not CEMETERY
        draws.append(child)
    assert kstest(np.array(draws),
                  lambda u: np.clip(u, 0, 1) ** 2).pvalue > 0.01


def test_post_jump_sample_evaluates_h_at_x_at_most_three_times():
    # kh_mass, sup_tilt_ratio and the child draw each build one tilt
    # y -> h(y)/h(x); none re-evaluates h(x) per quadrature node or draw
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    at = []

    def log_value(y):
        at.append(y)
        return h.log_value(y)

    law = _law(model, h=dataclasses.replace(h, log_value=log_value),
               b=verify_assumption1(model, h).b)
    for stream, x in enumerate((0.5, 1.5, 3.0)):
        at.clear()
        post_jump_sample(PdmpState.fresh(x, seed=7, stream_id=stream), law)
        assert at.count(x) <= 3


# -- the k_h table behind the kill test ----------------------------------------

def _power_model():
    """CANONICAL with the singular ratio density p(du) = 1.5 u^-0.5 du."""
    model = make_canonical()
    return ModelSpec(growth=model.growth,
                     frag=FragmentationKernel.relative(
                         model.frag.rate, power_ratio(-0.5),
                         mass_conserving=True),
                     domain_hint=DOMAIN, irreducible=True)


def _tilted_law(model):
    h = build_h_pseudo_entrance(model, 2.0)
    return TiltedJumpLaw(model, h, verify_assumption1(model, h).b)


@pytest.fixture(scope="module", params=["canonical", "power", "mitosis"])
def exact_masses(request):
    """(model, x, kh_mass(x)) at 2000 seeded log-uniform points of the
    domain, 20 points within 1e-9 of the kink of h at x = 1, and sweeps
    on both sides of x = 1 and x = 2.  There the kink of the integrand at
    u = 1/x nears an end or the midpoint of (0, 1) and kh_mass is least
    accurate; for mitosis, k_h itself kinks at x = 2, where h(x/2) does."""
    model = {"canonical": make_canonical, "power": _power_model,
             "mitosis": make_mitosis}[request.param]()
    rng = np.random.default_rng(2024)
    xs = np.exp(rng.uniform(np.log(DOMAIN[0]), np.log(DOMAIN[1]), 2000))
    near = [1.0 + sign * k * 1e-10 for k in range(1, 11) for sign in (-1, 1)]
    sweep = [c * (1.0 + sign * d) for c in (1.0, 2.0) for sign in (-1, 1)
             for d in np.geomspace(1e-6, 0.05, 50)]
    xs = [float(x) for x in xs] + near + [float(x) for x in sweep]
    law = _tilted_law(model)
    return model, xs, [law.kh_mass(x) for x in xs]


def _outside_band(law, xs, masses):
    brackets = [law.kh_bracket(x) for x in xs]
    return [x for x, (lo, hi), val in zip(xs, brackets, masses)
            if not lo <= val <= hi]


def test_kh_band_contains_the_exact_mass(exact_masses):
    model, xs, masses = exact_masses
    law = _tilted_law(model)
    assert _outside_band(law, xs, masses) == []
    # every panel the points visit has a band: no exact mass was needed
    assert law.kh_exact_calls == 0
    # k_h is smooth inside each piece, so no band is wide
    assert law.work_counters()["kh_max_eps"] < 1e-2


def test_kh_band_below_its_measured_error_fails(exact_masses, monkeypatch):
    # the containment check has the power to see a band that is too narrow
    model, xs, masses = exact_masses
    monkeypatch.setattr(pdmp, "_KH_SAFETY", pdmp._KH_SAFETY / 1000.0)
    monkeypatch.setattr(pdmp, "_KH_FLOOR", pdmp._KH_FLOOR / 1000.0)
    assert _outside_band(_tilted_law(model), xs, masses) != []


def test_kh_table_does_not_depend_on_panel_order():
    model = make_canonical()
    xs = [float(x) for x in np.geomspace(0.02, 30.0, 50)] + [1.0 - 1e-12]
    forward, backward = _tilted_law(model), _tilted_law(model)
    for x in xs:
        forward.kh_bracket(x)
    for x in reversed(xs):
        backward.kh_bracket(x)
    assert [forward.kh_bracket(x) for x in xs] == \
        [backward.kh_bracket(x) for x in xs]
    assert forward.work_counters() == backward.work_counters()


def test_panel_with_an_unusable_node_defers_to_the_exact_mass():
    class FailingAbove2(TiltedJumpLaw):
        def kh_mass(self, x):
            if x >= 2.0:
                raise DomainError("tilted kernel mass diverges")
            return super().kh_mass(x)

    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    law = FailingAbove2(model, h, 10.0)
    # panel [10^(9/32), 10^(10/32)] = [1.91, 2.05] has nodes above 2
    val = TiltedJumpLaw.kh_mass(law, 1.95)
    assert law.kh_bracket(1.95) == (val, val)
    assert law.kh_exact_calls == 1
    # a vanishing mass has no logarithm: K = 0 gives k_h = 0 everywhere
    ratio = model.frag.ratio_measure
    zero = ModelSpec(growth=model.growth,
                     frag=FragmentationKernel.relative(lambda x: 0.0, ratio),
                     domain_hint=DOMAIN)
    law = TiltedJumpLaw(zero, constant_weight(1.0), 1.0)
    assert law.kh_bracket(0.5) == (0.0, 0.0)
    assert law.work_counters()["kh_max_eps"] == 0.0


def test_b_below_sup_generator_ratio_raises_under_the_squeeze():
    # at the argmax of A h/h, b below the sup makes q negative: the band
    # cannot rule that out, so the exact mass decides and the check raises
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    probes = [float(x) for x in model.probe_grid()]
    ratios = [generator_apply(model, h, x) / h(x) for x in probes]
    x_star = probes[int(np.argmax(ratios))]
    for gap in (1e-6, 0.5):
        law = TiltedJumpLaw(model, h, max(ratios) - gap)
        law.kh_bracket(x_star)   # the panel of x_star is built
        with pytest.raises(DomainError, match="negative killing rate"):
            post_jump_sample(PdmpState.fresh(x_star, seed=1), law)
        assert law.kh_exact_calls == 1
    law = TiltedJumpLaw(model, h, verify_assumption1(model, h).b)
    post_jump_sample(PdmpState.fresh(x_star, seed=1), law)


def test_kill_test_rarely_needs_the_exact_mass(monkeypatch):
    # CANONICAL simulate of the CLI tests: 60 paths to t = 0.5 from x0 = 1
    calls = []
    exact = TiltedJumpLaw.kh_mass

    def counted(self, x):
        calls.append(x)
        return exact(self, x)

    monkeypatch.setattr(TiltedJumpLaw, "kh_mass", counted)
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    law = TiltedJumpLaw(model, h, verify_assumption1(model, h).b)
    assert calls == []
    outcomes = []
    sample = pdmp.post_jump_sample

    def recorded(state, law):
        outcomes.append(sample(state, law))
        return outcomes[-1]

    monkeypatch.setattr(pdmp, "post_jump_sample", recorded)
    mc_semigroup(model, law, lambda y: y, 1.0, 0.5, n_paths=60, seed=11)
    work = law.work_counters()
    kills = sum(1 for c in outcomes if c is CEMETERY)
    assert (work["jumps"], work["kills"]) == (len(outcomes) - kills, kills)
    # a panel costs at most six masses (two edges, four inner nodes); the
    # rest are kill tests that the band left open
    assert len(calls) - work["kh_exact_calls"] <= 6 * work["kh_panels"]
    assert work["kh_exact_calls"] <= 0.25 * len(outcomes)


# -- whole paths --------------------------------------------------------------

def test_jump_count_is_poisson():
    # mitosis, h == 1, b = 1: jumps arrive at constant rate 2, so the
    # count over [0, 10] is Poisson with mean 20
    law = _law(make_mitosis(), b=1.0)
    model = make_mitosis()
    n = 400
    counts = np.empty(n)
    for i in range(n):
        trace = simulate_path(model, law, 1.0, 10.0, seed=6, stream_id=i)
        counts[i] = sum(1 for _, _, ev in trace.points if ev == "jump")
    mean = counts.mean()
    assert abs(mean - 20.0) <= 3.0 * np.sqrt(20.0 / n)
    ratio = counts.var(ddof=1) / mean
    assert 0.75 <= ratio <= 1.25


def test_path_support_bound():
    # fragmentation only shrinks: X_t <= flow(x0, t) pathwise
    model = make_conserving_linear()
    flow = FlowEngine(model.growth, *model.domain_hint)
    law = TiltedJumpLaw(model, identity_weight(flow), 1.0, flow)
    bound = flow.flow_at(1.0, 2.0)
    for i in range(200):
        trace = simulate_path(model, law, 1.0, 2.0, seed=2, stream_id=i)
        assert trace.alive
        assert trace.endpoint <= bound + 1e-9
        for _, pos, ev in trace.points:
            if ev != "kill":
                assert pos <= bound + 1e-9


def test_path_trace_csv(tmp_path):
    model = make_mitosis()
    law = _law(model, b=1.0)
    trace = simulate_path(model, law, 1.0, 2.0, seed=0, stream_id=0)
    out = tmp_path / "path.csv"
    trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,event"
    assert len(lines) == len(trace.points) + 1


def test_path_trace_csv_holds_plain_numbers(tmp_path):
    # b = 1.3 adds killing at rate 0.3, so kill rows (empty x) appear too
    model = make_mitosis()
    law = _law(model, b=1.3)
    events = set()
    for i in range(10):
        trace = simulate_path(model, law, 1.0, 3.0, seed=1, stream_id=i)
        out = tmp_path / f"path{i}.csv"
        trace.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace.points)
        for row, (t, pos, event) in zip(rows, trace.points):
            assert float(row["t"]) == t
            assert row["event"] == event
            if event == "kill":
                assert row["x"] == ""
            else:
                assert float(row["x"]) == pos
            events.add(event)
    assert events == {"jump", "kill", "end"}


def test_simulate_path_rejects_bad_start():
    model = make_mitosis()
    law = _law(model, b=1.0)
    with pytest.raises(DomainError):
        simulate_path(model, law, 0.0, 1.0)


# -- semigroup Monte Carlo -----------------------------------------------------

def test_semigroup_identity_number_growth():
    # mitosis, h == 1, b = 1: killing vanishes and f/h == 1, so the
    # estimator equals e^t with zero variance
    model = make_mitosis()
    law = _law(model, b=1.0)
    for t in (0.5, 1.0, 2.0):
        est, se, _ = mc_semigroup(model, law, lambda y: 1.0, 1.0, t,
                                  n_paths=64, seed=5)
        assert est == pytest.approx(np.exp(t), rel=1e-12)
        assert se == 0.0


def test_semigroup_identity_mass_growth():
    # speed x with a mean-conserving kernel and h = id: the estimator
    # equals x0 e^t with zero variance
    model = make_conserving_linear()
    flow = FlowEngine(model.growth, *model.domain_hint)
    law = TiltedJumpLaw(model, identity_weight(flow), 1.0, flow)
    for t in (0.5, 1.0, 2.0):
        est, se, _ = mc_semigroup(model, law, lambda y: y, 1.0, t,
                                  n_paths=64, seed=5)
        assert est == pytest.approx(np.exp(t), rel=1e-12)
        assert se == 0.0


def test_semigroup_estimate_independent_of_weight():
    # the same quantity estimated under two different tiltings
    model = make_conserving_linear()
    flow = FlowEngine(model.growth, *model.domain_hint)
    exact_law = TiltedJumpLaw(model, identity_weight(flow), 1.0, flow)
    flat_law = TiltedJumpLaw(model, constant_weight(1.0), 1.0, flow)
    est_a, se_a, _ = mc_semigroup(model, exact_law, lambda y: y, 1.0, 1.0,
                                  n_paths=64, seed=7)
    est_b, se_b, _ = mc_semigroup(model, flat_law, lambda y: y, 1.0, 1.0,
                                  n_paths=600, seed=7)
    combined = np.hypot(se_a, se_b)
    assert abs(est_a - est_b) <= 3.0 * combined


def test_semigroup_bitwise_reproducible():
    model = make_mitosis()
    law = _law(model, b=1.0)
    a = mc_semigroup(model, law, lambda y: y, 1.0, 1.0, n_paths=50, seed=13)
    b = mc_semigroup(model, law, lambda y: y, 1.0, 1.0, n_paths=50, seed=13)
    assert a == b
    # the returned trace is path 0's, so callers need not simulate it again
    assert a[2] == simulate_path(model, law, 1.0, 1.0, seed=13, stream_id=0)
