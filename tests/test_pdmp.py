"""Jump-process simulation: thinning, child sampling, semigroup MC."""

import csv
import dataclasses

import numpy as np
import pytest
from scipy.stats import kstest

from growfrag.errors import DomainError
from growfrag.flow import FlowEngine
from growfrag.lyapunov import build_h_pseudo_entrance, verify_assumption1
from growfrag.model import constant_weight, identity_weight
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

from conftest import make_canonical, make_conserving_linear, make_mitosis


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
