"""Jump-process simulation: thinning, child sampling, semigroup MC."""

import csv
import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest

from growfrag import flow as flow_module
from growfrag import lyapunov, pdmp
from growfrag.errors import DomainError
from growfrag.flow import FlowEngine
from growfrag.lyapunov import build_h_pseudo_entrance, verify_assumption1
from growfrag.model import (FragmentationKernel, GrowthSpec, ModelSpec,
                            WeightFunction, constant_weight, identity_weight,
                            power_ratio, tilted_generator, uniform_ratio)
from growfrag.pdmp import (
    CEMETERY,
    NO_JUMP,
    PdmpState,
    TiltedJumpLaw,
    make_rng,
    mc_semigroup,
    next_jump_time,
    post_jump_sample,
    rekey,
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


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_rekey_matches_make_rng_bit_for_bit(seed):
    n = 10_000
    draws = (lambda g: g.random(n), lambda g: g.standard_exponential(n),
             lambda g: g.integers(2 ** 32, size=n, dtype=np.uint32))
    rng = make_rng(5, 9)
    for stream_id in (0, 1, 7, 2 ** 20 + 3, 2 ** 32, 2 ** 64 - 1):
        rng.integers(1000, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert rekey(rng, seed, stream_id) is rng
        fresh = make_rng(seed, stream_id)
        got, want = rng.bit_generator.state, fresh.bit_generator.state
        for part in ("counter", "key"):
            assert np.array_equal(got["state"][part], want["state"][part])
        assert np.array_equal(got["buffer"], want["buffer"])
        assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] \
            == [want[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
        for draw in draws:
            assert np.array_equal(draw(rng), draw(fresh))


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1), (2 ** 64, 0)])
def test_rekey_keeps_the_key_checks_of_make_rng(seed, stream_id):
    with pytest.raises(OverflowError):
        make_rng(seed, stream_id)
    with pytest.raises(OverflowError):
        rekey(make_rng(0, 0), seed, stream_id)


def test_mc_semigroup_on_one_rekeyed_generator_matches_one_per_path(
        monkeypatch):
    model = make_canonical()
    rekeyed = mc_semigroup(model, _tilted_law(model), [lambda y: y],
                           1.0, 1.0, n_paths=200, seed=3)
    monkeypatch.setattr(pdmp, "rekey", lambda rng, seed, stream_id:
                        make_rng(seed, stream_id))
    fresh = mc_semigroup(model, _tilted_law(model), [lambda y: y],
                         1.0, 1.0, n_paths=200, seed=3)
    assert rekeyed[0] == fresh[0]
    assert rekeyed[1] == fresh[1]


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


@pytest.mark.parametrize("b, safety, x0",
                         [(0.0, None, 1.0), (1000.0, 0.5, 1.0),
                          (0.0, None, 0.05)],
                         ids=["table", "doubled", "table-from-0.05"])
def test_inhomogeneous_waiting_time_distribution(monkeypatch, b, safety, x0):
    # unit speed from x0 with r(x) = b + x gives rate b + x0 + u along the
    # flow, so P(tau > t) = exp(-(b + x0) t - t^2/2).  From x0 = 0.05 the
    # flow crosses a few dozen pieces before a typical first proposal, so
    # the exponential spent across them is tested.  A majorant of
    # half the largest r on its piece lies below r all over the piece,
    # where r varies by less than 2x: a proposal there doubles it to a
    # true majorant.  A window that no proposal reaches keeps the low
    # majorant and makes the law wrong, so b = 1000 gives the first
    # window, [1, 10^(1/32)), odds of e^(-37) of seeing no proposal
    if safety is not None:
        monkeypatch.setattr(pdmp, "_MAJORANT_SAFETY", safety)
    law = _law(make_canonical(), b=b)
    n = 2000
    draws = np.empty(n)
    for i in range(n):
        state = PdmpState.fresh(x0, seed=9, stream_id=i)
        tau = next_jump_time(state, law, 30.0)
        assert tau is not NO_JUMP
        draws[i] = tau
    cdf = lambda t: 1.0 - np.exp(-(b + x0) * t - 0.5 * t * t)  # noqa: E731
    assert kstest(draws, cdf).pvalue > 0.01
    assert (law.majorant_doublings > 0) == (safety is not None)


class _CountingRng:
    """A generator that counts its standard_exponential draws."""

    def __init__(self, rng):
        self._rng = rng
        self.exponentials = 0

    def standard_exponential(self):
        self.exponentials += 1
        return self._rng.standard_exponential()

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("x0", [1.0, 0.05])
def test_thinning_draws_one_exponential_per_proposal(x0):
    # a window the flow crosses without a proposal draws nothing: one
    # exponential to start, then one after each rejection or doubling
    law = _tilted_law(make_canonical())
    for stream in range(200):
        state = PdmpState.fresh(x0, seed=5, stream_id=stream)
        state.rng = _CountingRng(state.rng)
        before = law.proposals + law.majorant_doublings
        next_jump_time(state, law, 10.0)
        spent = law.proposals + law.majorant_doublings - before
        assert state.rng.exponentials <= spent + 1
def _sqrt_speed_model():
    """Speed sqrt(x), a curved scale, and rate x/(1+x): with h = 1 and
    b = 1, r = 1 + x/(1+x) rises along the flow and q = 1 - x/(1+x)."""
    return ModelSpec(growth=GrowthSpec.from_speed(np.sqrt),
                     frag=FragmentationKernel.relative(
                         lambda x: x / (1.0 + x), uniform_ratio()),
                     domain_hint=DOMAIN, irreducible=True)


def test_paths_do_not_depend_on_scale_table_widening(monkeypatch):
    # path k run first on a fresh law is bit for bit path k run after
    # paths that widened the scale table below and above its ends
    model = _sqrt_speed_model()

    def fresh_law():
        return TiltedJumpLaw(model, constant_weight(1.0), 1.0,
                             FlowEngine(model.growth, 1e-2, 3.0))

    def path(law, k):
        return simulate_path(model, law, 2.5, 1.0, seed=4,
                             stream_id=k).points

    first = [path(fresh_law(), k) for k in range(20)]
    law = fresh_law()
    ends = law.flow._x_lo, law.flow._x_hi
    simulate_path(model, law, 1e-3, 1.0, seed=4, stream_id=99)
    simulate_path(model, law, 2.9, 30.0, seed=4, stream_id=98)
    assert law.flow._x_lo < ends[0] and law.flow._x_hi > ends[1]
    assert [path(law, k) for k in range(20)] == first
    # on the perfbench simulate round each panel of the growth's own scale
    # table is integrated once (the table of G integrates c/K, not c)
    panels = []
    panel = flow_module._panel

    def counted(c, a, b, g_a, g_b):
        panels.append((c, a, b))
        return panel(c, a, b, g_a, g_b)

    monkeypatch.setattr(flow_module, "_panel", counted)
    law = _tilted_law(make_canonical())
    mc_semigroup(law.model, law, [lambda y: y], 1.0, 1.0, n_paths=1000,
                 seed=1)
    own = [(a, b) for c, a, b in panels if c is law.model.growth.c]
    assert len(set(own)) == len(own) == len(law.flow._xs) - 1


def _visited_pieces(law):
    """[(a, top, majorant)] of the pieces of law's majorant table."""
    pieces = []
    for j, panel in sorted(law._majorants.panels.items()):
        lo = 10.0 ** (j / pdmp._PANELS_PER_DECADE)
        for top, (_, r_bar) in panel:
            pieces.append((lo, top, r_bar))
            lo = top
    return pieces


def _rates_above_majorant(law, n_points=10_000):
    """Points of 10^4 seeded log-uniform draws across the pieces that
    law's paths visited where r exceeds the piece's majorant."""
    pieces = [p for p in _visited_pieces(law) if p[2] is not None]
    rng = np.random.default_rng(15)
    picks = rng.integers(len(pieces), size=n_points)
    fracs = rng.uniform(size=n_points)
    above = []
    for k, f in zip(picks, fracs):
        a, top, r_bar = pieces[k]
        x = float(a * (top / a) ** f)
        if a <= x < top and law.r(x) > r_bar:
            above.append(x)
    return above


@pytest.fixture(scope="module",
                params=["canonical", "mitosis", "power", "sqrt-speed"])
def visited_law(request):
    """A law whose majorant table 300 paths to t = 1 from x0 = 1 built."""
    if request.param == "sqrt-speed":
        model = _sqrt_speed_model()
        law = TiltedJumpLaw(model, constant_weight(1.0), 1.0)
    else:
        model = {"canonical": make_canonical, "mitosis": make_mitosis,
                 "power": _power_model}[request.param]()
        law = _tilted_law(model)
    with warnings.catch_warnings():
        # most power-kernel paths are killed before t = 1
        warnings.simplefilter("ignore", pdmp.VarianceBlowup)
        mc_semigroup(model, law, [lambda y: y], 1.0, 1.0, n_paths=300,
                     seed=3)
    return law


def test_majorant_table_dominates_r(visited_law):
    work = visited_law.work_counters()
    assert work["r_pieces"] >= 10
    assert all(r_bar is not None for _, _, r_bar in
               _visited_pieces(visited_law))
    assert _rates_above_majorant(visited_law) == []
    assert work["majorant_doublings"] == 0


def test_majorant_below_the_largest_sampled_rate_fails(visited_law,
                                                       monkeypatch):
    # the dominance check has the power to see a majorant that is too low
    monkeypatch.setattr(pdmp, "_MAJORANT_SAFETY", 0.99)
    law = TiltedJumpLaw(visited_law.model, visited_law.h, visited_law.b,
                        visited_law.flow)
    for j in visited_law._majorants.panels:
        law._majorants.pieces(j, law._majorant)
    assert _rates_above_majorant(law) != []


def test_piece_without_a_majorant_reads_r_along_the_window():
    # r is not finite above x = 2, so the piece [1.91, 2.05) has no
    # majorant; the flow from 1.92 stays below 2 up to the horizon 0.07,
    # where r = b + K = 11 and P(no jump) = exp(-0.77)
    class FailingAbove2(TiltedJumpLaw):
        def r(self, x):
            if x > 2.0:
                raise DomainError("jump rate not finite")
            return super().r(x)

    law = FailingAbove2(make_mitosis(), constant_weight(1.0), 10.0)
    n = 400
    taus = [next_jump_time(PdmpState.fresh(1.92, seed=2, stream_id=k), law,
                           0.07) for k in range(n)]
    assert [r_bar for _, _, r_bar in _visited_pieces(law)] == [None]
    assert all(0.0 < tau < 0.07 for tau in taus if tau is not NO_JUMP)
    p = np.exp(-0.77)
    misses = sum(tau is NO_JUMP for tau in taus)
    assert abs(misses - n * p) <= 4.0 * np.sqrt(n * p * (1.0 - p))


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
    law = _law(model, h=identity_weight(model.growth), b=1.0)
    draws = []
    for i in range(3000):
        state = PdmpState.fresh(1.0, seed=8, stream_id=i)
        child = post_jump_sample(state, law)
        assert child is not CEMETERY
        draws.append(child)
    assert kstest(np.array(draws),
                  lambda u: np.clip(u, 0, 1) ** 2).pvalue > 0.01


def test_child_sampler_raises_a_low_bound():
    # h(y) = 1 + y/4 has A h/h = 1 on this model, so b = 1 never kills;
    # from x = 0.8 the tilt h(ux)/h(x) = (1 + u/5)/1.2 spans [1/1.2, 1].
    # Under a bound of 1e-9 every first draw raises it to 1.2 times its
    # tilt, which is at least 1, and so the child law is the tilted one,
    # with CDF (u + u^2/10)/1.1 in u = child/x.  Draws accepted under a
    # bound below the largest tilt would skew the law to small tilts.
    model = make_conserving_linear()
    h = WeightFunction(value=lambda y: 1.0 + 0.25 * y,
                       log_slope=lambda y: y / (4.0 + y))
    law = _law(model, h=h, b=1.0)
    law.sup_tilt_ratio = lambda x: 1e-9
    draws = np.array([post_jump_sample(
        PdmpState.fresh(0.8, seed=8, stream_id=i), law) for i in range(3000)])
    assert kstest(draws / 0.8,
                  lambda u: (u + 0.1 * u * u) / 1.1).pvalue > 0.01
    assert law.kills == 0


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


def test_pseudo_entrance_law_returns_python_floats():
    # a numpy scalar costs more per operation than a float; a_inf, picked
    # through np.log, once made r, every majorant and every jump time one
    model = make_canonical()
    law = _tilted_law(model)
    for stream, x in enumerate((0.5, 1.0, 3.0)):
        tau = next_jump_time(PdmpState.fresh(x, seed=3, stream_id=stream),
                             law, 10.0)
        assert tau is not NO_JUMP
        values = [law.h.log_value(x), law.h.log_slope(x), law.r(x), tau,
                  law.flow.flow_at(x, 0.3)]
        assert [type(v) for v in values] == [float] * 5


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


def _kh_split_at_kinks(law, x):
    """kh_mass(x) by quad split at each kink of its integrand, u = kappa/x
    for the kinks kappa < x of h, at relative tolerance 1e-12."""
    tilt, measure = law.h.tilt(x), law.model.frag.ratio_measure
    edges = [0.0] + sorted(k / x for k in law.h.kinks if k < x) + [1.0]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += integrate.quad(lambda u: tilt(u * x) * measure.density(u),
                                a, b, epsabs=0.0, epsrel=1e-12,
                                limit=200)[0]
    return law.model.frag.rate(x) * total


@pytest.mark.parametrize("x", [1.0021, 2.004])
def test_kh_mass_is_exact_next_to_a_kink_of_h(x):
    # u = 1/x sits next to an end or the midpoint of (0, 1), where quad
    # over (0, 1) alone erred by 2.5e-6 and 1.4e-6
    law = _tilted_law(make_canonical())
    assert law.kh_mass(x) == pytest.approx(_kh_split_at_kinks(law, x),
                                           rel=1e-8)


def test_probe_pass_mass_is_exact_next_to_a_kink_of_h(monkeypatch):
    # the set-up's probe pass, unsplit at the kinks of h, erred by 3.0e-8
    # at x = 2.0067
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    passes = {}
    probe_pass = lyapunov._probe_pass

    def recorded(model, w):
        passes[w.label] = probe_pass(model, w)
        return passes[w.label]

    monkeypatch.setattr(lyapunov, "_probe_pass", recorded)
    law = TiltedJumpLaw(model, h, verify_assumption1(model, h).b)
    for x, mass in zip(model.probe_grid(), passes[h.label][0]):
        assert mass == pytest.approx(_kh_split_at_kinks(law, x), rel=1e-8)


def test_kh_mass_is_exact_under_a_spline_weight(canonical_model,
                                                canonical_weight):
    h, b = canonical_weight
    law = TiltedJumpLaw(canonical_model, h, b)
    # u = 0.02007/x is next to 1/4, a subdivision point of quad over
    # (0, 1), which alone erred by 1.3e-5
    assert law.kh_mass(0.08087) == pytest.approx(
        _kh_split_at_kinks(law, 0.08087), rel=1e-8)


def test_kh_mass_of_a_singular_power_kernel_never_raises():
    # at 15 of these points quad over (0, 1) and its split at 1/2 both
    # raised QuadratureDivergence
    law = _tilted_law(_power_model())
    masses = [law.kh_mass(float(x)) for x in np.linspace(2.0, 2.02, 2001)]
    assert all(m > 0.0 for m in masses)


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
        forward._majorants.locate(x, forward._majorant)
    for x in reversed(xs):
        backward.kh_bracket(x)
        backward._majorants.locate(x, backward._majorant)
    assert [forward.kh_bracket(x) for x in xs] == \
        [backward.kh_bracket(x) for x in xs]
    # the majorant table of r is built the same way
    assert forward._majorants.panels == backward._majorants.panels
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
    ratios = [tilted_generator(model, h, x)[1] for x in probes]
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
    mc_semigroup(model, law, [lambda y: y], 1.0, 0.5, n_paths=60, seed=11)
    work = law.work_counters()
    kills = sum(1 for c in outcomes if c is CEMETERY)
    assert (work["jumps"], work["kills"]) == (len(outcomes) - kills, kills)
    # a panel costs at most six masses (two edges, four inner nodes); the
    # rest are kill tests that the band left open
    assert len(calls) - work["kh_exact_calls"] <= 6 * work["kh_panels"]
    assert work["kh_exact_calls"] <= 0.25 * len(outcomes)


# -- the tilt table behind the child sampler ------------------------------------

def _power_weight():
    """h(x) = x^(-1/2), largest at the table's lower end."""
    return WeightFunction(value=lambda x: x ** -0.5,
                          log_slope=lambda x: -0.5 / x,
                          log_value=lambda x: -0.5 * np.log(x))


@pytest.fixture(scope="module",
                params=["pseudo-entrance", "power", "identity"])
def tilt_law(request):
    """A fresh canonical law under each weight; its tilt table is built by
    the first bound asked of it."""
    model = make_canonical()
    if request.param == "pseudo-entrance":
        return _tilted_law(model)
    h = _power_weight() if request.param == "power" \
        else identity_weight(model.growth)
    return TiltedJumpLaw(model, h, 1.0)


def _tilts_above_bound(law, n_points=10_000):
    """Points of 10^4 seeded log-uniform draws in the domain where
    max_u h(ux)/h(x) exceeds law.sup_tilt_ratio(x).  The u-grid is shared
    by all x through y = ux: 2 10^5 log-spaced y from the table's lower
    end, plus u = 1 - 1e-9, where the tilt tends to 1."""
    lo, hi = law.model.domain_hint
    xs = np.exp(np.random.default_rng(23).uniform(np.log(lo), np.log(hi),
                                                  n_points))
    bounds = [law.sup_tilt_ratio(float(x)) for x in xs]
    ys = np.geomspace(law._tilt_points[0], hi, 200_000)
    peaks = np.maximum.accumulate([law._log_h(float(y)) for y in ys])
    above = []
    for x, bound in zip(xs, bounds):
        k = np.searchsorted(ys, x)   # ys[:k] lie below x
        log_hx = law._log_h(float(x))
        peak = max(peaks[k - 1], law._log_h(float(x) * (1.0 - 1e-9)))
        if np.exp(peak - log_hx) > bound:
            above.append(float(x))
    return above


def test_tilt_bound_dominates_the_largest_tilt(tilt_law):
    assert _tilts_above_bound(tilt_law) == []
    # the lower end is the lattice edge at or below 1e-6 of the domain's
    lo = tilt_law.model.domain_hint[0]
    assert 1e-6 * lo / 10.0 ** (1 / 32) < tilt_law._tilt_points[0] \
        <= 1e-6 * lo


def test_tilt_bound_below_the_largest_tilt_fails(tilt_law, monkeypatch):
    # the dominance check has the power to see a bound that is too low
    monkeypatch.setattr(pdmp, "_TILT_SAFETY", 0.99)
    law = TiltedJumpLaw(tilt_law.model, tilt_law.h, tilt_law.b,
                        tilt_law.flow)
    assert _tilts_above_bound(law, n_points=200) != []


def test_tilt_table_does_not_depend_on_query_order():
    # each law has its own h, so the table of G behind h widens in the
    # order of the queries too
    model = make_canonical()
    xs = [float(x) for x in np.geomspace(0.02, 30.0, 50)] + [1.0, 1e-9]
    forward, backward = _tilted_law(model), _tilted_law(model)
    ahead = [forward.sup_tilt_ratio(x) for x in xs]
    behind = [backward.sup_tilt_ratio(x) for x in reversed(xs)][::-1]
    assert ahead == behind
    assert forward._tilt_points == backward._tilt_points
    assert forward._tilt_peaks == backward._tilt_peaks
    # below the lower end the bound is the safety factor alone
    assert ahead[-1] == pdmp._TILT_SAFETY


def test_tilt_table_is_built_lazily_and_only_for_a_density():
    model = make_canonical()
    law = _tilted_law(model)
    assert law._tilt_points == []
    law.sup_tilt_ratio(1.5)
    built = len(law._tilt_points)
    # nine points a piece, from the lower end 1e-8 up past 1.5
    assert built == 9 * len(law._tilts.contents()) >= 9 * 256
    law.sup_tilt_ratio(0.5)
    assert len(law._tilt_points) == built
    # the categorical branch of an atomic measure never reads the bound
    mitosis = _law(make_mitosis(), b=1.0)
    for i in range(50):
        post_jump_sample(PdmpState.fresh(3.0, seed=1, stream_id=i), mitosis)
    assert mitosis._tilt_points == [] and mitosis._tilts.panels == {}


def test_tilt_table_rejects_a_non_finite_ln_h():
    model = make_canonical()

    def log_value(x):
        return np.inf if 1e-3 < x < 2e-3 else 0.0

    h = WeightFunction(value=lambda x: 1.0, log_slope=lambda x: 0.0,
                       log_value=log_value)
    law = TiltedJumpLaw(model, h, 1.0)
    # the table is built in piece order up to the panel of 9e-4 alone
    assert law.sup_tilt_ratio(9e-4) == pdmp._TILT_SAFETY
    with pytest.raises(DomainError, match=r"ln h not finite at x=0\.00100"):
        law.sup_tilt_ratio(0.5)
    # a weight that vanishes has no logarithm
    law = TiltedJumpLaw(model, WeightFunction(
        value=lambda x: 0.0 if x < 1e-4 else 1.0, log_slope=lambda x: 0.0),
        1.0)
    with pytest.raises(DomainError, match="ln h not finite at x=1e-08"):
        law.sup_tilt_ratio(0.5)
    # nor may a bound that overflows reach the sampler
    law = TiltedJumpLaw(model, WeightFunction(
        value=lambda x: 1.0, log_slope=lambda x: 0.0,
        log_value=lambda x: 800.0 if x < 1e-3 else 0.0), 1.0)
    with pytest.raises(DomainError, match="tilt bound overflows at x=0.5"):
        law.sup_tilt_ratio(0.5)


@pytest.mark.parametrize("x", [0.3, 1.5, 4.0])
def test_tilted_children_follow_the_tilted_law(x):
    # children from x on the canonical pseudo-entrance law: u = child/x
    # has density proportional to h(ux)/h(x) 2 du on (0, 1)
    model = make_canonical()
    law = _tilted_law(model)
    draws, stream = [], 0
    while len(draws) < 3000:
        child = post_jump_sample(
            PdmpState.fresh(x, seed=6, stream_id=stream), law)
        stream += 1
        if child is not CEMETERY:
            draws.append(child / x)
    assert law.tilt_raises == 0
    tilt = law.h.tilt(x)
    density = lambda u: tilt(u * x)  # noqa: E731
    # the CDF at the sorted draws by quad between neighbours, split at the
    # kink of h at 1
    us = np.sort(draws)
    cuts = np.union1d(us, [1.0 / x] if x > 1.0 else [])
    pieces = [integrate.quad(density, a, b, epsabs=0.0, epsrel=1e-10)[0]
              for a, b in zip(np.r_[0.0, cuts], np.r_[cuts, 1.0])]
    cum = np.cumsum(pieces)
    at = dict(zip(cuts, cum[:-1] / cum[-1]))
    assert kstest(us, lambda u: np.array([at[v] for v in u])).pvalue > 0.01


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
    law = TiltedJumpLaw(model, identity_weight(model.growth), 1.0, flow)
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
        [(est, se)], _ = mc_semigroup(model, law, [lambda y: 1.0], 1.0, t,
                                      n_paths=64, seed=5)
        assert est == pytest.approx(np.exp(t), rel=1e-12)
        assert se == 0.0


def test_semigroup_identity_mass_growth():
    # speed x with a mean-conserving kernel and h = id: the estimator
    # equals x0 e^t with zero variance
    model = make_conserving_linear()
    flow = FlowEngine(model.growth, *model.domain_hint)
    law = TiltedJumpLaw(model, identity_weight(model.growth), 1.0, flow)
    for t in (0.5, 1.0, 2.0):
        [(est, se)], _ = mc_semigroup(model, law, [lambda y: y], 1.0, t,
                                      n_paths=64, seed=5)
        assert est == pytest.approx(np.exp(t), rel=1e-12)
        assert se == 0.0


def test_semigroup_estimate_independent_of_weight():
    # the same quantity estimated under two different tiltings
    model = make_conserving_linear()
    flow = FlowEngine(model.growth, *model.domain_hint)
    exact_law = TiltedJumpLaw(model, identity_weight(model.growth), 1.0, flow)
    flat_law = TiltedJumpLaw(model, constant_weight(1.0), 1.0, flow)
    [(est_a, se_a)], _ = mc_semigroup(model, exact_law, [lambda y: y], 1.0,
                                      1.0, n_paths=64, seed=7)
    [(est_b, se_b)], _ = mc_semigroup(model, flat_law, [lambda y: y], 1.0,
                                      1.0, n_paths=600, seed=7)
    combined = np.hypot(se_a, se_b)
    assert abs(est_a - est_b) <= 3.0 * combined


def test_semigroup_bitwise_reproducible():
    model = make_mitosis()
    law = _law(model, b=1.0)
    a = mc_semigroup(model, law, [lambda y: y], 1.0, 1.0, n_paths=50,
                     seed=13)
    b = mc_semigroup(model, law, [lambda y: y], 1.0, 1.0, n_paths=50,
                     seed=13)
    assert a == b
    # the returned trace is path 0's, so callers need not simulate it again
    assert a[1] == simulate_path(model, law, 1.0, 1.0, seed=13, stream_id=0)
