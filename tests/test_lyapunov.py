"""Admissibility criteria and tilting-weight constructions."""

import numpy as np
import pytest

from growfrag.errors import (
    CriterionViolated,
    DomainError,
    QuadratureDivergence,
    UnboundedAbove,
)
from growfrag.lyapunov import (
    _assumption4_fit,
    build_h_powerlaw,
    build_h_pseudo_entrance,
    criterion_entrance,
    criterion_K_constant,
    criterion_lnx,
    criterion_mitosis_kernel,
    criterion_reggen,
    criterion_uniform_kernel,
    lambda2_bound,
    mitosis_kernel_objective,
    uniform_kernel_objective,
    verify_assumption1,
)
from growfrag.model import (
    FragmentationKernel,
    GrowthSpec,
    ModelSpec,
    RatioMeasure,
    WeightFunction,
    constant_weight,
    identity_weight,
    mitosis_ratio,
    power_ratio,
    tilted_generator,
    tilted_generator_batch,
    uniform_ratio,
)

from conftest import (eigenfunction_weight, make_canonical, make_critical,
                      make_mitosis)


# -- window thresholds ---------------------------------------------------

def test_uniform_kernel_threshold():
    threshold, argmin = criterion_uniform_kernel()
    assert threshold == pytest.approx(3.0 + 2.0 * np.sqrt(2.0), abs=1e-6)
    assert argmin == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-5)


def test_uniform_kernel_objective_value():
    assert uniform_kernel_objective(2.0) == pytest.approx(6.0, rel=1e-12)


def test_mitosis_kernel_threshold():
    threshold, argmin = criterion_mitosis_kernel()
    assert threshold == pytest.approx(3.86, abs=0.01)
    assert 2.4 < argmin < 2.5


def test_mitosis_kernel_objective_values():
    assert mitosis_kernel_objective(2.0) == pytest.approx(4.0, rel=1e-12)
    assert mitosis_kernel_objective(3.0) == pytest.approx(4.0, rel=1e-12)


def test_objectives_convex_on_grid():
    grid = np.linspace(1.2, 7.0, 200)
    for objective in (uniform_kernel_objective, mitosis_kernel_objective):
        vals = np.array([objective(a) for a in grid])
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-8)


# -- logarithmic-scale criterion -----------------------------------------

def test_lnx_uniform_bounds():
    low, high = criterion_lnx(
        FragmentationKernel.relative(lambda x: 1.0, uniform_ratio()))
    assert low == pytest.approx(2.0, abs=1e-6)
    assert high == pytest.approx(2.0, abs=1e-6)


def test_lnx_mitosis_bounds():
    low, high = criterion_lnx(
        FragmentationKernel.relative(lambda x: 1.0, mitosis_ratio()))
    assert low == pytest.approx(1.0 / np.log(2.0), abs=1e-6)
    assert high == pytest.approx(1.0 / np.log(2.0), abs=1e-6)


# -- two-slope linear speed criterion --------------------------------------

def test_reggen_reference_value():
    assert criterion_reggen(2.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_reggen_matches_independent_optimizer():
    from scipy.optimize import minimize_scalar
    rng = np.random.default_rng(11)
    for _ in range(20):
        c0 = rng.uniform(0.5, 5.0)
        c_inf = rng.uniform(0.51 * c0, 0.999 * c0)
        got = criterion_reggen(c0, c_inf)
        res = minimize_scalar(
            lambda a: -(a + c0) * (c_inf - a) / (c0 - a),
            bounds=(0.0, c_inf * (1.0 - 1e-9)), method="bounded",
            options={"xatol": 1e-12})
        assert got == pytest.approx(-res.fun, abs=1e-6)


def test_reggen_rejects_bad_order():
    with pytest.raises(DomainError):
        criterion_reggen(1.0, 2.0)


# -- near-constant rate criterion ------------------------------------------

def test_K_constant_passes_on_balanced_model():
    # entropy of p = 2 du is int -ln(u) 2 du = 2; the speed ratio c(x)/x
    # runs from 3 at zero down to 1 at infinity, pinching the entropy
    model = ModelSpec(
        growth=GrowthSpec.from_speed(
            lambda x: x * (3.0 + x) / (1.0 + x), kinks=()),
        frag=FragmentationKernel.relative(lambda x: 0.8, uniform_ratio()),
        domain_hint=(1e-4, 1e4),
    )
    report = model and criterion_K_constant(model)
    assert report.passed
    assert report.regime == "K-constant-critical"
    # the weight must be admissible: A h/h <= b on the probes
    probes = model.probe_grid()
    from growfrag.model import tilted_generator
    ratio = [tilted_generator(model, report.h, x)[1] for x in probes]
    assert max(ratio) <= report.b + 1e-9


def test_K_constant_flags_zero_rate():
    model = ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: x),
        frag=FragmentationKernel.relative(lambda x: 0.0, uniform_ratio()))
    report = criterion_K_constant(model)
    assert not report.passed
    failed = {name for name, _, ok in report.checks if not ok}
    assert "rate-positive" in failed


# -- entrance-boundary criterion -------------------------------------------

def test_entrance_net_growth_and_lambda2_on_canonical():
    # k(x,(0,x)) = 2x and K(x) = x, so the net growth k - K is x: its tail
    # sup is the last probe, 40, and its inf the first, 0.01
    model = make_canonical()
    report = criterion_entrance(model, 0.0)
    margins = {name: (margin, ok) for name, margin, ok in report.checks}
    assert margins["tail-killing-margin"][0] == pytest.approx(-40.0,
                                                              rel=1e-12)
    assert not margins["tail-killing-margin"][1]
    assert margins["entrance-scale-finite"][1]
    assert not report.passed
    assert report.lambda2 == float(lambda2_bound(model, constant_weight(1.0)))
    assert report.lambda2 == pytest.approx(-0.01, rel=1e-12)
    # b bounds A h/h over the probes, as in every report
    from growfrag.model import tilted_generator
    ratio = [tilted_generator(model, report.h, x)[1]
             for x in model.probe_grid()]
    assert max(ratio) <= report.b


# -- generic assumption verification ---------------------------------------

def test_verify_assumption1_integrates_each_probe_once(monkeypatch):
    # the probe passes of h and of the identity weight run the fixed rule,
    # which calls no RatioMeasure.integral on the canonical model; only the
    # golden-section refinement of sup A h/h integrates, a bounded number
    # of times
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    calls = []
    integral = RatioMeasure.integral

    def counted(self, *args, **kwargs):
        calls.append(1)
        return integral(self, *args, **kwargs)

    monkeypatch.setattr(RatioMeasure, "integral", counted)
    verify_assumption1(model, h)
    assert len(calls) <= 128


def test_verify_assumption1_bounds_ratio():
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    report = verify_assumption1(model, h)
    assert report.passed
    probes = model.probe_grid()
    from growfrag.model import tilted_generator
    ratio = np.array([tilted_generator(model, h, x)[1] for x in probes])
    assert np.max(ratio) <= report.b + 1e-9


def test_verify_assumption1_rejects_inverse_weight():
    # h = 1/x blows up the tilted kernel mass for the uniform repartition:
    # read point by point or on arrays, the fixed rule's estimate on the
    # divergent int u^-1 2 du fails, and tilted_generator raises
    model = make_canonical()
    for log_values in (None, lambda ys: -np.log(ys)):
        h = WeightFunction(value=lambda x: 1.0 / x,
                           log_slope=lambda x: -1.0 / x,
                           log_value=lambda x: -np.log(x),
                           log_values=log_values)
        with pytest.raises((UnboundedAbove, QuadratureDivergence)):
            verify_assumption1(model, h)


def test_report_json_shape():
    model = make_canonical()
    report = verify_assumption1(model, build_h_pseudo_entrance(model, 2.0))
    payload = report.to_json()
    assert set(payload) == {"regime", "b", "lambda1", "lambda2", "L",
                            "checks", "probe_rule"}
    assert len(payload["L"]) == 2
    assert all({"name", "margin", "pass"} == set(c)
               for c in payload["checks"])
    # the rule keeps every probe of h and of the identity weight here
    assert payload["probe_rule"]["fallbacks"] == 0
    assert 0.0 < payload["probe_rule"]["max_rel_error"] <= 1e-10


# -- the fixed probe rule ---------------------------------------------------

def _power_model():
    return ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: x, power_ratio(-0.5)),
        domain_hint=(1e-2, 40.0), irreducible=True)


def _library_weights():
    """(name, model, weight, fallbacks the rule takes) for each library
    weight construction on the models of the tests."""
    canonical, mitosis, power, critical = make_canonical(), make_mitosis(), \
        _power_model(), make_critical()
    return [
        ("pseudo-entrance", canonical,
         build_h_pseudo_entrance(canonical, 2.0), 0),
        ("identity", canonical, identity_weight(canonical.growth), 0),
        ("constant", canonical, constant_weight(1.0), 0),
        ("power-pseudo-entrance", power, build_h_pseudo_entrance(power, 2.0),
         0),
        ("mitosis-pseudo-entrance", mitosis,
         build_h_pseudo_entrance(mitosis, 2.0), 0),
        ("entrance", canonical, criterion_entrance(canonical, 0.0).h, 0),
        ("K-constant", canonical, criterion_K_constant(canonical).h, 0),
        # on c = x the weight tilts by u^alpha, not smooth at u = 0: the
        # n- and 2n-point sums disagree on every probe, all of which go
        # through tilted_generator
        ("powerlaw", critical, build_h_powerlaw(critical, 0.5, 1.5), 256),
    ]


def _assert_matches_oracle(model, w, tilted, ratio):
    oracle = np.array([tilted_generator(model, w, x)
                       for x in model.probe_grid()])
    assert tilted == pytest.approx(oracle[:, 0], rel=1e-8, abs=0.0)
    assert ratio == pytest.approx(oracle[:, 1], rel=1e-8,
                                  abs=1e-8 * np.max(np.abs(oracle[:, 0])))


@pytest.mark.parametrize("case", range(8))
def test_batched_rule_matches_tilted_generator(case):
    name, model, w, fallbacks = _library_weights()[case]
    tilted, ratio, rule = tilted_generator_batch(model, w,
                                                 model.probe_grid())
    _assert_matches_oracle(model, w, tilted, ratio)
    assert rule.fallbacks == fallbacks, name
    assert rule.max_rel_error <= 1e-10


def test_batched_rule_reads_a_weight_without_log_values(canonical_model,
                                                        canonical_triple):
    # the eigen-interp weight has log_value only: the rule reads it point
    # by point, and its spline knots send the probes the n- and 2n-point
    # sums disagree on through tilted_generator
    w = eigenfunction_weight(canonical_model, canonical_triple)
    assert w.log_values is None
    tilted, ratio, rule = tilted_generator_batch(
        canonical_model, w, canonical_model.probe_grid())
    _assert_matches_oracle(canonical_model, w, tilted, ratio)
    assert 0 < rule.fallbacks < len(canonical_model.probe_grid())


def test_batched_rule_falls_back_where_its_estimate_fails():
    # w = exp(2 x^2) packs the tilted mass at large x into a layer far
    # thinner than the top panel: those probes go to tilted_generator
    model = make_canonical()
    w = WeightFunction(value=lambda x: float(np.exp(2.0 * x * x)),
                       log_slope=lambda x: 4.0 * x,
                       log_value=lambda x: 2.0 * x * x,
                       log_values=lambda ys: 2.0 * ys * ys)
    tilted, ratio, rule = tilted_generator_batch(model, w,
                                                 model.probe_grid())
    assert 0 < rule.fallbacks < len(model.probe_grid())
    assert rule.max_rel_error <= 1e-10
    _assert_matches_oracle(model, w, tilted, ratio)


@pytest.mark.parametrize("case", range(8))
def test_log_values_match_log_value_bit_for_bit(case):
    name, model, w, _ = _library_weights()[case]
    lo, hi = model.domain_hint
    rng = np.random.default_rng(20261020 + case)
    ys = np.exp(rng.uniform(np.log(lo * 1e-2), np.log(hi * 10.0), 10_000))
    ys[:3] = (1.0, lo, hi)
    scalar = [w.log_value(y) for y in ys]
    assert np.array_equal(w.log_values(ys), scalar), name


def _assumption4_fit_by_masks(probes, ratio):
    """The per-j mask loop the prefix/suffix maxima replaced."""
    n = len(probes)
    mid = n // 2
    best = None
    for j in range(1, min(mid, n - mid) - 1):
        inside = np.zeros(n, dtype=bool)
        inside[mid - j:mid + j + 1] = True
        lam = -float(np.max(ratio[~inside]))
        if best is None or lam > best[0] + 1e-12 * (1.0 + abs(lam)):
            best = (lam, (float(probes[mid - j]), float(probes[mid + j])))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_assumption4_fit_matches_the_mask_loop(seed):
    # random ratios on a coarse grid of values, for exact ties, under 30
    # peaks that fall away from the centre by relative steps of 0 and of
    # sizes below, near and above the 1e-12 tie rule
    rng = np.random.default_rng(seed)
    probes = np.geomspace(1e-2, 40.0, 256)
    ratio = np.round(rng.normal(size=256), 1)
    peaks = rng.choice(256, 30, replace=False)
    peaks = peaks[np.argsort(np.abs(peaks - 128), kind="stable")]
    steps = rng.choice([0.0, 5e-14, 3e-13, 5e-12, 1e-9], size=30)
    ratio[peaks] = 5.0 * np.cumprod(1.0 - steps)
    assert _assumption4_fit(probes, ratio) == \
        _assumption4_fit_by_masks(probes, ratio)


# -- weight constructions --------------------------------------------------

def test_powerlaw_zero_exponents_give_constant():
    model = make_canonical()
    h = build_h_powerlaw(model, 0.0, 0.0)
    for x in (0.01, 1.0, 30.0):
        assert h(x) == pytest.approx(1.0, rel=1e-12)
        assert h.log_slope(x) == pytest.approx(0.0, abs=1e-12)


def test_powerlaw_rejects_slow_tail():
    # beta = 1 is not above the tail speed ratio c(x)/x for c == x
    model = make_critical()
    with pytest.raises(CriterionViolated):
        build_h_powerlaw(model, 0.0, 1.0)


def test_pseudo_entrance_requires_alpha_above_one():
    model = make_canonical()
    with pytest.raises(DomainError):
        build_h_pseudo_entrance(model, 0.5)


def test_pseudo_entrance_weight_is_positive():
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    xs = np.geomspace(0.01, 40.0, 50)
    vals = np.array([h(x) for x in xs])
    assert np.all(vals > 0.0)
    assert np.all(np.isfinite(vals))


def test_pseudo_entrance_weight_extends_exactly_past_the_domain():
    # on the canonical model G(x) = int_1^x y dy = (x^2 - 1)/2, so
    # log h = a_inf G above 1; far past the domain (0.01, 40) the table of
    # G widens to the query instead of extrapolating
    h = build_h_pseudo_entrance(make_canonical(), 2.0)
    a_inf = h.log_value(2.0) / 1.5
    for x in (1000.0, 5000.0):
        assert h.log_value(x) == pytest.approx(a_inf * (x * x - 1.0) / 2.0,
                                               rel=1e-12)


def test_pseudo_entrance_weight_of_a_rate_that_vanishes_below_one_half():
    # K(x) = max(x - 1/2, 0): the speed c/K of G is infinite below 1/2,
    # where G is flat; G(x) = (max(x, 1/2) - 1/2)^2 / 2 - 1/8, and the
    # uniform kernel (mass 2) gives a0 = 2.  The kernel declares the kink
    # 1/2 of K, so the table of G has a node there and reads exactly on
    # both sides of it
    model = ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: 1.0),
        frag=FragmentationKernel.relative(lambda x: max(x - 0.5, 0.0),
                                          uniform_ratio(), kinks=(0.5,)),
        domain_hint=(1e-2, 40.0), irreducible=True)
    h = build_h_pseudo_entrance(model, 2.0)

    def G(x):
        return (max(x, 0.5) - 0.5) ** 2 / 2.0 - 0.125

    a_inf = h.log_value(2.0) / G(2.0)
    for x in (1e-3, 0.01, 0.3, 0.45, 0.5, 0.55, 0.6, 0.9):
        assert h.log_value(x) == pytest.approx(-2.0 * G(x), rel=1e-12)
    for x in (1.5, 3.0, 39.0, 1000.0):
        assert h.log_value(x) == pytest.approx(a_inf * G(x), rel=1e-12)


# -- lambda2 ----------------------------------------------------------------

def test_lambda2_constant_ratio_flagged():
    # c = x, mean-conserving kernel: A id / id = 1 identically
    from conftest import make_conserving_linear
    model = make_conserving_linear()
    lam2 = lambda2_bound(model, identity_weight(model.growth))
    assert float(lam2) == pytest.approx(-1.0, abs=1e-8)
    assert lam2.is_constant


def test_lambda2_nonconstant_ratio():
    model = make_canonical()
    lam2 = lambda2_bound(model, identity_weight(model.growth))
    assert not lam2.is_constant
    # A id / id = 1/x for the canonical model; inf at the largest probe
    probes = model.probe_grid()
    assert float(lam2) == pytest.approx(-1.0 / probes[-1], rel=1e-6)
