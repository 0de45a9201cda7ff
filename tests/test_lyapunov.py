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
    uniform_ratio,
)

from conftest import make_canonical, make_critical, make_mitosis


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
    from growfrag.model import generator_apply
    ratio = [generator_apply(model, report.h, x) / report.h(x)
             for x in probes]
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
    from growfrag.model import generator_apply
    ratio = [generator_apply(model, report.h, x) / report.h(x)
             for x in model.probe_grid()]
    assert max(ratio) <= report.b


# -- generic assumption verification ---------------------------------------

def test_verify_assumption1_integrates_each_probe_once(monkeypatch):
    # one kernel integral per probe for h, one per probe for lambda2 and a
    # bounded number for the golden-section refinement of sup A h/h
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    calls = []
    integral = RatioMeasure.integral

    def counted(self, *args, **kwargs):
        calls.append(1)
        return integral(self, *args, **kwargs)

    monkeypatch.setattr(RatioMeasure, "integral", counted)
    verify_assumption1(model, h)
    assert len(calls) <= 2 * len(model.probe_grid()) + 128


def test_verify_assumption1_bounds_ratio():
    model = make_canonical()
    h = build_h_pseudo_entrance(model, 2.0)
    report = verify_assumption1(model, h)
    assert report.passed
    probes = model.probe_grid()
    from growfrag.model import generator_apply
    ratio = np.array([generator_apply(model, h, x) / h(x) for x in probes])
    assert np.max(ratio) <= report.b + 1e-9


def test_verify_assumption1_rejects_inverse_weight():
    # h = 1/x blows up the tilted kernel mass for the uniform repartition
    model = make_canonical()
    h = WeightFunction(value=lambda x: 1.0 / x,
                       s_derivative=lambda x: -1.0 / x ** 2,
                       log_value=lambda x: -np.log(x))
    with pytest.raises((UnboundedAbove, QuadratureDivergence)):
        verify_assumption1(model, h)


def test_report_json_shape():
    model = make_canonical()
    report = verify_assumption1(model, build_h_pseudo_entrance(model, 2.0))
    payload = report.to_json()
    assert set(payload) == {"regime", "b", "lambda1", "lambda2", "L",
                            "checks"}
    assert len(payload["L"]) == 2
    assert all({"name", "margin", "pass"} == set(c)
               for c in payload["checks"])


# -- weight constructions --------------------------------------------------

def test_powerlaw_zero_exponents_give_constant():
    model = make_canonical()
    h = build_h_powerlaw(model, 0.0, 0.0)
    for x in (0.01, 1.0, 30.0):
        assert h(x) == pytest.approx(1.0, rel=1e-12)
        assert h.s_derivative(x) == pytest.approx(0.0, abs=1e-12)


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
