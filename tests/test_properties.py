"""Property-based tests (hypothesis)."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from growfrag.cli import _KNOWN_KEYS, dumps_stable, load_config
from growfrag.errors import ConfigError
from growfrag.model import (FragmentationKernel, GrowthSpec, ModelSpec,
                            RatioMeasure, power_ratio, uniform_ratio)
from growfrag.pde import SizeGrid, build_discrete_operator

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
    if density is None:
        measure = RatioMeasure(atoms=atoms)
    else:
        base = uniform_ratio() if density == "uniform" else power_ratio(
            density)
        measure = RatioMeasure(
            atoms=atoms, density=base.density,
            density_singular_at_zero=base.density_singular_at_zero)
    (k0, k_exp), (c0, c_exp) = rate, speed
    model = ModelSpec(
        growth=GrowthSpec.from_speed(lambda x: c0 * x ** c_exp),
        frag=FragmentationKernel.relative(lambda x: k0 * x ** k_exp,
                                          measure),
        domain_hint=(x_min, x_max))
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
