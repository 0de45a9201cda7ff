"""Property-based tests (hypothesis)."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from growfrag.cli import _KNOWN_KEYS, dumps_stable, load_config
from growfrag.errors import ConfigError

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
