"""Property-based tests (hypothesis)."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from growfrag.cli import dumps_stable

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
