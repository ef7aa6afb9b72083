"""serialize.dumps against the stdlib's indented encoder."""

import json
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from moyalmetric import ExponentTooLong
from moyalmetric.serialize import dumps

scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=30)


@given(documents)
def test_matches_the_indented_stdlib_encoder(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_an_int_past_the_digit_limit_is_too_long():
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ExponentTooLong):
        dumps({"x": [1, big]})
