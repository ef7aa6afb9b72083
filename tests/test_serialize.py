"""serialize.dumps against the stdlib's indented encoder, the rational reader
against Fraction, and the symbol loader."""

import json
import math
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from moyalmetric import ExponentTooLong, GaussianRational, PhaseSymbol
from moyalmetric.serialize import dumps, rational_from_obj, symbol_from_obj

scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=30)


@given(documents)
# the encoder's one-append leaves: lists and tuples of strings, int dict values
@example(["1", "-22", "0", "\u00e9\n"])
@example(("a", "b"))
@example([""])
@example({"x": 3, "p": -4, "yes": True, "no": False, "big": 10 ** 30})
@example([])
@example({})
@example({"terms": [{"coeff": ["1", "2", "0", "1"], "x": 1, "exp": {"r": [[0, "1", "1", "0", "1"]]},
                     "flags": [True, 0, "s"], "empty": [[], {}, ("t",)]}]})
def test_matches_the_indented_stdlib_encoder(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_an_int_past_the_digit_limit_is_too_long():
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ExponentTooLong):
        dumps({"x": [1, big]})


nonzero = st.integers(-10 ** 6, 10 ** 6).filter(bool)


@given(st.integers(-10 ** 6, 10 ** 6), nonzero, st.integers(-10 ** 6, 10 ** 6), nonzero,
       st.sampled_from([str, int]))
@example(3, -6, -4, -6, str)
@example(0, -1, 0, 7, int)
def test_rational_entries_read_as_their_fractions(ren, red, imn, imd, form):
    # negative denominators and unreduced parts, as strings or JSON integers
    z = rational_from_obj([form(ren), form(red), form(imn), form(imd)])
    assert z == GaussianRational(Fraction(ren, red), Fraction(imn, imd))
    assert z._den > 0 and math.gcd(z._re, z._im, z._den) == 1


def test_symbol_documents_load_without_a_chain_of_sums(monkeypatch):
    adds = []
    add = PhaseSymbol.__add__
    monkeypatch.setattr(PhaseSymbol, "__add__", lambda a, b: adds.append(b) or add(a, b))
    counts = []
    for n in (20, 2000):
        adds.clear()
        # one term per entry, over two exponentials, the first entry twice
        terms = [{"exp": {"r": [[0, "1", "1", "0", "1"]] if k % 2 else [], "s": [], "t": []},
                  "poly": [{"coeff": ["1", "1", "0", "1"], "x": k % 7, "p": k, "hbar": 0, "g": 0}]}
                 for k in [*range(n), 0]]
        sym = symbol_from_obj({"terms": terms})
        assert sum(map(len, sym.parts.values())) == n
        counts.append(len(adds))
    assert counts[0] == counts[1]
