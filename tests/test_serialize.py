"""serialize.dumps against the stdlib's indented encoder, the rational reader
against Fraction, the symbol and series writer against the document builders
it replaced, and the symbol loader."""

import json
import math
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import exp_symbols, tied_exp_symbols
from moyalmetric import (CoefficientTooLong, ExponentTooLong, GaussianRational, HbarScalar,
                         PhaseSymbol, parse_expression, solve_metric_series)
from moyalmetric.cli import main
from moyalmetric.series import MetricSeries
from moyalmetric.serialize import (dumps, rational_from_obj, rational_to_obj, series_to_obj,
                                   symbol_from_obj, symbol_to_obj)
from moyalmetric.symbols import ExpQuadratic


def _canon_key(key):
    """Canonical term order: by (gdeg, xdeg, pdeg, hdeg)."""
    return key[3], key[0], key[1], key[2]


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


# -- oracle: the document builders, the symbol one sorting a copy of the parts ---

def oracle_hbar_scalar_to_obj(scalar: HbarScalar) -> list:
    return [[h] + rational_to_obj(c) for h, c in scalar]


def oracle_symbol_to_obj(sym: PhaseSymbol) -> dict:
    parts = sym.parts
    terms = []
    for eq in sorted(parts, key=ExpQuadratic.sort_key):
        poly = parts[eq]
        poly_entries = []
        for key in sorted(poly, key=_canon_key):
            xd, pd, hd, gd = key
            poly_entries.append({"coeff": rational_to_obj(poly[key]),
                                 "x": xd, "p": pd, "hbar": hd, "g": gd})
        terms.append({"exp": {"r": oracle_hbar_scalar_to_obj(eq.r),
                              "s": oracle_hbar_scalar_to_obj(eq.s),
                              "t": oracle_hbar_scalar_to_obj(eq.t)},
                      "poly": poly_entries})
    return {"terms": terms}


def oracle_series_to_obj(series: MetricSeries) -> dict:
    return {"max_order": series.max_order,
            "orders": {str(n): oracle_symbol_to_obj(series.order(n))
                       for n in sorted(series.orders)}}


@given(st.one_of(tied_exp_symbols(), exp_symbols()))
@example(PhaseSymbol.zero())
def test_symbol_documents_match_the_oracle(sym):
    # dumps compares the key and list orders that dict equality ignores
    assert dumps(symbol_to_obj(sym)) == dumps(oracle_symbol_to_obj(sym))


# -- the writer of symbols and series against the oracle documents --------------

@given(st.one_of(tied_exp_symbols(), exp_symbols()))
@example(PhaseSymbol.zero())  # an empty terms list
def test_symbols_write_as_their_documents(sym):
    assert dumps(sym) == dumps(symbol_to_obj(sym)) == json.dumps(symbol_to_obj(sym), indent=2)
    assert dumps(sym) == json.dumps(oracle_symbol_to_obj(sym), indent=2)


@st.composite
def series_values(draw):
    """The g-slices of a symbol, exponents included, as a series of some larger order."""
    orders = draw(st.one_of(tied_exp_symbols(), exp_symbols())).g_slices()
    return MetricSeries(orders, max(orders, default=0) + draw(st.integers(0, 2)))


@given(series_values())
@example(MetricSeries({}, 3))  # an empty orders object
@example(solve_metric_series(parse_expression("i*x^3 + x^2"), 4))
def test_series_write_as_their_documents(series):
    assert (dumps(series) == dumps(series_to_obj(series))
            == json.dumps(series_to_obj(series), indent=2))
    assert dumps(series) == json.dumps(oracle_series_to_obj(series), indent=2)


def test_values_inside_documents_write_as_their_documents():
    sym = parse_expression("2*x*exp(i*x*p/hbar) - p")
    series = MetricSeries({0: sym}, 1)
    obj = {"a": [sym, series], "b": series}
    series_doc = oracle_series_to_obj(series)
    assert dumps(obj) == json.dumps({"a": [oracle_symbol_to_obj(sym), series_doc],
                                     "b": series_doc}, indent=2)


NINES = 10 ** 5000 - 1
LONG = GaussianRational(2 ** 20000)


@pytest.mark.parametrize("sym, error", [
    (PhaseSymbol.monomial(3, p=-NINES), ExponentTooLong),
    (PhaseSymbol.monomial(LONG, x=1), CoefficientTooLong),
    # the document holds every coefficient as text before any exponent is written
    (PhaseSymbol.monomial(1, x=NINES) + PhaseSymbol.monomial(LONG, g=1), CoefficientTooLong),
    (PhaseSymbol.exponential(ExpQuadratic(HbarScalar.hbar_power(1, NINES), HbarScalar(),
                                          HbarScalar())), ExponentTooLong),
])
def test_refusals_match_the_document_path(sym, error):
    # order 0 holds an exponent past the limit, ahead of sym's orders
    series = MetricSeries({0: PhaseSymbol.monomial(1, x=NINES),
                           **{n + 1: part for n, part in sym.g_slices().items()}}, 3)
    for value, to_obj in ((sym, symbol_to_obj), (series, series_to_obj)):
        with pytest.raises(error):
            dumps(to_obj(value))
        with pytest.raises(error):
            dumps(value)


def test_documents_refuse_a_coefficient_anywhere_ahead_of_an_exponent():
    # as when every symbol's document was built before any exponent was written
    exponent, coefficient = PhaseSymbol.monomial(1, x=NINES), PhaseSymbol.monomial(LONG, x=1)
    for value in (exponent, MetricSeries({0: exponent}, 1)):
        with pytest.raises(CoefficientTooLong):
            dumps({"terms": [{"dx": 0, "coeff": value}, {"dx": 1, "coeff": (coefficient,)}]})
    with pytest.raises(ExponentTooLong):
        dumps({"terms": [exponent, PhaseSymbol.monomial(3, x=1)], "dx": NINES})


def test_a_coefficient_inside_an_exponent_outranks_an_exponent():
    # the exponent x^NINES is met first, the long coefficient only in the scalar r
    long_r = ExpQuadratic(HbarScalar.constant(LONG), HbarScalar(), HbarScalar())
    sym = PhaseSymbol.monomial(1, x=NINES) + PhaseSymbol.exponential(long_r)
    for value in (sym, MetricSeries({0: sym}, 1), {"a": [1, {"b": (sym,)}]}):
        with pytest.raises(CoefficientTooLong):
            dumps(value)


@pytest.mark.parametrize("what, expr", [("coefficient", "2^99999*x"),
                                        ("exponent", f"(x^{'9' * 4000})^{'9' * 4000}")])
@pytest.mark.parametrize("argv", [("conj", "--expr"), ("dagger", "--expr"),
                                  ("star", "--left", "p", "--right")])
def test_refusals_read_the_same_in_every_format(capsys, argv, what, expr):
    seen = set()
    for fmt in ("text", "latex", "json"):
        code = main([*argv, expr, "--format", fmt])
        out, err = capsys.readouterr()
        assert out == ""
        seen.add((code, err))
    assert seen == {(1, f"error: {what} has more than {sys.get_int_max_str_digits()} digits, "
                        "too long to print\n")}
