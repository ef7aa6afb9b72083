"""The style-table renderer against the two renderers it replaced.

format_text and format_latex below are the earlier twin formatters, kept
verbatim with their helpers as the oracle: the one renderer must agree with
them byte for byte in both styles.
"""

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import exp_symbols, poly_symbols
from moyalmetric import (CoefficientTooLong, PhaseSymbol, format_expression,
                         parse_expression, solve_metric_series)
from moyalmetric.rationals import GaussianRational
from moyalmetric.serialize import rational_to_obj, symbol_to_obj
from moyalmetric.symbols import ExpQuadratic, MonoKey, _canon_key

# -- oracle: the earlier text renderer ----------------------------------------

_VAR_ORDER = (("g", 3), ("x", 0), ("p", 1), ("hbar", 2))


def _fraction_text(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _imag_text(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{_fraction_text(q)}*i"


def _coeff_pieces(c: GaussianRational) -> tuple[bool, str]:
    """(negated, text of |coeff|), with mixed complex values parenthesized."""
    if c.im == 0:
        neg = c.re < 0
        return neg, _fraction_text(-c.re if neg else c.re)
    if c.re == 0:
        neg = c.im < 0
        return neg, _imag_text(-c.im if neg else c.im)
    im = _imag_text(c.im)
    joiner = "" if im.startswith("-") else "+"
    return False, f"({_fraction_text(c.re)}{joiner}{im})"


def _monomial_text(key: MonoKey, coeff: GaussianRational) -> tuple[bool, str]:
    neg, ctext = _coeff_pieces(coeff)
    factors = []
    for name, idx in _VAR_ORDER:
        deg = key[idx]
        if deg == 0:
            continue
        factors.append(name if deg == 1 else f"{name}^{deg}")
    if not factors:
        return neg, ctext
    if ctext == "1":
        return neg, "*".join(factors)
    return neg, "*".join([ctext] + factors)


def _poly_text(poly: dict[MonoKey, GaussianRational]) -> str:
    pieces = []
    for key in sorted(poly, key=_canon_key):
        pieces.append(_monomial_text(key, poly[key]))
    return _join_signed(pieces)


def _join_signed(pieces: list[tuple[bool, str]]) -> str:
    out = []
    for idx, (neg, body) in enumerate(pieces):
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


def _quadratic_poly(eq: ExpQuadratic) -> dict[MonoKey, GaussianRational]:
    poly: dict[MonoKey, GaussianRational] = {}
    for scalar, (xd, pd) in ((eq.r, (0, 2)), (eq.s, (1, 1)), (eq.t, (2, 0))):
        for h, c in scalar:
            poly[(xd, pd, h, 0)] = c
    return poly


def _exp_text(eq: ExpQuadratic) -> str:
    return f"exp({_poly_text(_quadratic_poly(eq))})"


def format_text(sym: PhaseSymbol) -> str:
    parts = sym.parts
    if not parts:
        return "0"
    pieces: list[tuple[bool, str]] = []
    for eq in sorted(parts, key=ExpQuadratic.sort_key):
        poly = parts[eq]
        if eq.is_trivial:
            for key in sorted(poly, key=_canon_key):
                pieces.append(_monomial_text(key, poly[key]))
            continue
        etext = _exp_text(eq)
        if len(poly) == 1:
            key, coeff = next(iter(poly.items()))
            neg, body = _monomial_text(key, coeff)
            pieces.append((neg, etext if body == "1" else f"{body}*{etext}"))
        else:
            pieces.append((False, f"({_poly_text(poly)})*{etext}"))
    return _join_signed(pieces)


# -- oracle: the earlier LaTeX renderer ---------------------------------------

_LATEX_VARS = (("g", 3), ("x", 0), ("p", 1), ("\\hbar", 2))


def _latex_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _latex_coeff(c: GaussianRational) -> tuple[bool, str]:
    if c.im == 0:
        neg = c.re < 0
        return neg, _latex_fraction(-c.re if neg else c.re)
    if c.re == 0:
        neg = c.im < 0
        mag = -c.im if neg else c.im
        return neg, "i" if mag == 1 else f"{_latex_fraction(mag)}\\,i"
    re = _latex_fraction(c.re)
    neg_im = c.im < 0
    mag = -c.im if neg_im else c.im
    im = "i" if mag == 1 else f"{_latex_fraction(mag)}\\,i"
    return False, f"\\left({re} {'-' if neg_im else '+'} {im}\\right)"


def _latex_monomial(key: MonoKey, coeff: GaussianRational) -> tuple[bool, str]:
    neg, ctext = _latex_coeff(coeff)
    factors = []
    for name, idx in _LATEX_VARS:
        deg = key[idx]
        if deg == 0:
            continue
        factors.append(name if deg == 1 else f"{name}^{{{deg}}}")
    if not factors:
        return neg, ctext
    body = "\\,".join(factors)
    if ctext == "1":
        return neg, body
    return neg, f"{ctext}\\,{body}"


def _latex_poly(poly: dict[MonoKey, GaussianRational]) -> str:
    pieces = [_latex_monomial(key, poly[key])
              for key in sorted(poly, key=_canon_key)]
    return _join_signed(pieces)


def format_latex(sym: PhaseSymbol) -> str:
    parts = sym.parts
    if not parts:
        return "0"
    pieces: list[tuple[bool, str]] = []
    for eq in sorted(parts, key=ExpQuadratic.sort_key):
        poly = parts[eq]
        if eq.is_trivial:
            for key in sorted(poly, key=_canon_key):
                pieces.append(_latex_monomial(key, poly[key]))
            continue
        etext = f"e^{{{_latex_poly(_quadratic_poly(eq))}}}"
        if len(poly) == 1:
            key, coeff = next(iter(poly.items()))
            neg, body = _latex_monomial(key, coeff)
            pieces.append((neg, etext if body == "1" else f"{body}\\,{etext}"))
        else:
            pieces.append((False, f"\\left({_latex_poly(poly)}\\right)\\,{etext}"))
    return _join_signed(pieces)


# -- the renderer against the oracle ------------------------------------------

@given(poly_symbols())
def test_polynomial_symbols_match_the_oracle(sym):
    assert format_expression(sym, "text") == format_text(sym)
    assert format_expression(sym, "latex") == format_latex(sym)


@given(exp_symbols())
def test_exponential_symbols_match_the_oracle(sym):
    assert format_expression(sym, "text") == format_text(sym)
    assert format_expression(sym, "latex") == format_latex(sym)


def test_metric_series_match_the_oracle():
    series = solve_metric_series(parse_expression("i*x^3 + x^2"), 5)
    for n in range(series.max_order + 1):
        sym = series.order(n)
        assert format_expression(sym, "text") == format_text(sym)
        assert format_expression(sym, "latex") == format_latex(sym)


def test_latex_golden():
    sym = parse_expression("(1/2 - 3/4*i)*x*p^-1 + 2*(x+p)*exp(i*x*p/hbar)")
    assert format_expression(sym, "latex") == (
        "\\left(\\frac{1}{2} - \\frac{3}{4}\\,i\\right)\\,x\\,p^{-1}"
        " + \\left(2\\,p + 2\\,x\\right)\\,e^{i\\,x\\,p\\,\\hbar^{-1}}")


@pytest.mark.parametrize("coeff", [GaussianRational(2 ** 20000),
                                   GaussianRational(1, Fraction(1, 10 ** 5000))])
def test_coefficient_past_the_digit_limit(coeff):
    sym = PhaseSymbol.monomial(coeff, x=1)
    for style in ("text", "latex"):
        with pytest.raises(CoefficientTooLong, match="digits"):
            format_expression(sym, style)
    with pytest.raises(CoefficientTooLong, match="digits"):
        symbol_to_obj(sym)
    with pytest.raises(CoefficientTooLong):
        rational_to_obj(coeff)
