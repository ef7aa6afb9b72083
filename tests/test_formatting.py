"""The one-pass renderer against the renderers it replaced.

format_text and format_latex below are the earlier twin formatters, kept
verbatim with their helpers as the oracle: the one renderer must agree with
them byte for byte in both styles.  chain_format_expression is the style-table
renderer that built each term through _monomial -> _coeff -> _fraction/_imag,
a factor list and a second joining pass, kept verbatim as the oracle of the
one-pass term loop.
"""

from fractions import Fraction
from typing import NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import I, exp_symbols, gaussian_rationals, poly_symbols, tied_exp_symbols
from moyalmetric import (CoefficientTooLong, ExponentTooLong, HbarScalar, PhaseSymbol,
                         format_expression, parse_expression, solve_metric_series)
from moyalmetric.rationals import GaussianRational
from moyalmetric.serialize import rational_to_obj, symbol_to_obj
from moyalmetric.symbols import TRIVIAL_EXP, ExpQuadratic, MonoKey


def _canon_key(key):
    """Canonical term order: by (gdeg, xdeg, pdeg, hdeg)."""
    return key[3], key[0], key[1], key[2]


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


# -- oracle: the _monomial-chain style-table renderer ---------------------------

class _Style(NamedTuple):
    frac: tuple[str, str, str]  # n/d is frac[0] + n + frac[1] + d + frac[2]
    power: tuple[str, str]      # x^k is name + power[0] + k + power[1]
    times: str
    brackets: tuple[str, str]
    gap: str                    # each side of the sign in a mixed coefficient
    exp: tuple[str, str]
    names: tuple[tuple[str, int], ...]  # variable name and MonoKey index


_STYLES = {
    "text": _Style(("", "/", ""), ("^", ""), "*", ("(", ")"), "", ("exp(", ")"),
                   (("g", 3), ("x", 0), ("p", 1), ("hbar", 2))),
    "latex": _Style(("\\frac{", "}{", "}"), ("^{", "}"), "\\,", ("\\left(", "\\right)"),
                    " ", ("e^{", "}"), (("g", 3), ("x", 0), ("p", 1), ("\\hbar", 2))),
}


def _fraction(n: int, d: int, st: _Style) -> str:
    try:
        if d == 1:
            return str(n)
        sign = "-" if n < 0 else ""
        return f"{sign}{st.frac[0]}{abs(n)}{st.frac[1]}{d}{st.frac[2]}"
    except ValueError:  # past the interpreter's int-to-string digit limit
        raise CoefficientTooLong from None


def _imag(n: int, d: int, st: _Style) -> str:
    """n/d * i for n > 0."""
    return "i" if n == d == 1 else f"{_fraction(n, d, st)}{st.times}i"


def _coeff(c: GaussianRational, st: _Style) -> tuple[bool, str]:
    """(negated, text of |coeff|), with mixed complex values bracketed."""
    rn, rd, im, idn = c.as_integer_ratios()
    if not im:
        return rn < 0, _fraction(abs(rn), rd, st)
    if not rn:
        return im < 0, _imag(abs(im), idn, st)
    sign = "-" if im < 0 else "+"
    return False, (f"{st.brackets[0]}{_fraction(rn, rd, st)}{st.gap}{sign}{st.gap}"
                   f"{_imag(abs(im), idn, st)}{st.brackets[1]}")


def _monomial(key: MonoKey, coeff: GaussianRational, st: _Style) -> tuple[bool, str]:
    neg, ctext = _coeff(coeff, st)
    try:
        factors = [name if key[idx] == 1 else f"{name}{st.power[0]}{key[idx]}{st.power[1]}"
                   for name, idx in st.names if key[idx]]
    except ValueError:  # past the interpreter's int-to-string digit limit
        raise ExponentTooLong from None
    if not factors:
        return neg, ctext
    if ctext != "1":
        factors.insert(0, ctext)
    return neg, st.times.join(factors)


# _join_signed is shared with the twin formatters above, byte for byte


def _exponential(eq: ExpQuadratic, st: _Style) -> str:
    # r, s, t in turn, each by ascending hbar power: the canonical term order
    terms = [_monomial((xd, pd, h, 0), c, st)
             for scalar, (xd, pd) in zip(eq, ExpQuadratic.SHAPES) for h, c in scalar]
    return f"{st.exp[0]}{_join_signed(terms)}{st.exp[1]}"


def _symbol(sym: PhaseSymbol, st: _Style) -> str:
    pieces: list[tuple[bool, str]] = []
    for eq, terms in sym.sorted_parts():
        if eq.is_trivial:
            pieces += [_monomial(key, coeff, st) for key, coeff in terms]
            continue
        etext = _exponential(eq, st)
        monomials = [_monomial(key, coeff, st) for key, coeff in terms]
        if len(monomials) == 1:
            (neg, body), = monomials
            pieces.append((neg, etext if body == "1" else f"{body}{st.times}{etext}"))
        else:
            body = _join_signed(monomials)
            pieces.append((False, f"{st.brackets[0]}{body}{st.brackets[1]}{st.times}{etext}"))
    return _join_signed(pieces) or "0"


def chain_format_expression(sym: PhaseSymbol, style: str = "text") -> str:
    """Render a symbol in the requested style: text or latex."""
    st = _STYLES.get(style)
    if st is None:
        raise ValueError(f"unknown style {style!r}")
    return _symbol(sym, st)


# -- the renderer against the oracles -----------------------------------------

@given(poly_symbols())
def test_polynomial_symbols_match_the_oracle(sym):
    assert format_expression(sym, "text") == format_text(sym)
    assert format_expression(sym, "latex") == format_latex(sym)


@given(st.one_of(exp_symbols(), tied_exp_symbols()))
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


# -- the one-pass term loop against the _monomial chain -------------------------

units = st.sampled_from([GaussianRational(1), GaussianRational(-1), I, -I])
coefficients = st.one_of(units, gaussian_rationals)


@st.composite
def unit_scalars(draw):
    """Laurent scalars whose coefficients are often 1, -1, i or -i."""
    return HbarScalar([(draw(st.integers(-3, 2)), draw(coefficients))
                       for _ in range(draw(st.integers(0, 2)))])


@st.composite
def render_symbols(draw):
    """Up to four parts, trivial or exponential, with unit, real, imaginary and
    mixed coefficients and negative powers of p and hbar."""
    parts = {}
    for _ in range(draw(st.integers(1, 4))):
        eq = (TRIVIAL_EXP if draw(st.booleans())
              else ExpQuadratic(draw(unit_scalars()), draw(unit_scalars()), draw(unit_scalars())))
        poly = parts.setdefault(eq, {})
        for _ in range(draw(st.integers(1, 3))):
            key = (draw(st.integers(0, 3)), draw(st.integers(-3, 3)), draw(st.integers(-3, 3)),
                   draw(st.integers(0, 2)))
            poly[key] = poly.get(key, GaussianRational(0)) + draw(coefficients)
    return PhaseSymbol(parts)


@given(st.one_of(render_symbols(), exp_symbols(), tied_exp_symbols()))
def test_symbols_match_the_chain_renderer(sym):
    for style in ("text", "latex"):
        assert format_expression(sym, style) == chain_format_expression(sym, style)


@pytest.mark.parametrize("order", [13, 24])
def test_cubic_series_match_the_chain_renderer(order):
    series = solve_metric_series(parse_expression("i*x^3"), order)
    for n in range(order + 1):
        for style in ("text", "latex"):
            sym = series.order(n)
            assert format_expression(sym, style) == chain_format_expression(sym, style)


NINES = 10 ** 5000 - 1
LONG = GaussianRational(2 ** 20000)
LONG_EXP = PhaseSymbol.exponential(ExpQuadratic(HbarScalar(), HbarScalar.hbar_power(1, NINES),
                                                HbarScalar()))


@pytest.mark.parametrize("sym", [
    PhaseSymbol.monomial(LONG, x=NINES),  # a term's coefficient before its powers
    PhaseSymbol.monomial(1, x=NINES) + PhaseSymbol.monomial(LONG, g=1),
    PhaseSymbol.monomial(LONG, x=1) + PhaseSymbol.monomial(1, p=-NINES, g=1),
    LONG_EXP * PhaseSymbol.monomial(LONG),  # a part's exponent before its terms
    LONG_EXP * PhaseSymbol.monomial(I, x=NINES) + LONG_EXP * PhaseSymbol.monomial(LONG, p=1),
], ids=["both-in-one-term", "exponent-first", "coefficient-first", "exp-then-term",
        "exp-then-terms"])
def test_refusals_match_the_chain_renderer(sym):
    for style in ("text", "latex"):
        with pytest.raises((CoefficientTooLong, ExponentTooLong)) as new:
            format_expression(sym, style)
        with pytest.raises((CoefficientTooLong, ExponentTooLong)) as old:
            chain_format_expression(sym, style)
        assert type(new.value) is type(old.value)


@st.composite
def exponential_parts(draw):
    """Symbols of two to five parts, at most one trivial, whose exponents often tie
    on a leading field and mix denominators."""
    scalar = st.one_of(st.sampled_from([HbarScalar(), HbarScalar.constant(1),
                                        HbarScalar.constant(Fraction(1, 2))]), unit_scalars())
    eqs = draw(st.lists(st.builds(ExpQuadratic, scalar, scalar, scalar), min_size=2,
                        max_size=5, unique=True))
    return PhaseSymbol({eq: {(0, 0, 0, 0): GaussianRational(1)} for eq in eqs})


@given(exponential_parts())
def test_sorted_parts_order_the_parts_by_sort_key(sym):
    assert len(sym.parts) >= 2
    assert [eq for eq, _ in sym.sorted_parts()] == sorted(sym.parts, key=ExpQuadratic.sort_key)
