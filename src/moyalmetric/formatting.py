"""Canonical text and LaTeX rendering of one symbol (JSON goes to serialize).

Operators, series and reports are laid out line by line by the renderers of
the command table in `cli`, which call this module once per coefficient; the
`swanson` couplings print as constant symbols through it too.  This module and
`serialize` are the only code that turns a coefficient into text.

One renderer serves both styles.  A style table spells what differs between
them: fractions (3/4 or \\frac{3}{4}), powers (x^2 or x^{2}), products (* or
\\,), brackets, the gap around the sign inside a complex coefficient, and the
exponential (exp(..) or e^{..}).  The text style is the inverse of the
parser: rendering any symbol and parsing the result reproduces the symbol
exactly.  Terms come in the canonical order of `PhaseSymbol.sorted_parts`
(g, x, p, hbar exponents; exponential parts by their coefficient triples,
trivial part first), and an exponent's r, s, t terms in the order of
`ExpQuadratic.SHAPES`, which is the canonical one.  A coefficient or
an exponent past the interpreter's int-to-string digit limit raises
CoefficientTooLong or ExponentTooLong.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CoefficientTooLong, ExponentTooLong
from .rationals import GaussianRational
from .symbols import ExpQuadratic, MonoKey, PhaseSymbol


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


def _join_signed(pieces: list[tuple[bool, str]]) -> str:
    out = []
    for idx, (neg, body) in enumerate(pieces):
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


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


def format_expression(sym: PhaseSymbol, style: str = "text") -> str:
    """Render a symbol in the requested style: text or latex."""
    st = _STYLES.get(style)
    if st is None:
        raise ValueError(f"unknown style {style!r}")
    return _symbol(sym, st)
