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
`ExpQuadratic.SHAPES`, which is the canonical one.

Each term is written in one pass by `_terms`: its sign, coefficient and powers
straight from the coefficient's integer triple and the `MonoKey`, into one
list that is joined once.  The terms of an exponent go through the same loop,
and a part's exponential is one more factor after its powers.  A coefficient
or an exponent past the interpreter's int-to-string digit limit raises
CoefficientTooLong or ExponentTooLong, at the first term, in canonical order,
that holds one: a part's exponent before its terms, a term's coefficient
before its powers.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import CoefficientTooLong, ExponentTooLong
from .symbols import ExpQuadratic, PhaseSymbol


class _Style(NamedTuple):
    frac: tuple[str, str, str]  # n/d is frac[0] + n + frac[1] + d + frac[2]
    power: tuple[str, str]      # x^k is name + power[0] + k + power[1]
    times: str
    brackets: tuple[str, str]
    gap: str                    # each side of the sign in a mixed coefficient
    exp: tuple[str, str]
    names: tuple[str, str, str, str]  # the names of g, x, p and hbar, in the order written


_STYLES = {
    "text": _Style(("", "/", ""), ("^", ""), "*", ("(", ")"), "", ("exp(", ")"),
                   ("g", "x", "p", "hbar")),
    "latex": _Style(("\\frac{", "}{", "}"), ("^{", "}"), "\\,", ("\\left(", "\\right)"),
                    " ", ("e^{", "}"), ("g", "x", "p", "\\hbar")),
}


def _terms(terms, st: _Style, out: list[str], lead: bool, tail: str = "") -> None:
    """Append the signed text of (MonoKey, coefficient) terms to out, one string
    per term: '-' or nothing before the first when lead, else ' - ' or ' + '.
    A nonempty tail is one more factor after each term's powers, and stands alone
    for a coefficient of 1 with no powers."""
    f0, f1, f2 = st.frac
    p0, p1 = st.power
    times, gap = st.times, st.gap
    b0, b1 = st.brackets
    tg, tx, tp, th = [times + name for name in st.names]  # each power after a product sign
    minus, plus = ("-", "") if lead else (" - ", " + ")
    for (x, p, h, g), c in terms:
        re, im, den = c._re, c._im, c._den
        try:
            neg = re < 0 if not im else im < 0
            if not im:  # a real triple is in lowest terms already
                text = str(abs(re)) if den == 1 else f"{f0}{abs(re)}{f1}{den}{f2}"
            else:
                k = gcd(im, den)
                a, d = abs(im) // k, den // k
                text = ("i" if a == 1 else f"{a}{times}i") if d == 1 else f"{f0}{a}{f1}{d}{f2}{times}i"
                if re:  # mixed: bracketed, the sign of the imaginary part inside
                    k = gcd(re, den)
                    n, d = re // k, den // k
                    real = str(n) if d == 1 else f"{'-' if n < 0 else ''}{f0}{abs(n)}{f1}{d}{f2}"
                    text = f"{b0}{real}{gap}{'-' if neg else '+'}{gap}{text}{b1}"
                    neg = False
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise CoefficientTooLong from None
        try:
            powers = (tg if g == 1 else f"{tg}{p0}{g}{p1}") if g else ""
            if x:
                powers = f"{powers}{tx}" if x == 1 else f"{powers}{tx}{p0}{x}{p1}"
            if p:
                powers = f"{powers}{tp}" if p == 1 else f"{powers}{tp}{p0}{p}{p1}"
            if h:
                powers = f"{powers}{th}" if h == 1 else f"{powers}{th}{p0}{h}{p1}"
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise ExponentTooLong from None
        if tail:
            powers = f"{powers}{times}{tail}"
        if powers:
            text = powers[len(times):] if text == "1" else f"{text}{powers}"
        out.append(f"{minus}{text}" if neg else f"{plus}{text}")
        minus, plus = " - ", " + "


def _exponential(eq: ExpQuadratic, st: _Style) -> str:
    # r, s, t in turn, each by ascending hbar power: the canonical term order
    out = [st.exp[0]]
    _terms((((xd, pd, h, 0), c) for scalar, (xd, pd) in zip(eq, ExpQuadratic.SHAPES)
            for h, c in scalar), st, out, True)
    out.append(st.exp[1])
    return "".join(out)


def format_expression(sym: PhaseSymbol, style: str = "text") -> str:
    """Render a symbol in the requested style: text or latex."""
    st = _STYLES.get(style)
    if st is None:
        raise ValueError(f"unknown style {style!r}")
    out: list[str] = []
    for eq, terms in sym.sorted_parts():
        if eq.is_trivial:
            _terms(terms, st, out, not out)
        elif len(terms) == 1:
            _terms(terms, st, out, not out, _exponential(eq, st))
        else:
            etext = _exponential(eq, st)
            body: list[str] = []
            _terms(terms, st, body, True)
            out.append(f"{' + ' if out else ''}{st.brackets[0]}{''.join(body)}"
                       f"{st.brackets[1]}{st.times}{etext}")
    return "".join(out) or "0"
