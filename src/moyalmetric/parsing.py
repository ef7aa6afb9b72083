"""Recursive-descent parser for phase-space symbol expressions.

Grammar (standard precedence: ^ binds tighter than unary minus, which binds
tighter than * and /, which bind tighter than binary + and -; * / and + -
associate to the left):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" integer)?
    atom    := NUMBER | "i" | "x" | "p" | "hbar" | "g"
             | "(" expr ")" | "exp" "(" expr ")"

NUMBER is a non-negative integer literal; rationals are written with the
division operator ("3/4").  Parentheses, exp(...) and unary minus may nest
at most MAX_DEPTH levels deep.  A divisor must reduce to a single monomial (a
product of literals and variable powers), which divides term by term; a
quotient term with a negative power of x or g is refused.  Arguments of
exp(...) must reduce to quadratic forms r*p^2 + s*p*x + t*x^2 with
Laurent-hbar coefficients.

Monomial factors are folded while parsing: a number, a variable, an integer
power of one and the unary minus of one are (key, coefficient) pairs, and
* and / between two pairs add or subtract their keys and multiply or divide
their coefficients.  A PhaseSymbol is built once per term, and where a
factor is a parenthesised expression or exp(...), which then multiplies or
divides as a symbol.
"""

from __future__ import annotations

import sys

from .errors import NegativeXPower, NonQuadraticExponent, ParseError
from .rationals import ONE, GaussianRational, HbarScalar, I
from .symbols import TRIVIAL_EXP, ExpQuadratic, PhaseSymbol, _sum

_ORIGIN = (0, 0, 0, 0)

# names of monomials, as (key, coefficient) pairs
_VARIABLES = {
    "x": ((1, 0, 0, 0), ONE),
    "p": ((0, 1, 0, 0), ONE),
    "hbar": ((0, 0, 1, 0), ONE),
    "g": ((0, 0, 0, 1), ONE),
    "i": (_ORIGIN, I),
}

_PUNCT = set("+-*/^()")

#: Deepest nesting of factors (parentheses, exp(...), unary minus) accepted;
#: each level costs the recursive descent a handful of interpreter frames.
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdecimal():  # what int() accepts; superscripts are isdigit() only
            start = pos
            while pos < size and text[pos].isdecimal():
                pos += 1
            tokens.append(("number", text[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            while pos < size and text[pos].isalpha():
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", size))
    return tokens


def _symbol(value) -> PhaseSymbol:
    """A factor as a symbol: a (key, coefficient) pair becomes a one-term symbol.  A
    pair with a nonzero coefficient never holds a negative power of x or g."""
    if type(value) is not tuple:
        return value
    key, coeff = value
    return PhaseSymbol._from_parts({TRIVIAL_EXP: {key: coeff}} if coeff else {})


def _negated(value):
    return (value[0], -value[1]) if type(value) is tuple else -value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # factors enclosing the one being parsed

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def number(self) -> int:
        _, text, offset = self.expect("number")
        try:
            return int(text)
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise ParseError(f"number has more than {sys.get_int_max_str_digits()} digits",
                             offset) from None

    def parse(self) -> PhaseSymbol:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self) -> PhaseSymbol:
        terms = [_symbol(self.term())]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            terms.append(_symbol(rhs if op[0] == "+" else _negated(rhs)))
        return terms[0] if len(terms) == 1 else _sum(terms)

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op[0] == "/":
                value = self._divide(value, rhs, op[2])
            elif type(value) is tuple and type(rhs) is tuple:
                (k1, c1), (k2, c2) = value, rhs
                value = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3]), c1 * c2
            else:
                value = _symbol(value) * _symbol(rhs)
        return value

    def _divide(self, num, den, offset: int):
        """num / den for a monomial den, term by term: each quotient term has the
        exponents of a term of num less those of den, and so may keep x or g."""
        if type(den) is not tuple:
            if not den:
                raise ParseError("division by zero", offset)
            (eq, terms), *rest = den.sorted_parts()
            if rest or not eq.is_trivial or len(terms) != 1:
                raise ParseError(
                    "divisor must be a product of literals and variable powers", offset)
            den, = terms
        (dx, dp, dh, dg), dc = den
        if not dc:
            raise ParseError("division by zero", offset)
        if type(num) is tuple:
            (x, p, h, g), c = num
            c = c / dc
            if not c or (x >= dx and g >= dg):
                return (x - dx, p - dp, h - dh, g - dg), c
        else:
            try:
                return PhaseSymbol({part: {(x - dx, p - dp, h - dh, g - dg): c / dc
                                           for (x, p, h, g), c in poly.items()}
                                    for part, poly in num.parts.items()})
            except ValueError:
                pass
        raise NegativeXPower("division would produce a negative power of x or g", offset)

    def factor(self):
        # every recursion of the grammar passes through here
        tok = self.peek()
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok[2])
        self.depth += 1
        if tok[0] == "-":
            self.advance()
            value = _negated(self.factor())
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        base_offset = self.peek()[2]
        value = self.atom()
        if self.peek()[0] != "^":
            return value
        self.advance()
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        exponent = -self.number() if negate else self.number()
        if type(value) is tuple:
            key, coeff = value
            if exponent >= 0 or coeff and not (key[0] or key[3]):
                if coeff is not ONE:  # a variable's
                    coeff = coeff ** exponent
                return (key[0] * exponent, key[1] * exponent, key[2] * exponent,
                        key[3] * exponent), coeff
            value = _symbol(value)  # whose power names what cannot be inverted
        try:
            return value ** exponent
        except ValueError as exc:
            # only a one-term polynomial, x^a*g^b with a or b, is refused for its x or g
            parts = value.parts
            raise (NegativeXPower if len(parts.get(TRIVIAL_EXP, ())) == 1 == len(parts)
                   else ParseError)(str(exc), base_offset) from None

    def atom(self):
        tok = self.peek()
        kind, text, offset = tok
        if kind == "number":
            return _ORIGIN, GaussianRational(self.number())
        if kind == "name":
            self.advance()
            if text == "exp":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return PhaseSymbol.exponential(_to_quadratic(inner, offset))
            pair = _VARIABLES.get(text)
            if pair is None:
                raise ParseError(f"unknown name {text!r}", offset)
            return pair
        if kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", offset)


def _shaped(sym: PhaseSymbol, shapes, error: ParseError) -> list[HbarScalar]:
    """The hbar scalar of sym's terms x^a p^b for each shape (a, b) in shapes; any
    other term, an exponential factor or a power of g raises error."""
    found = {shape: [] for shape in shapes}
    for eq, (xd, pd, hd, gd), coeff in sym.iter_terms():
        if not eq.is_trivial or gd or (xd, pd) not in found:
            raise error
        found[xd, pd].append((hd, coeff))
    return [HbarScalar(found[shape]) for shape in shapes]


def _to_quadratic(sym: PhaseSymbol, offset: int) -> ExpQuadratic:
    return ExpQuadratic(*_shaped(sym, ExpQuadratic.SHAPES, NonQuadraticExponent(
        "exp argument must be a quadratic form in p and x", offset)))


def parse_expression(text: str) -> PhaseSymbol:
    """Parse expression text into a canonical PhaseSymbol."""
    return _Parser(text).parse()


def parse_hbar_scalar(text: str) -> HbarScalar:
    """Parse a Laurent scalar in hbar (no x, p or g dependence allowed)."""
    scalar, = _shaped(parse_expression(text), ((0, 0),),
                      ParseError("expected a scalar in hbar only", 0))
    return scalar
