import random
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import I, exp_symbols, gaussian_rationals, rand_poly
from moyalmetric import (G, KERNEL_EXP, NegativeXPower,
                         NonQuadraticExponent, ONE, P, ParseError, PhaseSymbol,
                         TRIVIAL_EXP, X, format_expression, parse_expression,
                         parse_hbar_scalar)
from moyalmetric import parsing
from moyalmetric.errors import PowerTooLarge
from moyalmetric.parsing import MAX_DEPTH, _to_quadratic, _tokenize
from moyalmetric.rationals import GaussianRational, HbarScalar
from moyalmetric.symbols import MAX_POWER_TERM_PAIRS, ExpQuadratic, _sum

mono = PhaseSymbol.monomial


class TestParse:
    def test_cubic_hamiltonian(self):
        assert parse_expression("p^2 + i*g*x^3") == P ** 2 + I * G * X ** 3

    def test_division_sugar(self):
        assert parse_expression("x^4/(4*hbar*p)") == mono(Fraction(1, 4), x=4,
                                                          p=-1, hbar=-1)
        assert parse_expression("1/4") == mono(Fraction(1, 4))
        assert parse_expression("3/4*i") == mono(GaussianRational(0, Fraction(3, 4)))

    def test_kernel_exponential(self):
        sym = parse_expression("exp(2*i*x*p/hbar)")
        assert sym == PhaseSymbol.exponential(KERNEL_EXP)

    def test_general_quadratic_exponential(self):
        sym = parse_expression("exp(p^2/hbar - x^2 + 2*x*p)")
        expected = ExpQuadratic(HbarScalar.hbar_power(1, -1),
                                HbarScalar.constant(2),
                                HbarScalar.constant(-2) / 2)
        assert sym == PhaseSymbol.exponential(expected)

    def test_precedence(self):
        assert parse_expression("-x^2") == -(X ** 2)
        assert parse_expression("2*x + 3*p") == 2 * X + 3 * P
        assert parse_expression("2*(x + p)") == 2 * X + 2 * P
        assert parse_expression("p^-2") == mono(1, p=-2)
        assert parse_expression("2^3") == mono(8)
        assert parse_expression("x - p - x") == -P
        assert parse_expression("2*-x") == -2 * X

    def test_whitespace_insensitive(self):
        assert parse_expression(" p ^ 2+i * g*x^3 ") == parse_expression("p^2+i*g*x^3")

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(ParseError) as info:
            parse_expression("p^2 +* x")
        assert info.value.offset == 5
        with pytest.raises(ParseError):
            parse_expression("")
        with pytest.raises(ParseError):
            parse_expression("x + ")
        with pytest.raises(ParseError):
            parse_expression("(x + p")
        with pytest.raises(ParseError):
            parse_expression("x y")
        with pytest.raises(ParseError):
            parse_expression("q + 1")
        with pytest.raises(ParseError):
            parse_expression("x ^ p")
        with pytest.raises(ParseError):
            parse_expression("3 @ 4")
        with pytest.raises(ParseError) as info:  # isdigit() but not a decimal digit
            parse_expression("x^²")
        assert info.value.offset == 2

    def test_nesting_depth_is_capped(self):
        depth = parsing.MAX_DEPTH
        assert parse_expression("(" * depth + "x" + ")" * depth) == X
        assert parse_expression("-" * depth + "x") == X
        with pytest.raises(ParseError) as info:
            parse_expression("(" * (depth + 1) + "x" + ")" * (depth + 1))
        assert info.value.offset == depth + 1
        with pytest.raises(ParseError) as info:
            parse_expression("exp(" * 3000 + "x^2" + ")" * 3000)
        assert info.value.offset == 4 * (depth + 1)

    def test_negative_x_power_errors(self):
        with pytest.raises(NegativeXPower):
            parse_expression("x^-1")
        with pytest.raises(NegativeXPower):
            parse_expression("g^-2")
        with pytest.raises(NegativeXPower):
            parse_expression("p/(x)")

    def test_division_by_a_monomial_is_term_by_term(self):
        assert parse_expression("x^2/x") == X
        assert parse_expression("x*p/x") == P
        assert parse_expression("g^2/g") == G
        assert parse_expression("x/(2*x)") == mono(Fraction(1, 2))
        assert parse_expression("(x^3*g + x*exp(x^2))/(2*i*x)") == (
            mono(GaussianRational(0, Fraction(-1, 2)), x=2, g=1)
            + mono(GaussianRational(0, Fraction(-1, 2))) * PhaseSymbol.exponential(
                ExpQuadratic(HbarScalar(), HbarScalar(), HbarScalar.constant(1))))
        for text, offset in (("p/x", 1), ("exp(x^2)/x", 8), ("x*g/g^2", 3)):
            with pytest.raises(NegativeXPower, match="^division would produce a negative "
                               f"power of x or g \\(at byte {offset}\\)$"):
                parse_expression(text)

    @given(exp_symbols(), gaussian_rationals.filter(bool), st.integers(0, 3),
           st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2))
    def test_a_product_divided_by_its_monomial_factor(self, sym, c, x, p, h, g):
        den = mono(c, x=x, p=p, hbar=h, g=g)
        text = f"({format_expression(sym * den)})/({format_expression(den)})"
        assert parse_expression(text) == sym

    def test_divisor_must_be_monomial(self):
        with pytest.raises(ParseError):
            parse_expression("1/(1 + x)")
        with pytest.raises(ParseError):
            parse_expression("x/exp(x^2)")

    def test_division_by_zero_is_named(self):
        for text in ("x/0", "x/(1-1)"):
            with pytest.raises(ParseError, match="^division by zero \\(at byte 1\\)$"):
                parse_expression(text)

    def test_sums_merge_their_terms_once(self, monkeypatch):
        adds = []
        add = PhaseSymbol.__add__
        monkeypatch.setattr(PhaseSymbol, "__add__", lambda a, b: adds.append(b) or add(a, b))
        counts = []
        for n in (20, 2000):
            adds.clear()
            sym = parse_expression("+".join(f"x^{k}" for k in range(1, n + 1)) + "-x")
            assert len(sym.parts[TRIVIAL_EXP]) == n - 1
            counts.append(len(adds))
        assert counts[0] == counts[1]

    def test_non_quadratic_exponent(self):
        with pytest.raises(NonQuadraticExponent):
            parse_expression("exp(x^3)")
        with pytest.raises(NonQuadraticExponent):
            parse_expression("exp(x)")
        with pytest.raises(NonQuadraticExponent):
            parse_expression("exp(g*x^2)")
        with pytest.raises(NonQuadraticExponent):
            parse_expression("exp(exp(x^2))")

    def test_hbar_scalar(self):
        assert parse_hbar_scalar("2*i/hbar") == HbarScalar.hbar_power(2 * I, -1)
        assert parse_hbar_scalar("0") == HbarScalar()
        with pytest.raises(ParseError):
            parse_hbar_scalar("x")


class TestFormat:
    def test_zero(self):
        assert format_expression(PhaseSymbol.zero(), "text") == "0"
        assert format_expression(PhaseSymbol.zero(), "latex") == "0"

    def test_canonical_ordering(self):
        sym = mono(Fraction(1, 4), x=4, p=-1, hbar=-1, g=1)
        assert format_expression(sym, "text") == "1/4*g*x^4*p^-1*hbar^-1"

    def test_sign_joining(self):
        sym = ONE - X + mono(GaussianRational(0, -1), p=1)
        assert format_expression(sym, "text") == "1 - i*p - x"

    def test_mixed_coefficient_parenthesized(self):
        sym = mono(GaussianRational(1, -2), x=1)
        text = format_expression(sym, "text")
        assert text == "(1-2*i)*x"
        assert parse_expression(text) == sym

    def test_exponential_rendering(self):
        kernel = PhaseSymbol.exponential(KERNEL_EXP)
        text = format_expression(kernel, "text")
        assert text == "exp(2*i*x*p*hbar^-1)"
        assert parse_expression(text) == kernel
        pref = (X + ONE) * kernel
        assert parse_expression(format_expression(pref, "text")) == pref

    def test_latex_contains_expected_tokens(self):
        sym = mono(Fraction(3, 4), x=2, hbar=-1) + mono(GaussianRational(0, 1), p=1)
        latex = format_expression(sym, "latex")
        assert "\\hbar" in latex and "\\frac{3}{4}" in latex and "i\\,p" in latex

    def test_json_style_round_trips(self):
        import json

        from moyalmetric.serialize import dumps, symbol_from_obj, symbol_to_obj

        sym = mono(Fraction(1, 3), x=1, p=-2) + ONE
        doc = dumps(symbol_to_obj(sym))
        assert symbol_from_obj(json.loads(doc)) == sym

    def test_unknown_style(self):
        # JSON is written by serialize alone
        for style in ("html", "json"):
            with pytest.raises(ValueError, match=f"unknown style '{style}'"):
                format_expression(ONE, style)


class TestRoundTrip:
    @given(exp_symbols())
    def test_parse_format_identity(self, sym):
        assert parse_expression(format_expression(sym, "text")) == sym

    def test_seeded_random_round_trip(self):
        rng = random.Random(424242)
        for _ in range(100):
            sym = rand_poly(rng, max_terms=4, max_x=4, min_p=-4, max_p=4,
                            min_h=-3, max_h=3, max_g=3)
            assert parse_expression(format_expression(sym, "text")) == sym

    def test_grammar_totality_on_computed_values(self):
        from moyalmetric import (gaussian_metric_candidates, solve_metric_series,
                                 swanson_from_ladder)
        from moyalmetric.rationals import HS_ZERO

        values = []
        series = solve_metric_series(I * X ** 3, 2)
        values.extend(series.order(n) for n in range(3))
        values.append((P ** 2 + I * G * X ** 3).dagger())
        params = swanson_from_ladder(2, 1, 0)
        for eq in gaussian_metric_candidates(params, HS_ZERO):
            values.append(PhaseSymbol.exponential(eq))
        for sym in values:
            assert parse_expression(format_expression(sym, "text")) == sym


# -- the earlier parser as the oracle ------------------------------------------
#
# It built a PhaseSymbol for every factor and multiplied them through
# PhaseSymbol.__mul__; parse_expression now folds monomial factors as
# (key, coefficient) pairs and must give the same symbol or the same error.

_VARIABLES = {
    "x": PhaseSymbol.monomial(1, x=1),
    "p": PhaseSymbol.monomial(1, p=1),
    "hbar": PhaseSymbol.monomial(1, hbar=1),
    "g": PhaseSymbol.monomial(1, g=1),
    "i": PhaseSymbol.monomial(GaussianRational(0, 1)),
}


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
        terms = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            terms.append(rhs if op[0] == "+" else -rhs)
        return terms[0] if len(terms) == 1 else _sum(terms)

    def term(self) -> PhaseSymbol:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op[0] == "*":
                value = value * rhs
            else:
                value = self._divide(value, rhs, op[2])
        return value

    def _divide(self, num: PhaseSymbol, den: PhaseSymbol, offset: int) -> PhaseSymbol:
        """num / den for a monomial den, term by term: each quotient term has the
        exponents of a term of num less those of den, and so may keep x or g."""
        if not den:
            raise ParseError("division by zero", offset)
        (eq, terms), *rest = den.sorted_parts()
        if rest or not eq.is_trivial or len(terms) != 1:
            raise ParseError(
                "divisor must be a product of literals and variable powers", offset)
        ((dx, dp, dh, dg), dc), = terms
        try:
            return PhaseSymbol({part: {(x - dx, p - dp, h - dh, g - dg): c / dc
                                       for (x, p, h, g), c in poly.items()}
                                for part, poly in num.parts.items()})
        except ValueError:
            raise NegativeXPower(
                "division would produce a negative power of x or g", offset) from None

    def factor(self) -> PhaseSymbol:
        # every recursion of the grammar passes through here
        tok = self.peek()
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok[2])
        self.depth += 1
        if tok[0] == "-":
            self.advance()
            value = -self.factor()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> PhaseSymbol:
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
        try:
            return value ** exponent
        except ValueError as exc:
            # only a one-term polynomial, x^a*g^b with a or b, is refused for its x or g
            parts = value.parts
            raise (NegativeXPower if len(parts.get(TRIVIAL_EXP, ())) == 1 == len(parts)
                   else ParseError)(str(exc), base_offset) from None

    def atom(self) -> PhaseSymbol:
        tok = self.peek()
        kind, text, offset = tok
        if kind == "number":
            return PhaseSymbol.monomial(self.number())
        if kind == "name":
            self.advance()
            if text == "exp":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return PhaseSymbol.exponential(_to_quadratic(inner, offset))
            sym = _VARIABLES.get(text)
            if sym is None:
                raise ParseError(f"unknown name {text!r}", offset)
            return sym
        if kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", offset)


def outcome(parse, text):
    try:
        return "value", parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def assert_parses_like_the_oracle(text):
    assert (outcome(parse_expression, text)
            == outcome(lambda t: _Parser(t).parse(), text)), text


def _grow_expression(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "*-", "/-"]), inner).map("".join),
        inner.map("({})".format),
        inner.map("-{}".format),
        inner.map("exp({})".format),
        st.tuples(inner, st.integers(-3, 4)).map("{0[0]}^{0[1]}".format),
        st.tuples(inner, st.integers(-3, 4)).map("({0[0]})^{0[1]}".format))


_PARSER_EXPRESSIONS = st.recursive(
    st.sampled_from(["0", "1", "2", "7", "12", "i", "x", "p", "hbar", "g", "q",
                     "exp(i*x*p/hbar)", "exp(-p^2)", "exp(hbar*x^2)", "exp(x)"]),
    _grow_expression, max_leaves=8)


def _short(text):
    return text if len(text) < 40 else f"{text[:30]}...({len(text)} chars)"


class TestAgainstTheEarlierParser:
    @pytest.mark.parametrize("text", [
        "+".join(f"x^{k}" for k in range(1, 8001)),
        "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
        "-" * MAX_DEPTH + "2*x", "-" * (MAX_DEPTH + 1) + "2*x",
        "x*" + "-" * MAX_DEPTH + "p", "x*" + "-" * (MAX_DEPTH + 1) + "p",
        "x/0", "x/(1-1)", "0/x", "0*p/x", "2/x", "x^-1", "g^-2", "0^-1", "0^0", "0^3",
        "(x+p)^-1", "(2*x)^-1", "(1+1)^-2", "2^-2", "i^-3", "hbar^-2*p^-1", "p/x", "x/(2*x)",
        "x/(x+1)", "x/exp(x^2)", "exp(x^2)/x", "x*g/g^2", "(x^3*g + x*exp(x^2))/(2*i*x)",
        "2*-x", "x^2^3", "x y", "3/4*i", "x^4/(4*hbar*p)", "exp(2*i*x*p/hbar)*x^2/hbar",
        "2^100000", "(3*i)^-100000", "i^" + "9" * 1000, "x^" + "9" * 5000,
        "(1+x+p)^30*exp(x^2)",
    ], ids=_short)
    def test_listed_texts(self, text):
        assert_parses_like_the_oracle(text)

    @pytest.mark.parametrize("text", [
        "(1+x)^200*(1+p)^100", "(" + "+".join(f"x^{k}" for k in range(20001)) + ")*2*p",
    ], ids=_short)
    def test_products_past_the_budget(self, text):
        kind, message, _ = outcome(parse_expression, text)
        assert kind is PowerTooLarge
        assert message.endswith(f"past the limit of {MAX_POWER_TERM_PAIRS}")
        assert_parses_like_the_oracle(text)

    @settings(max_examples=400, derandomize=True)
    @given(_PARSER_EXPRESSIONS)
    def test_grammar_strings(self, text):
        assert_parses_like_the_oracle(text)

    @settings(max_examples=300, derandomize=True)
    @given(st.one_of(st.text(" 0123456789ixpghbarexp()+-*/^", max_size=30),
                     st.text(max_size=20)))
    def test_arbitrary_text(self, text):
        assert_parses_like_the_oracle(text)
