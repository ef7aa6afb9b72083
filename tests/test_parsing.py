import random
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import I, exp_symbols, rand_poly
from moyalmetric import (G, KERNEL_EXP, NegativeXPower,
                         NonQuadraticExponent, ONE, P, ParseError, PhaseSymbol,
                         TRIVIAL_EXP, X, format_expression, parse_expression,
                         parse_hbar_scalar)
from moyalmetric import parsing
from moyalmetric.rationals import GaussianRational, HbarScalar
from moyalmetric.symbols import ExpQuadratic

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
