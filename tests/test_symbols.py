import math
import random
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import I, exp_symbols, poly_symbols, pooled_exp_symbols, rand_fraction, rand_poly
from moyalmetric import (G, HBAR, KERNEL_EXP, NonTerminatingStar,
                         NonTerminatingTwist, ONE, P, PhaseSymbol, X, ZERO,
                         GaussianRational, HbarScalar)
from moyalmetric import symbols
from moyalmetric.errors import LiveOrderTooLarge, PowerTooLarge
from moyalmetric.symbols import TRIVIAL_EXP, ExpQuadratic, _live, _live_order

mono = PhaseSymbol.monomial
KERNEL = PhaseSymbol.exponential(KERNEL_EXP)


def quad(r=0, s=0, t=0):
    return ExpQuadratic(HbarScalar.coerce(r), HbarScalar.coerce(s),
                        HbarScalar.coerce(t))


def evaluate_exact(sym: PhaseSymbol, x, p, hbar, g) -> GaussianRational:
    """Evaluate at exact rational points; defined for polynomial symbols."""
    if not sym.is_polynomial:
        raise ValueError("exact evaluation requires a polynomial symbol")
    xv, pv = GaussianRational.coerce(x), GaussianRational.coerce(p)
    hv, gv = GaussianRational.coerce(hbar), GaussianRational.coerce(g)
    total = GaussianRational()
    for poly in sym.parts.values():
        for (xd, pd, hd, gd), coeff in poly.items():
            total = total + coeff * xv ** xd * pv ** pd * hv ** hd * gv ** gd
    return total


def _term_pair_product(a: PhaseSymbol, b: PhaseSymbol) -> PhaseSymbol:
    """a * b by the loop over every pair of terms, through the checking constructor."""
    acc = {}
    for eq1, poly1 in a.parts.items():
        for eq2, poly2 in b.parts.items():
            dst = acc.setdefault(eq1.combined(eq2), {})
            for k1, c1 in poly1.items():
                for k2, c2 in poly2.items():
                    key = tuple(u + v for u, v in zip(k1, k2))
                    dst[key] = dst.get(key, 0) + c1 * c2
    return PhaseSymbol(acc)


class TestRingOps:
    def test_additive_inverse(self):
        assert X + (-X) == ZERO
        assert not (X - X)

    @given(st.one_of(poly_symbols(), exp_symbols()))
    def test_negation_is_canonical(self, sym):
        neg = -sym  # built without the checking constructor
        rebuilt = PhaseSymbol(neg.parts)
        assert neg == rebuilt and list(neg.parts.items()) == list(rebuilt.parts.items())
        assert not (sym + neg) and -neg == sym

    def test_hamiltonian_build(self):
        H = P ** 2 + I * G * X ** 3
        assert H.parts == {TRIVIAL_EXP: {(0, 2, 0, 0): 1, (3, 0, 0, 1): I}}

    def test_cancellation(self):
        quartic = mono(Fraction(1, 4), x=4, p=-1, hbar=-1, g=1)
        assert ONE + quartic + (-quartic) == ONE

    def test_pointwise_products(self):
        assert X * P == mono(1, x=1, p=1)
        assert (X ** 3 * P ** -2) * (X * P ** -1) == mono(1, x=4, p=-3)

    def test_exponent_addition(self):
        a = PhaseSymbol.exponential(quad(t=2))
        b = PhaseSymbol.exponential(quad(r=3))
        assert a * b == PhaseSymbol.exponential(quad(r=3, t=2))

    def test_negative_x_power_rejected(self):
        with pytest.raises(ValueError):
            mono(1, x=-1)
        with pytest.raises(ValueError):
            X ** -1
        with pytest.raises(ValueError):
            (X + P) ** -1

    @given(st.one_of(poly_symbols(), exp_symbols(), st.just(ZERO)), poly_symbols(max_terms=1))
    def test_products_with_a_monomial_match_the_term_pair_loop(self, sym, m):
        expected = _term_pair_product(sym, m)
        for product in (sym * m, m * sym):
            assert product == expected
            rebuilt = PhaseSymbol(product.parts)  # the product skips the checking constructor
            assert list(product.parts.items()) == list(rebuilt.parts.items())

    def test_monomials_are_canonical(self):
        assert mono(0, x=-1) == mono(0, g=-2) == ZERO and not mono(0, x=3).parts
        for bad in ({"x": -1}, {"g": -1}):
            with pytest.raises(ValueError, match="negative power"):
                mono(2, **bad)
        assert mono(3, x=2, p=-1, hbar=-2, g=1).parts == {TRIVIAL_EXP: {(2, -1, -2, 1): 3}}

    def test_power_matches_repeated_products(self):
        base = ONE + X + mono(I, p=1) + PhaseSymbol.exponential(quad(t=1))
        product = ONE
        for n in range(10):
            assert base ** n == product
            product = product * base

    def test_power_budget_boundary(self, monkeypatch):
        base = ONE + X + P  # base ** 2 is one product of 3 x 3 term pairs
        monkeypatch.setattr(symbols, "MAX_POWER_TERM_PAIRS", 9)
        assert base ** 2 == base * base
        monkeypatch.setattr(symbols, "MAX_POWER_TERM_PAIRS", 8)
        with pytest.raises(PowerTooLarge, match="9 term pairs.*limit of 8$"):
            base ** 2
        assert (X ** 7) ** 5 == mono(1, x=35)  # monomial powers are 1 x 1 products

    def test_monomial_powers_take_one_step(self, monkeypatch):
        products = []
        monkeypatch.setattr(PhaseSymbol, "__mul__",
                            lambda a, b: products.append(b) or NotImplemented)
        big = int("9" * 4000)
        assert (X ** big) ** big == mono(1, x=big * big)
        assert mono(2, p=1) ** -3 == mono(Fraction(1, 8), p=-3)
        assert mono(2 * I, p=2, hbar=-1, g=1) ** 3 == mono(-8 * I, p=6, hbar=-3, g=3)
        assert mono(I, p=-1) ** (10 ** 6) == mono(1, p=-10 ** 6)
        assert products == []

    @given(poly_symbols(max_terms=1).filter(bool), st.integers(-4, 4))
    def test_monomial_powers_match_repeated_products(self, base, n):
        if n < 0 and (base.max_xdeg() or base.max_gdeg()):
            with pytest.raises(ValueError, match="negative power of x or g"):
                base ** n
            return
        product = ONE
        for _ in range(abs(n)):
            product = product * base
        if n < 0:
            assert base ** n * product == ONE
        else:
            assert base ** n == product

    def test_what_has_no_inverse(self):
        for sym in (X + P, PhaseSymbol.exponential(quad(t=1)), ZERO):
            with pytest.raises(ValueError, match="only a single monomial can be inverted"):
                sym ** -1
        assert ZERO ** 0 == ONE and (X + P) ** 0 == ONE

    def test_scalar_coercion(self):
        assert 2 * X == mono(2, x=1)
        assert X * Fraction(1, 2) == mono(Fraction(1, 2), x=1)
        assert ONE == 1

    def test_constants_hash_like_their_coefficient(self):
        for value in (3, Fraction(-1, 3), I, GaussianRational(Fraction(1, 2), 5)):
            assert mono(value) == value and hash(mono(value)) == hash(value)
            assert len({mono(value), value}) == 1
        assert hash(ZERO) == hash(0) and {ZERO: "zero"}[0] == "zero"
        assert {0, ZERO, ONE, 1, X} == {0, 1, X}

    def test_g_slices_round_trip(self):
        sym = ONE + mono(3, x=2, g=1) + mono(I, p=-1, g=2)
        slices = sym.g_slices()
        rebuilt = sum((s * mono(1, g=n) for n, s in slices.items()), ZERO)
        assert rebuilt == sym
        assert slices[1] == mono(3, x=2)


# -- oracle: _sum as it was, copying every part and rebuilding the sum through
# PhaseSymbol's checking constructor --------------------------------------------

def _sum_rebuilt(syms) -> PhaseSymbol:
    """The sum of syms in one pass, where a chain of + copies the running total."""
    acc = {}
    for sym in syms:
        for eq, poly in sym._parts.items():
            dst = acc.get(eq)
            if dst is None:
                acc[eq] = dict(poly)
                continue
            for key, coeff in poly.items():
                dst[key] = dst.get(key, GaussianRational(0)) + coeff
    return PhaseSymbol(acc)


def _snapshot(*syms):
    """Copies of the syms' parts, to show that an operation left them as they were."""
    return [{eq: dict(poly) for eq, poly in sym._parts.items()} for sym in syms]


@st.composite
def cancelling_lists(draw):
    """Symbols on shared exponential parts; some cancel an earlier one whole,
    some one part of it."""
    syms = draw(st.lists(pooled_exp_symbols(), max_size=4))
    for sym in list(filter(None, syms)):
        eq = draw(st.sampled_from(sorted(sym.parts, key=ExpQuadratic.sort_key)))
        syms.append(draw(st.sampled_from([sym, -sym, -PhaseSymbol({eq: sym.parts[eq]})])))
    return draw(st.permutations(syms))


class TestSum:
    """_sum keeps each input's part dicts until a second part meets them."""

    @given(cancelling_lists())
    def test_matches_the_rebuilding_sum(self, syms):
        before = _snapshot(*syms)
        total = symbols._sum(syms)
        assert total == _sum_rebuilt(syms)
        assert all(poly and all(poly.values()) for poly in total._parts.values())
        chained = ZERO
        for sym in syms:
            chained = chained + sym
        assert chained == total
        assert _snapshot(*syms) == before

    @given(pooled_exp_symbols(), pooled_exp_symbols())
    def test_operands_keep_their_parts(self, a, b):
        for left, right in ((a, b), (a, a), (a, -a), (a, a - b)):
            before = _snapshot(left, right)
            assert left + right == _sum_rebuilt((left, right))
            assert left - right == _sum_rebuilt((left, -right))
            assert _snapshot(left, right) == before


class TestDiff:
    def test_power_rule(self):
        quartic = mono(Fraction(1, 4), x=4, p=-1, hbar=-1)
        assert quartic.diff("x") == mono(1, x=3, p=-1, hbar=-1)
        assert (P ** -1).diff("p", 2) == mono(2, p=-3)

    def test_kernel_chain_rule(self):
        expected = mono(2 * I, x=1, hbar=-1) * KERNEL
        assert KERNEL.diff("p") == expected

    def test_kernel_chain_rule_matches_finite_differences(self):
        # independent numeric oracle for the exponential derivative
        point = dict(x=0.7, p=1.3, hbar=0.9)
        eps = 1e-6
        up = KERNEL.evaluate(point["x"], point["p"] + eps, point["hbar"])
        dn = KERNEL.evaluate(point["x"], point["p"] - eps, point["hbar"])
        numeric = (up - dn) / (2 * eps)
        symbolic = KERNEL.diff("p").evaluate(point["x"], point["p"], point["hbar"])
        assert abs(numeric - symbolic) < 1e-5

    def test_gaussian_x_derivative(self):
        sym = PhaseSymbol.exponential(quad(t=Fraction(1, 2)))
        assert sym.diff("x") == mono(1, x=1) * sym

    @given(poly_symbols(), poly_symbols())
    def test_leibniz(self, a, b):
        for var in ("x", "p"):
            assert (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)

    @given(poly_symbols())
    def test_mixed_partials_commute(self, a):
        assert a.diff("x").diff("p") == a.diff("p").diff("x")


class TestStar:
    def test_basis_ordering(self):
        # p-hat acts from the left in the ordering realized by this product
        assert P.star(X) == P * X
        assert X.star(P) == X * P + I * HBAR

    def test_identity(self):
        sym = ONE + mono(I, x=2, p=-3)
        assert ONE.star(sym) == sym
        assert sym.star(ONE) == sym

    def test_non_terminating(self):
        with pytest.raises(NonTerminatingStar):
            KERNEL.star(KERNEL)

    def test_gaussian_factor_ordering(self):
        # a p-only exponential is already ordered: no correction on the right
        gauss = PhaseSymbol.exponential(quad(r=1))
        assert gauss.star(X) == gauss * X
        # commuting x past it picks up i*hbar times the p-derivative
        assert X.star(gauss) == X * gauss + mono(2 * I, p=1, hbar=1) * gauss

    @given(poly_symbols(max_x=3, min_p=-3, max_p=3), poly_symbols(max_x=3, min_p=-3, max_p=3),
           poly_symbols(max_x=3, min_p=-3, max_p=3))
    def test_associativity(self, a, b, c):
        assert a.star(b).star(c) == a.star(b.star(c))

    @given(poly_symbols(), poly_symbols())
    def test_dagger_antihomomorphism(self, a, b):
        assert a.star(b).dagger() == b.dagger().star(a.dagger())

    @given(poly_symbols())
    def test_self_adjoint_product(self, a):
        assert a.star(a.dagger()).is_hermitian()

    def test_numeric_spot_check(self):
        # independent evaluation of the truncated derivative series at
        # exact rational points
        rng = random.Random(20240917)
        for _ in range(20):
            a = rand_poly(rng, max_terms=3, max_x=3, min_p=-3, max_p=3)
            b = rand_poly(rng, max_terms=3, max_x=3, min_p=-3, max_p=3)
            xv, pv = rand_fraction(rng), rand_fraction(rng)
            hv, gv = rand_fraction(rng), rand_fraction(rng)
            if 0 in (xv, pv, hv, gv):
                continue
            expected = GaussianRational()
            k = 0
            ak, bk = a, b
            while ak and bk:
                term = (evaluate_exact(ak, xv, pv, hv, gv)
                        * evaluate_exact(bk, xv, pv, hv, gv)
                        * (I * hv) ** k / Fraction(_factorial(k)))
                expected = expected + term
                ak, bk = ak.diff("x"), bk.diff("p")
                k += 1
            assert evaluate_exact(a.star(b), xv, pv, hv, gv) == expected


def _outcome(op, *args):
    """The result of op(*args), or the type of the non-termination it raised."""
    try:
        return op(*args)
    except (NonTerminatingStar, NonTerminatingTwist) as exc:
        return type(exc)


any_symbols = st.one_of(poly_symbols(), exp_symbols())


# The whole-symbol termination checks that star and exp_twist ran before the
# per-term live-order rule, kept verbatim as oracles.

def _x_series_terminates(sym: PhaseSymbol) -> bool:
    # repeated d/dx dies on each part: nothing regenerates x
    return not any(eq.s or eq.t for eq in sym.parts)


def _p_series_terminates(sym: PhaseSymbol) -> bool:
    # repeated d/dp dies: no p in exponents, no negative p powers
    return (not any(eq.r or eq.s for eq in sym.parts)
            and sym.min_pdeg() >= 0)


def _x_blocker(sym: PhaseSymbol) -> str:
    """The first x-dependent exp(..) of sym, which keeps d/dx alive, as text."""
    eq = min((eq for eq in sym.parts if eq.s or eq.t), key=ExpQuadratic.sort_key)
    return f"x-dependent {PhaseSymbol.exponential(eq)}"


def _p_blocker(sym: PhaseSymbol) -> str:
    """What keeps d/dp alive on sym: a p-dependent exp(..) or the lowest p^-k."""
    eqs = [eq for eq in sym.parts if eq.r or eq.s]
    if eqs:
        return f"p-dependent {PhaseSymbol.exponential(min(eqs, key=ExpQuadratic.sort_key))}"
    return f"negative power p^{sym.min_pdeg()}"


def _check_star(left: PhaseSymbol, right: PhaseSymbol) -> None:
    if not (_x_series_terminates(left) or _p_series_terminates(right)):
        raise NonTerminatingStar(
            f"star series does not terminate: left factor has {_x_blocker(left)} "
            f"and right factor has {_p_blocker(right)}")


def _check_twist(sym: PhaseSymbol, sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (_x_series_terminates(sym) or _p_series_terminates(sym)):
        raise NonTerminatingTwist(
            f"twist series does not terminate: symbol has {_x_blocker(sym)} "
            f"and {_p_blocker(sym)}")


# The chain-rule series that star and exp_twist used before the closed-form
# kernel, kept verbatim as the oracle.

def _star_series(left: PhaseSymbol, right: PhaseSymbol) -> PhaseSymbol:
    """Star product by the chain-rule series over whole symbols."""
    _check_star(left, right)
    total = PhaseSymbol.zero()
    k = 0
    while left and right:
        coeff = PhaseSymbol.monomial(I ** k * Fraction(1, math.factorial(k)), hbar=k)
        total = total + left * right * coeff
        left = left.diff("x")
        right = right.diff("p")
        k += 1
    return total


def _twist_series(sym: PhaseSymbol, sign: int) -> PhaseSymbol:
    """exp(sign * i * hbar * d_x d_p) by the chain-rule series over each
    exponential part; the twist is linear, so the parts add."""
    total = PhaseSymbol.zero()
    for eq, poly in sym.parts.items():
        part = PhaseSymbol({eq: poly})
        _check_twist(part, sign)
        k = 0
        while part:
            coeff = PhaseSymbol.monomial((I * sign) ** k * Fraction(1, math.factorial(k)), hbar=k)
            total = total + part * coeff
            part = part.diff("x").diff("p")
            k += 1
    return total


# The product-rule loops that diff and the chain rule ran before every
# derivative went through _apply_integer, kept as oracles: verbatim but for
# the method _diff_once and ExpQuadratic.dx_poly/dp_poly becoming functions
# and _derivatives calling them.

def _dx_poly(eq: ExpQuadratic) -> dict:
    """Chain-rule factor of d/dx: s*p + 2*t*x."""
    return {**{(0, 1, h, 0): c for h, c in eq.s},
            **{(1, 0, h, 0): c * 2 for h, c in eq.t}}


def _dp_poly(eq: ExpQuadratic) -> dict:
    """Chain-rule factor of d/dp: 2*r*p + s*x."""
    return {**{(0, 1, h, 0): c * 2 for h, c in eq.r},
            **{(1, 0, h, 0): c for h, c in eq.s}}


def _diff_once(sym: PhaseSymbol, var: str) -> PhaseSymbol:
    idx = 0 if var == "x" else 1
    acc = {}
    for eq, poly in sym.parts.items():
        dst = acc.setdefault(eq, {})
        for key, coeff in poly.items():
            deg = key[idx]
            if deg:
                newkey = list(key)
                newkey[idx] = deg - 1
                nk = tuple(newkey)
                dst[nk] = dst.get(nk, GaussianRational()) + coeff * deg
        factor = _dx_poly(eq) if var == "x" else _dp_poly(eq)
        for fk, fc in factor.items():
            for key, coeff in poly.items():
                nk = (key[0] + fk[0], key[1] + fk[1], key[2] + fk[2], key[3] + fk[3])
                dst[nk] = dst.get(nk, GaussianRational()) + coeff * fc
    return PhaseSymbol(acc)


def _diff(sym: PhaseSymbol, var: str, order: int = 1) -> PhaseSymbol:
    for _ in range(order):
        sym = _diff_once(sym, var)
    return sym


def _derivatives(eq: ExpQuadratic, poly: dict, orders) -> dict:
    """d_x^m d_p^n of exp(eq)*poly for each (m, n) in orders, as polynomials that
    exp(eq) multiplies; each derivative steps on from the one before."""
    out, fx = {}, PhaseSymbol({eq: poly})
    cur, at, done = fx, 0, 0
    for m, n in sorted(orders):
        if m != at:
            fx, at = _diff(fx, "x", m - at), m
            cur, done = fx, 0
        cur, done = _diff(cur, "p", n - done), n
        out[m, n] = cur.parts.get(eq, {})
    return out


# the (m, n) sets the chain rule meets: a twist's diagonal, a metric operator's
# grid, and any mix
order_sets = st.one_of(
    st.integers(0, 4).map(lambda k: {(j, j) for j in range(k + 1)}),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda mn: {(m, n) for m in range(mn[0] + 1) for n in range(mn[1] + 1)}),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6))


class TestDerivativeKernel:
    """diff and the chain rule, one _apply_integer step at a time, against the
    product-rule loops and against finite differences."""

    @given(pooled_exp_symbols(), st.sampled_from("xp"), st.integers(0, 3), order_sets)
    def test_diff_and_derivatives_match_the_product_rule_loops(self, a, var, k, orders):
        assert a.diff(var, k) == _diff(a, var, k)
        for eq, poly in a.parts.items():
            assert symbols._derivatives(eq, poly, orders) == _derivatives(eq, poly, orders)

    @given(pooled_exp_symbols(), st.sampled_from("xp"),
           st.tuples(*[st.floats(0.5, 1.5)] * 4))
    def test_diff_matches_central_differences(self, a, var, point):
        # the truncation error, eps^2/6 times the third derivative, stays under
        # 1e-5 of the terms' own sizes on this box (a term's third derivative
        # is under 1000 times the term), so cancelling terms cannot hide it
        x, p, hbar, g = point
        eps = 1e-4
        dx, dp = (eps, 0) if var == "x" else (0, eps)
        up, dn = a.evaluate(x + dx, p + dp, hbar, g), a.evaluate(x - dx, p - dp, hbar, g)
        scale = sum(abs(PhaseSymbol({eq: {key: c}}).evaluate(x, p, hbar, g))
                    for eq, key, c in a.iter_terms())
        assert abs((up - dn) / (2 * eps) - a.diff(var).evaluate(x, p, hbar, g)) < 1e-4 * (1 + scale)


def _apply_integer_perm(ops, den, poly):
    """_apply_integer as it was before its falling factorials were stepped
    along ops: two math.perm weights per (term, op), verbatim."""
    fden, fterms = symbols._integer_terms(poly)
    acc = {}
    for (a, b, h, g), re, im in fterms:
        for m, n, cterms in ops:
            w = math.perm(a, m)
            if not w:
                break  # a^(m) = 0, and m only grows along ops
            w *= math.perm(b, n) if b >= 0 else (-1) ** n * math.perm(n - b - 1, n)
            if not w:
                continue
            wre, wim, xd, pd = w * re, w * im, a - m, b - n
            for (x, p, hh, gg), cre, cim in cterms:
                key = (xd + x, pd + p, h + hh, g + gg)
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [wre * cre - wim * cim, wre * cim + wim * cre]
                else:
                    slot[0] += wre * cre - wim * cim
                    slot[1] += wre * cim + wim * cre
    return symbols._gaussian_terms(acc, den * fden)


@st.composite
def integer_parts(draw, max_order=8):
    """One part (den, ops) of an operator: a sparse ascending set of (m, n), so
    that both orders skip values, each with a few Gaussian-integer terms."""
    orders = draw(st.sets(st.tuples(st.integers(0, max_order), st.integers(0, max_order)),
                          min_size=1, max_size=8))
    key = st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(-1, 1), st.integers(0, 1))
    cterms = st.lists(st.tuples(key, st.integers(-5, 5), st.integers(-5, 5)),
                      min_size=1, max_size=3)
    return draw(st.integers(1, 12)), [(m, n, draw(cterms)) for m, n in sorted(orders)]


class TestSteppedFactorials:
    """_apply_integer's stepped weights against math.perm afresh per op."""

    @given(integer_parts(), poly_symbols(max_terms=5, max_x=6, min_p=-6, max_p=6))
    def test_weights_match_math_perm(self, part, f):
        den, ops = part
        poly = f.parts.get(TRIVIAL_EXP, {})
        assert symbols._apply_integer(ops, den, poly) == _apply_integer_perm(ops, den, poly)

    def test_high_orders_and_negative_powers_of_p(self):
        rng = random.Random(39)
        for _ in range(20):
            orders = sorted({(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(12)})
            ops = [(m, n, [((0, rng.randint(-3, 3), 0, 0), rng.randint(-9, 9), rng.randint(-9, 9))])
                   for m, n in orders]
            poly = rand_poly(rng, max_terms=4, max_x=40, min_p=-40, max_p=40).parts.get(TRIVIAL_EXP, {})
            assert symbols._apply_integer(ops, 7, poly) == _apply_integer_perm(ops, 7, poly)


class TestKernelOracle:
    """The closed-form kernel against the chain-rule series it replaced."""

    @given(any_symbols, any_symbols)
    def test_star_matches_series(self, a, b):
        assert _outcome(a.star, b) == _outcome(_star_series, a, b)

    @given(any_symbols)
    def test_twist_matches_series(self, a):
        for sign in (1, -1):
            assert _outcome(a.exp_twist, sign) == _outcome(_twist_series, a, sign)

    @given(st.one_of(pooled_exp_symbols(max_x=0), pooled_exp_symbols()),
           st.one_of(pooled_exp_symbols(max_x=0), pooled_exp_symbols()))
    def test_star_with_colliding_exponentials_matches_series(self, a, b):
        assert _outcome(a.star, b) == _outcome(_star_series, a, b)

    @given(pooled_exp_symbols())
    def test_twist_with_several_exponentials_matches_series(self, a):
        for sign in (1, -1):
            assert _outcome(a.exp_twist, sign) == _outcome(_twist_series, a, sign)

    def test_negative_right_p_power(self):
        # x^3 * p^-2: the k-th term is i^k C(3,k) (-2)(-3)..(-1-k) x^(3-k) p^(-2-k) hbar^k
        expected = (mono(1, x=3, p=-2) + mono(-6 * I, x=2, p=-3, hbar=1)
                    + mono(-18, x=1, p=-4, hbar=2) + mono(24 * I, p=-5, hbar=3))
        assert mono(1, x=3).star(mono(1, p=-2)) == expected
        assert _star_series(mono(1, x=3), mono(1, p=-2)) == expected


class TestLiveOrder:
    @given(any_symbols)
    def test_live_orders_are_exact_per_term(self, a):
        for eq, key, c in a.iter_terms():
            term = PhaseSymbol({eq: {key: c}})
            for var, top in zip("xp", _live(eq, key)):
                if top == math.inf:
                    assert term.diff(var, 4)
                else:
                    assert term.diff(var, top) and not term.diff(var, top + 1)

    @given(any_symbols)
    def test_live_orders_match_the_whole_symbol_checks(self, a):
        assert (_live_order(a.parts, 0) < math.inf) == _x_series_terminates(a)
        assert (_live_order(a.parts, 1) < math.inf) == _p_series_terminates(a)

    def test_chain_rule_stops_at_each_parts_live_order(self, monkeypatch):
        # the twist lives through k = 2 on x^2*p^3, but d_p^k kills x^2*exp(x^2)
        # past k = 0, so its chain rule takes no derivative at all
        orders = []
        derivatives = symbols._derivatives
        monkeypatch.setattr(symbols, "_derivatives",
                            lambda eq, poly, mn: orders.append(mn) or derivatives(eq, poly, mn))
        gauss = PhaseSymbol.exponential(quad(t=1))
        sym = mono(1, x=2) * gauss + mono(1, x=2, p=3)
        assert sym.dagger() == _twist_series(sym.conjugate(), 1)
        assert orders == [{(0, 0)}]

    def test_twist_diagonal_steps_on_from_the_last_result(self, monkeypatch):
        # the twist of x^40*exp(p^2) needs d_x^k d_p^k for k = 0..40: one
        # x-step and one p-step each, not a p-chain restarted from every d_x^k
        sym = mono(1, x=40) * PhaseSymbol.exponential(quad(r=1))
        expected = _twist_series(sym.conjugate(), 1)
        steps = []
        step = symbols._step
        monkeypatch.setattr(symbols, "_step", lambda *args: steps.append(args[2]) or step(*args))
        assert sym.dagger() == expected
        assert len(steps) <= 80

    def test_star_stops_at_the_right_factors_p_degree(self):
        # sum_k C(a, k) * b!/(b-k)! * (i*hbar)^k * x^(a-k) p^(b-k)
        a, b = 20000, 5
        expected = sum((mono(math.comb(a, k) * math.perm(b, k) * I ** k, x=a - k, p=b - k, hbar=k)
                        for k in range(b + 1)), ZERO)
        start = time.perf_counter()
        assert mono(1, x=a).star(mono(1, p=b)) == expected
        assert time.perf_counter() - start < 1

    def test_star_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(symbols, "MAX_LIVE_ORDER", 3)
        assert mono(1, x=3).star(mono(1, p=3)) == _star_series(mono(1, x=3), mono(1, p=3))
        assert mono(1, x=9).star(mono(1, p=3)) == _star_series(mono(1, x=9), mono(1, p=3))
        assert mono(1, x=3).star(KERNEL) == _star_series(mono(1, x=3), KERNEL)
        with pytest.raises(LiveOrderTooLarge, match="order 4, past the limit of 3, "
                                                    "for x\\^4 in the left factor$"):
            mono(1, x=4).star(mono(1, p=5))
        with pytest.raises(LiveOrderTooLarge, match="for x\\^4 in the left factor$"):
            mono(1, x=4).star(PhaseSymbol.exponential(quad(r=1)))
        with pytest.raises(LiveOrderTooLarge, match="order 4, past the limit of 3, "
                                                    "for p\\^4 in the right factor$"):
            (X * KERNEL).star(mono(1, p=4))

    def test_twist_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(symbols, "MAX_LIVE_ORDER", 3)
        for sym in (mono(1, x=3, p=3), mono(1, x=9, p=3), mono(1, x=3, p=9)):
            assert sym.exp_twist(1) == _twist_series(sym, 1)
        with pytest.raises(LiveOrderTooLarge, match="order 4, past the limit of 3, "
                                                    "for x\\^4\\*p\\^5 in the symbol$"):
            (X + mono(1, x=4, p=5)).dagger()
        with pytest.raises(LiveOrderTooLarge, match="for x\\^4 in the symbol$"):
            (mono(1, x=4) * PhaseSymbol.exponential(quad(r=1))).is_hermitian()


def _op(sym: PhaseSymbol, f: PhaseSymbol) -> PhaseSymbol:
    """The operator of sym on f(x, hbar): x^a p^b stands for P^b X^a, P = -i*hbar*d/dx."""
    out = ZERO
    for _, (a, b, h, g), c in sym.iter_terms():
        term = mono(c, x=a, hbar=h, g=g) * f
        for _ in range(b):
            term = mono(-I, hbar=1) * term.diff("x")
        out = out + term
    return out


class TestOperatorOracle:
    """The star against the product of operators on functions of x, which
    shares no code with the star kernel."""

    @given(poly_symbols(min_p=0), poly_symbols(min_p=0),
           poly_symbols(max_terms=3, max_x=4, min_p=0, max_p=0, max_g=0))
    def test_star_is_the_operator_product(self, a, b, f):
        assert _op(a, _op(b, f)) == _op(a.star(b), f)

    def test_canonical_commutator(self):
        f = mono(1, x=2) + mono(3, x=1, hbar=-1)
        assert _op(P, _op(X, f)) - _op(X, _op(P, f)) == mono(-I, hbar=1) * f


def _factorial(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


class TestConjTwistDagger:
    def test_conj_examples(self):
        assert (I * G * X ** 3).conjugate() == -I * G * X ** 3
        assert (P ** 2).conjugate() == P ** 2
        conj_kernel = PhaseSymbol.exponential(
            ExpQuadratic(HbarScalar(), HbarScalar.hbar_power(-2 * I, -1), HbarScalar()))
        assert KERNEL.conjugate() == conj_kernel

    def test_twist_examples(self):
        assert (X * P).exp_twist(+1) == X * P + I * HBAR
        gauss = PhaseSymbol.exponential(quad(t=Fraction(1, 3)))
        assert gauss.exp_twist(-1) == gauss

    def test_twist_non_terminating(self):
        with pytest.raises(NonTerminatingTwist):
            KERNEL.exp_twist(+1)
        with pytest.raises(NonTerminatingTwist):
            KERNEL.is_hermitian()

    @given(poly_symbols())
    def test_twist_inverse_pair(self, a):
        assert a.exp_twist(+1).exp_twist(-1) == a

    @given(poly_symbols())
    def test_involutions(self, a):
        assert a.dagger().dagger() == a
        assert a.conjugate().conjugate() == a

    def test_dagger_examples(self):
        assert (P ** 2 + I * G * X ** 3).dagger() == P ** 2 - I * G * X ** 3
        quadratic = (mono(Fraction(1, 2), p=2) + mono(Fraction(3, 2), x=2)
                     + mono(I, x=1, p=1))
        assert quadratic.dagger() == (mono(Fraction(1, 2), p=2)
                                      + mono(Fraction(3, 2), x=2)
                                      - mono(I, x=1, p=1) + HBAR)
        assert (X * P).dagger().dagger() == X * P

    def test_is_hermitian_examples(self):
        assert (P ** 2 + X ** 2).is_hermitian()
        assert not (I * G * X ** 3).is_hermitian()
        # symbol of the symmetrized product of x-hat and p-hat
        assert (X * P + mono(I * Fraction(1, 2), hbar=1)).is_hermitian()
        assert not (X * P).is_hermitian()

    def test_sums_of_terminating_parts_twist(self):
        # d_p kills exp(x^2) and d_x kills exp(p^2): each part alone twists,
        # so their sum does, though neither derivative series dies on the sum
        gauss_x, gauss_p = (PhaseSymbol.exponential(quad(t=1)),
                            PhaseSymbol.exponential(quad(r=1)))
        assert (gauss_x + gauss_p).is_hermitian()
        sym = mono(1, x=2, p=-1) + gauss_x
        assert sym.dagger() == (mono(1, x=2, p=-1) + mono(-2 * I, x=1, p=-2, hbar=1)
                                + mono(-2, p=-3, hbar=2) + gauss_x)
        with pytest.raises(NonTerminatingTwist, match="has x-dependent exp\\(x\\^2\\) "
                                                      "and negative power p\\^-1$"):
            (mono(1, x=2, p=-1) * gauss_x + gauss_p).dagger()

    @given(pooled_exp_symbols())
    def test_dagger_of_admitted_symbols(self, a):
        try:
            adj = a.dagger()
        except NonTerminatingTwist:
            return
        assert adj.dagger() == a
        assert adj == sum((PhaseSymbol({eq: poly}).dagger() for eq, poly in a.parts.items()),
                          ZERO)
        assert (a + adj).is_hermitian()

    def test_x_only_plus_p_only_rule(self):
        sym = P ** 4 - 2 * X ** 2 + I * X ** 5
        assert sym.dagger() == sym.conjugate()


class TestEvaluation:
    def test_exact_evaluation(self):
        sym = mono(Fraction(1, 4), x=4, p=-1, hbar=-1)
        val = evaluate_exact(sym, 2, Fraction(1, 3), Fraction(1, 2), 1)
        assert val == Fraction(1, 4) * 16 * 3 * 2

    def test_exact_evaluation_rejects_exponentials(self):
        with pytest.raises(ValueError):
            evaluate_exact(KERNEL, 1, 1, 1, 1)

    def test_float_evaluation_with_exponential(self):
        import cmath
        val = KERNEL.evaluate(0.5, 2.0, 1.5)
        assert abs(val - cmath.exp(2j * 0.5 * 2.0 / 1.5)) < 1e-12
