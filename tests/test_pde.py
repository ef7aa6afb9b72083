import math
import random
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import (I, cubic_general_first_order, exp_symbols, poly_symbols,
                      pooled_exp_symbols, rand_poly)
from moyalmetric import (DifferentialOperator, G, HBAR, IrrationalDiscriminant,
                         KERNEL_EXP, NonPolynomialHamiltonian, ONE, P,
                         PhaseSymbol, SwansonParams, X, ZERO, ZeroParameter,
                         derive_metric_operator,
                         gaussian_metric_candidates, residual,
                         swanson_from_ladder)
from moyalmetric.errors import ExponentTooLong, LiveOrderTooLarge, MoyalError
from moyalmetric.rationals import GaussianRational, HbarScalar, HS_ZERO
from moyalmetric.symbols import (MAX_LIVE_ORDER, TRIVIAL_EXP, ExpQuadratic, _apply_integer,
                                 _derivatives, _gaussian_terms, _live_order, _star_ops, _step,
                                 star_terms)

mono = PhaseSymbol.monomial
KERNEL = PhaseSymbol.exponential(KERNEL_EXP)
H_CUBIC = P ** 2 + I * G * X ** 3


def cubic_operator_terms():
    return {
        (0, 0): mono(2 * I, x=3, g=1),
        (0, 1): mono(-3, x=2, hbar=1, g=1),
        (0, 2): mono(-3 * I, x=1, hbar=2, g=1),
        (0, 3): mono(1, hbar=3, g=1),
        (1, 0): mono(-2 * I, p=1, hbar=1),
        (2, 0): mono(1, hbar=2),
    }


class TestDeriveMetricOperator:
    def test_cubic_model(self):
        L = derive_metric_operator(H_CUBIC)
        assert L.terms == cubic_operator_terms()

    def test_free_particle(self):
        L = derive_metric_operator(P ** 2)
        assert L.terms == {(1, 0): mono(-2 * I, p=1, hbar=1),
                           (2, 0): mono(1, hbar=2)}

    def test_quadratic_model(self):
        a, b, c = Fraction(1, 2), Fraction(3, 2), Fraction(1)
        H = mono(a, p=2) + mono(b, x=2) + mono(I * c, x=1, p=1)
        L = derive_metric_operator(H)
        assert L.terms == {
            (0, 0): mono(2 * I * c, x=1, p=1) - mono(c, hbar=1),
            (0, 1): mono(2 * I * b, x=1, hbar=1) - mono(c, p=1, hbar=1),
            (1, 0): mono(-2 * I * a, p=1, hbar=1) - mono(c, x=1, hbar=1),
            (0, 2): mono(-b, hbar=2),
            (2, 0): mono(a, hbar=2),
        }

    def test_rejects_non_polynomial(self):
        with pytest.raises(NonPolynomialHamiltonian):
            derive_metric_operator(P ** -1)
        with pytest.raises(NonPolynomialHamiltonian):
            derive_metric_operator(KERNEL)

    def test_star_commutator_oracle(self):
        # the operator must reproduce H * Theta - Theta * H^dag exactly
        rng = random.Random(52)
        for _ in range(50):
            H = rand_poly(rng, max_terms=3, max_x=3, min_p=0, max_p=3,
                          min_h=0, max_h=1, max_g=1)
            theta = rand_poly(rng, max_terms=3, max_x=3, min_p=-3, max_p=3)
            L = derive_metric_operator(H)
            assert L.apply(theta) == H.star(theta) - theta.star(H.dagger())

    def test_hermitian_hamiltonian_kills_constants(self):
        rng = random.Random(99)
        for _ in range(20):
            base = rand_poly(rng, max_terms=2, max_x=2, min_p=0, max_p=2,
                             min_h=0, max_h=1, max_g=1)
            H = base + base.dagger()
            assert H.is_hermitian()
            assert not derive_metric_operator(H).apply(ONE)

    def test_order_bound(self):
        rng = random.Random(4)
        for _ in range(20):
            H = rand_poly(rng, max_terms=3, max_x=3, min_p=0, max_p=3,
                          min_h=0, max_h=0, max_g=1)
            L = derive_metric_operator(H)
            assert L.dp_order() <= H.max_xdeg()
            assert L.dx_order() <= max(k[1] for _, k, _ in H.iter_terms())

    def test_conjugation_identity(self):
        # twisting the operator equals minus its coefficient conjugate
        L = derive_metric_operator(H_CUBIC)
        minus_conj = DifferentialOperator({k: -c.conjugate() for k, c in L.terms.items()})
        rng = random.Random(7)
        for _ in range(30):
            f = rand_poly(rng, max_terms=3, max_x=3, min_p=-3, max_p=3)
            lhs = L.apply(f.exp_twist(+1)).exp_twist(-1)
            assert lhs == minus_conj.apply(f)


def _derive_oracle(hamiltonian: PhaseSymbol) -> DifferentialOperator:
    """The chain-rule loops derive_metric_operator used before star_terms, verbatim."""
    if not hamiltonian.is_polynomial or hamiltonian.min_pdeg() < 0:
        raise NonPolynomialHamiltonian(
            "Hamiltonian symbol must be polynomial in x and p")
    hdag = hamiltonian.dagger()
    acc: dict[tuple[int, int], PhaseSymbol] = {}

    cur = hamiltonian
    k = 0
    while cur:
        coeff = PhaseSymbol.monomial(I ** k * Fraction(1, math.factorial(k)), hbar=k)
        key = (0, k)
        acc[key] = acc.get(key, PhaseSymbol.zero()) + cur * coeff
        cur = cur.diff("x")
        k += 1

    cur = hdag
    k = 0
    while cur:
        coeff = PhaseSymbol.monomial(I ** k * Fraction(1, math.factorial(k)), hbar=k)
        key = (k, 0)
        acc[key] = acc.get(key, PhaseSymbol.zero()) - cur * coeff
        cur = cur.diff("p")
        k += 1

    return DifferentialOperator(acc)


def _step_by_kernel(poly, var):
    """d_var of a polynomial part as the one-term operator on the integer kernel,
    the route _step took before its closed form."""
    m, n = (1, 0) if var == "x" else (0, 1)
    return _apply_integer([(m, n, [((0, 0, 0, 0), 1, 0)])], 1, poly)


class TestDeriveOracle:
    """star_terms, the integer star kernel and the closed-form d_var against the
    loops and the kernel route they replaced."""

    @given(poly_symbols(min_p=0))
    def test_derive_matches_chain_rule_loops(self, H):
        # the raw integer terms: each part's denominator and every numerator pair
        assert derive_metric_operator(H)._ops == _derive_oracle(H)._ops

    @given(poly_symbols(min_p=0))
    def test_hermitian_hamiltonians_lose_the_zero_order_term(self, base):
        H = base + base.dagger()
        L = derive_metric_operator(H)
        assert L._ops == _derive_oracle(H)._ops
        assert all((m, n) != (0, 0) for _, ops in L._ops.values() for m, n, _ in ops)

    @given(poly_symbols(max_x=4, min_p=-4, max_p=4), st.sampled_from("xp"), st.integers(0, 5))
    def test_closed_form_diff_matches_the_kernel_route(self, a, var, order):
        poly = a.parts.get(TRIVIAL_EXP, {})
        for _ in range(order):
            assert _step(TRIVIAL_EXP, poly, var) == _step_by_kernel(poly, var)
            poly = _step_by_kernel(poly, var)
        assert a.diff(var, order) == PhaseSymbol({TRIVIAL_EXP: poly})

    def test_live_order_refusals_name_the_hamiltonian_or_its_adjoint(self):
        top = MAX_LIVE_ORDER + 1
        for H, power in ((P ** 2 + I * X ** top, f"x^{top} in the Hamiltonian"),
                         (P ** top + I * X ** 3, f"p^{top} in its adjoint")):
            with pytest.raises(LiveOrderTooLarge) as info:
                derive_metric_operator(H)
            assert str(info.value) == (f"metric operator needs order {top}, past the limit of "
                                       f"{MAX_LIVE_ORDER}, for {power}")
        huge = 10 ** sys.get_int_max_str_digits()
        for H in (P ** 2 + mono(1, x=huge), P ** huge + X):
            with pytest.raises(ExponentTooLong):
                derive_metric_operator(H)

    @given(poly_symbols())
    def test_integer_star_terms_match_star_terms(self, a):
        den, ops = _star_ops(a.parts.get(TRIVIAL_EXP, {}), "x")
        integer = {(m, n): PhaseSymbol({TRIVIAL_EXP: _gaussian_terms(
            {key: [re, im] for key, re, im in cterms}, den)}) for m, n, cterms in ops}
        assert integer == star_terms(a, "x")


class TestApplyAndResidual:
    def test_constant_picks_zero_order_term(self):
        L = derive_metric_operator(H_CUBIC)
        assert L.apply(ONE) == 2 * I * G * X ** 3

    def test_kernel_solves_cubic_equation(self):
        L = derive_metric_operator(H_CUBIC)
        assert not L.apply(KERNEL)

    def test_linearity(self):
        L = derive_metric_operator(H_CUBIC)
        a = X ** 2 * P ** -1
        b = mono(I, x=1, p=-2)
        assert not L.apply(ZERO)
        assert L.apply(a + b) == L.apply(a) + L.apply(b)

    def test_residual_of_hermitian_with_unit_metric(self):
        assert not residual(P ** 2 + X ** 2, ONE)

    def test_residual_of_first_order_series(self):
        from moyalmetric import solve_metric_series

        theta = solve_metric_series(I * X ** 3, 1).assemble()
        r = residual(H_CUBIC, theta)
        assert r
        assert all(n >= 2 for n in r.g_slices())

    def test_general_first_order_instances(self):
        cases = [
            (P ** -1, ONE, ZERO, ZERO),
            (ZERO, ONE, P ** -2, ZERO),
            (ZERO, ONE, ZERO, P ** -1),
        ]
        for c1, c2, c3, c4 in cases:
            theta = cubic_general_first_order(c1, c2, c3, c4)
            r = residual(H_CUBIC, theta)
            assert all(n >= 2 for n in r.g_slices())

    def test_operator_equality_and_negation(self):
        L = derive_metric_operator(H_CUBIC)
        assert L == derive_metric_operator(H_CUBIC)
        minus = DifferentialOperator({k: -c for k, c in L.terms.items()})
        assert minus != L and DifferentialOperator({k: -c for k, c in minus.terms.items()}) == L
        assert minus.apply(X ** 3 * P) == -L.apply(X ** 3 * P)
        assert -L == minus and -minus == L
        assert DifferentialOperator({}) != L


@st.composite
def operators(draw, coefficients=poly_symbols()):
    """Random operators with up to four (dx, dp) terms of order at most 3."""
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=4, unique=True))
    return DifferentialOperator({key: draw(coefficients) for key in keys})


def _apply_naive(operator, f):
    """sum coeff * d_x^m d_p^n f with every derivative taken from f afresh."""
    out = ZERO
    for (m, n), coeff in operator.terms.items():
        out = out + coeff * f.diff("x", m).diff("p", n)
    return out


def _apply_series(terms: dict[tuple[int, int], PhaseSymbol], f: PhaseSymbol) -> PhaseSymbol:
    """sum coeff * d_x^m d_p^n f over whole symbols by the chain rule.

    d_x^m f is computed once per m, and the p-derivatives step on from it.
    """
    by_m: dict[int, list[int]] = {}
    for m, n in sorted(terms):
        by_m.setdefault(m, []).append(n)
    total = PhaseSymbol.zero()
    fx, at = f, 0
    for m, ns in by_m.items():
        fx, at = fx.diff("x", m - at), m
        cur, done = fx, 0
        for n in ns:
            cur, done = cur.diff("p", n - done), n
            total = total + terms[m, n] * cur
    return total


class TestApplyOracle:
    """The closed-form integer apply against the chain-rule series."""

    @given(operators(), poly_symbols(max_terms=4))
    def test_integer_apply_matches_series(self, L, f):
        assert L.apply(f) == _apply_series(L.terms, f)

    @given(poly_symbols(min_p=0, min_h=0, max_h=1, max_g=1), poly_symbols(max_terms=4))
    def test_metric_operator_apply_matches_series(self, H, f):
        L = derive_metric_operator(H)
        assert L.apply(f) == _apply_series(L.terms, f)

    @given(operators(exp_symbols()), exp_symbols())
    def test_exponential_parts_match_naive_series(self, L, f):
        assert L.apply(f) == _apply_naive(L, f)
        assert _apply_series(L.terms, f) == _apply_naive(L, f)


@st.composite
def pooled_operators(draw):
    """Operators with pooled exponential coefficients; some have no d_x, no d_p
    or neither, so that more parts of the symbol take the closed form."""
    max_m, max_n = draw(st.sampled_from([(0, 0), (0, 2), (2, 0), (2, 2)]))
    keys = draw(st.lists(st.tuples(st.integers(0, max_m), st.integers(0, max_n)),
                         min_size=1, max_size=3, unique=True))
    return DifferentialOperator({key: draw(pooled_exp_symbols()) for key in keys})


class TestOneOperatorType:
    def test_pde_reexports_the_symbols_operator(self):
        from moyalmetric import pde, symbols

        assert pde.DifferentialOperator is symbols.DifferentialOperator

    @given(pooled_operators(), pooled_exp_symbols())
    def test_colliding_exponential_parts_match_naive_series(self, L, f):
        assert L.apply(f) == _apply_naive(L, f)

    def test_terms_come_in_ascending_order(self):
        e1 = PhaseSymbol.exponential(ExpQuadratic(HS_ZERO, HS_ZERO, HbarScalar.constant(1)))
        e2 = PhaseSymbol.exponential(ExpQuadratic(HbarScalar.constant(1), HS_ZERO, HS_ZERO))
        # e2's orders, then e1's, then the trivial part's, were the stored order
        L = DifferentialOperator({(2, 0): X * e2, (0, 3): P * e1, (1, 1): e1 + e2,
                                  (0, 1): e2, (1, 0): G})
        assert list(L.terms) == [(0, 1), (0, 3), (1, 0), (1, 1), (2, 0)]
        assert L.terms[1, 1] == e1 + e2 and L.terms[2, 0] == X * e2

    def test_pairs_meeting_on_one_exponential_are_summed(self):
        ex2 = PhaseSymbol.exponential(ExpQuadratic(HS_ZERO, HS_ZERO, HbarScalar.constant(1)))
        L = DifferentialOperator({(0, 0): ex2 * ex2 + ex2})
        # exp(2x^2) * 1 and exp(x^2) * exp(x^2) both land on exp(2x^2)
        assert L.apply(ONE + ex2) == ex2 + 2 * ex2 * ex2 + ex2 * ex2 * ex2


def _assert_canonical(sym: PhaseSymbol) -> None:
    """sym is what PhaseSymbol's checking constructor builds from its parts."""
    assert sym == PhaseSymbol(sym.parts)
    assert all(poly and all(poly.values()) for poly in sym.parts.values())


class TestCanonicalOutput:
    """apply, and through it star and exp_twist, return their symbols without
    PhaseSymbol's per-term checks, so each result must already hold no zero
    coefficient and no empty part."""

    @given(st.one_of(operators(), operators(exp_symbols()), pooled_operators()),
           st.one_of(poly_symbols(max_terms=4), exp_symbols(), pooled_exp_symbols()))
    def test_apply(self, L, f):
        _assert_canonical(L.apply(f))

    @given(st.one_of(poly_symbols(), pooled_exp_symbols(max_x=0), pooled_exp_symbols()),
           st.one_of(poly_symbols(), pooled_exp_symbols(max_x=0), pooled_exp_symbols()))
    def test_star_and_twist(self, a, b):
        for compute in (lambda: a.star(b), lambda: a.exp_twist(1), lambda: b.exp_twist(-1)):
            try:
                out = compute()
            except MoyalError:  # a series that does not terminate
                continue
            _assert_canonical(out)

    def test_pairs_whose_sums_cancel(self):
        ex2 = PhaseSymbol.exponential(ExpQuadratic(HS_ZERO, HS_ZERO, HbarScalar.constant(1)))
        ex4, ex6 = ex2 * ex2, ex2 * ex2 * ex2
        # exp(2x^2) * 1 against -exp(x^2) * exp(x^2): the exp(2x^2) part cancels whole
        whole = DifferentialOperator({(0, 0): ex4 - ex2}).apply(ONE + ex2)
        assert whole == ex6 - ex2
        # and here all of it but its x term
        partial = DifferentialOperator({(0, 0): ex4 * (ONE + X) - ex2}).apply(ONE + ex2)
        assert partial == X * ex4 + ex6 * (ONE + X) - ex2
        for out in (whole, partial):
            _assert_canonical(out)


# -- oracle: apply as it was, summing its pairs into its own accumulator ----------

def _apply_merged(op: DifferentialOperator, f: PhaseSymbol) -> PhaseSymbol:
    """sum coeff * d_x^m d_p^n f."""
    dx, dp = op.dx_order(), op.dp_order()
    acc, met = {}, set()
    for eq2, poly in f._parts.items():
        jobs = [(eq1, den, ops, poly) for eq1, (den, ops) in op._ops.items()]
        if dx and (eq2.s or eq2.t) or dp and (eq2.r or eq2.s):
            part = {eq2: poly}
            xtop, ptop = _live_order(part, 0), _live_order(part, 1)
            live = [(eq1, den, m, n, cterms) for eq1, den, ops, _ in jobs
                    for m, n, cterms in ops if m <= xtop and n <= ptop]
            d = _derivatives(eq2, poly, {(m, n) for _, _, m, n, _ in live})
            jobs = [(eq1, den, [(0, 0, cterms)], d[m, n]) for eq1, den, m, n, cterms in live]
        for eq1, den, ops, fpoly in jobs:
            eq, out = eq1.combined(eq2), _apply_integer(ops, den, fpoly)
            dst = acc.setdefault(eq, out)
            if dst is not out:  # two pairs meet, as exp(2x^2)*1 and exp(x^2)*exp(x^2)
                met.add(eq)
                for key, c in out.items():
                    dst[key] = dst.get(key, GaussianRational(0)) + c
    for eq in met:  # where sums may have cancelled
        acc[eq] = {key: c for key, c in acc[eq].items() if c}
    return PhaseSymbol._from_parts({eq: poly for eq, poly in acc.items() if poly})


@st.composite
def cancelling_applications(draw):
    """An operator and a symbol whose (0, 0) pairs meet on exp(2*x^2):
    (b + rest)*exp(2x^2) - a*exp(x^2) applied to a + b*exp(x^2) leaves rest*a
    there, nothing when rest is zero.  Further terms come from the pool."""
    e1, e2 = (PhaseSymbol.exponential(ExpQuadratic(HS_ZERO, HS_ZERO, HbarScalar.constant(t)))
              for t in (1, 2))
    a, b = draw(poly_symbols(max_terms=2)), draw(poly_symbols(max_terms=2))
    rest = draw(st.one_of(st.just(ZERO), poly_symbols(max_terms=1)))
    terms = {(0, 0): (b + rest) * e2 - a * e1}
    for key in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             max_size=2, unique=True)):
        terms.setdefault(key, draw(pooled_exp_symbols()))
    return DifferentialOperator(terms), a + b * e1


class TestApplySum:
    """apply hands its pairs to _sum, which keeps the parts of f untouched."""

    @given(st.one_of(operators(), operators(exp_symbols()), pooled_operators()),
           st.one_of(poly_symbols(max_terms=4), exp_symbols(), pooled_exp_symbols()))
    def test_matches_the_merging_apply(self, L, f):
        assert L.apply(f) == _apply_merged(L, f)

    @given(cancelling_applications())
    def test_cancelling_pairs(self, case):
        L, f = case
        before = {eq: dict(poly) for eq, poly in f._parts.items()}
        out = L.apply(f)
        assert out == _apply_merged(L, f)
        _assert_canonical(out)
        assert f._parts == before


class TestSwanson:
    def test_from_ladder(self):
        assert swanson_from_ladder(1, 0, 0) == SwansonParams(
            a=GaussianRational(Fraction(1, 2)), b=GaussianRational(Fraction(1, 2)),
            c=GaussianRational(0))
        assert swanson_from_ladder(2, 1, 0) == SwansonParams(
            a=GaussianRational(Fraction(1, 2)), b=GaussianRational(Fraction(3, 2)),
            c=GaussianRational(1))
        assert swanson_from_ladder(2, 0, 1) == SwansonParams(
            a=GaussianRational(Fraction(1, 2)), b=GaussianRational(Fraction(3, 2)),
            c=GaussianRational(-1))

    def test_params_must_be_real(self):
        with pytest.raises(ValueError):
            SwansonParams(a=I, b=GaussianRational(1), c=GaussianRational(0))

    def test_hamiltonian_symbol(self):
        params = swanson_from_ladder(2, 1, 0)
        H = params.hamiltonian()
        assert H == (mono(Fraction(1, 2), p=2) + mono(Fraction(3, 2), x=2)
                     + mono(I, x=1, p=1))
        assert H.dagger() == H.conjugate() + HBAR


class TestGaussianCandidates:
    def test_zero_shear_branches(self):
        params = swanson_from_ladder(2, 1, 0)  # a=1/2, b=3/2, c=1
        cands = gaussian_metric_candidates(params, HS_ZERO)
        # c/(2a hbar) = 1/hbar and -c/(2b hbar) = -1/(3 hbar)
        assert cands[0] == ExpQuadratic(HS_ZERO, HS_ZERO, HbarScalar.hbar_power(1, -1))
        assert cands[1] == ExpQuadratic(HbarScalar.hbar_power(Fraction(-1, 3), -1),
                                        HS_ZERO, HS_ZERO)

    def test_hermitian_limit_is_trivial(self):
        params = swanson_from_ladder(1, 0, 0)
        cands = gaussian_metric_candidates(params, HS_ZERO)
        assert all(eq.is_trivial for eq in cands)

    def test_kernel_shear_branches(self):
        params = swanson_from_ladder(2, 1, 0)
        s = HbarScalar.hbar_power(2 * I, -1)
        cands = gaussian_metric_candidates(params, s)
        assert {(c.r, c.t) for c in cands} == {
            (HS_ZERO, HbarScalar.hbar_power(1, -1)),
            (HbarScalar.hbar_power(Fraction(-1, 3), -1), HS_ZERO)}
        assert all(c.s == s for c in cands)

    def test_all_candidates_solve_equation(self):
        params = swanson_from_ladder(2, 1, 0)
        H = params.hamiltonian()
        for s in (HS_ZERO, HbarScalar.hbar_power(2 * I, -1)):
            for eq in gaussian_metric_candidates(params, s):
                assert not residual(H, PhaseSymbol.exponential(eq))

    def test_candidates_are_hermitian_for_zero_shear(self):
        params = swanson_from_ladder(2, 1, 0)
        for eq in gaussian_metric_candidates(params, HS_ZERO):
            assert PhaseSymbol.exponential(eq).is_hermitian()

    def test_irrational_discriminant(self):
        params = swanson_from_ladder(2, 1, 0)
        with pytest.raises(IrrationalDiscriminant):
            gaussian_metric_candidates(params, HbarScalar.constant(1))

    def test_zero_parameter(self):
        params = SwansonParams(a=GaussianRational(0), b=GaussianRational(1),
                               c=GaussianRational(1))
        with pytest.raises(ZeroParameter):
            gaussian_metric_candidates(params, HS_ZERO)
