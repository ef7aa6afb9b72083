import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import I, gaussian_rationals, poly_symbols, rand_poly
from moyalmetric import (G, MetricSeries, ONE, OrderTooLarge, P, PhaseSymbol,
                         UnsupportedKinetic, X, ZERO, derive_metric_operator, residual,
                         solve_kinetic_ode, solve_metric_series, star_log)
from moyalmetric.rationals import GaussianRational
from moyalmetric.serialize import series_from_obj
from moyalmetric.series import MAX_ORDER
from moyalmetric.symbols import TRIVIAL_EXP, _gaussian_terms, _integer_terms

mono = PhaseSymbol.monomial


def _kinetic_oracle(rhs):
    """The recursion of solve_kinetic_ode over whole PhaseSymbols and Fractions."""
    by_xdeg = {}
    for eq, (xd, pd, hd, gd), coeff in rhs.iter_terms():
        term = PhaseSymbol.monomial(coeff, p=pd, hbar=hd, g=gd)
        by_xdeg[xd] = by_xdeg.get(xd, PhaseSymbol.zero()) + term

    coeffs = {}
    for j in range(max(by_xdeg, default=-1), -1, -1):
        carry = coeffs.get(j + 2, PhaseSymbol.zero())
        numerator = (carry * PhaseSymbol.monomial((j + 2) * (j + 1), hbar=2)
                     - by_xdeg.get(j, PhaseSymbol.zero()))
        inverse = PhaseSymbol.monomial(
            GaussianRational(0, Fraction(-1, 2 * (j + 1))), p=-1, hbar=-1)
        coeffs[j + 1] = numerator * inverse

    solution = PhaseSymbol.zero()
    for j, cj in coeffs.items():
        solution = solution + cj * PhaseSymbol.monomial(1, x=j)
    return solution


def _slice_kinetic_ode(rhs: PhaseSymbol) -> PhaseSymbol:
    """solve_kinetic_ode before it ran one scalar recursion per chain, verbatim:
    one pass per x-slice over integer numerators with one denominator per slice."""
    if not rhs.is_polynomial:
        raise ValueError("kinetic solve needs a polynomial right-hand side")
    if not rhs:
        return PhaseSymbol.zero()

    den, terms = _integer_terms(rhs._parts[TRIVIAL_EXP])
    by_xdeg: dict[int, dict[tuple[int, int, int], tuple[int, int]]] = {}
    for (xd, pd, hd, gd), re, im in terms:
        by_xdeg.setdefault(xd, {})[(pd, hd, gd)] = (re, im)

    solution: dict = {}
    carry_den, carry = 1, {}  # c_{j+2}: the slice the previous step solved for
    for j in range(max(by_xdeg), -1, -1):
        # numerator hbar^2*(j+2)*(j+1)*c_{j+2} - rhs_j over lcm(carry_den, den)
        common = math.lcm(carry_den, den)
        up, down = (j + 2) * (j + 1) * (common // carry_den), common // den
        num = {(pd, hd + 2, gd): [up * re, up * im]
               for (pd, hd, gd), (re, im) in carry.items()}
        for key, (re, im) in by_xdeg.get(j, {}).items():
            slot = num.setdefault(key, [0, 0])
            slot[0] -= down * re
            slot[1] -= down * im
        # times -i / (2*(j+1)) * p^-1 * hbar^-1; -i maps (re, im) to (im, -re)
        out = {(pd - 1, hd - 1, gd): (im, -re)
               for (pd, hd, gd), (re, im) in num.items() if re or im}
        out_den = 2 * (j + 1) * common
        g = out_den
        for re, im in out.values():
            g = math.gcd(g, re, im)
        out_den //= g
        out = {key: (re // g, im // g) for key, (re, im) in out.items()}
        solution.update(_gaussian_terms({(j + 1, *key): pair for key, pair in out.items()}, out_den))
        carry_den, carry = out_den, out
    return PhaseSymbol._from_parts({TRIVIAL_EXP: solution})


def _series_loop(potential, max_order):
    """The loop of solve_metric_series before it negated the operator once,
    verbatim: each order negates its whole right-hand side."""
    operator = derive_metric_operator(potential)
    orders = {0: PhaseSymbol.monomial(1)}
    previous = orders[0]
    for n in range(1, max_order + 1):
        rhs = -operator.apply(previous)
        previous = solve_kinetic_ode(rhs)
        if previous:
            orders[n] = previous
    return MetricSeries(orders, max_order)


@st.composite
def potentials(draw):
    """Random small polynomials V(x) over Q(i)."""
    sym = PhaseSymbol.zero()
    for deg in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        sym = sym + mono(draw(gaussian_rationals), x=deg)
    return sym


def kinetic_apply(f):
    """The homogeneous operator -2*i*hbar*p*d_x + hbar^2*d_x^2."""
    return (mono(-2 * I, p=1, hbar=1) * f.diff("x")
            + mono(1, hbar=2) * f.diff("x", 2))


FIRST_ORDER = (mono(GaussianRational(0, Fraction(3, 4)), x=1, p=-4, hbar=2)
               + mono(Fraction(-3, 4), x=2, p=-3, hbar=1)
               + mono(GaussianRational(0, Fraction(-1, 2)), x=3, p=-2)
               + mono(Fraction(1, 4), x=4, p=-1, hbar=-1))


class TestKineticSolve:
    def test_cubic_source(self):
        assert solve_kinetic_ode(-2 * I * X ** 3) == FIRST_ORDER

    def test_zero_source(self):
        assert solve_kinetic_ode(ZERO) == ZERO

    def test_constant_source(self):
        # single recursion step: i*x/(2*hbar*p)
        sol = solve_kinetic_ode(ONE)
        assert sol == mono(GaussianRational(0, Fraction(1, 2)), x=1, p=-1, hbar=-1)
        assert kinetic_apply(sol) == ONE

    def test_substitution_oracle_on_random_sources(self):
        rng = random.Random(11)
        for _ in range(30):
            rhs = rand_poly(rng, max_terms=4, max_x=5, min_p=-3, max_p=3,
                            min_h=-2, max_h=2, max_g=2)
            sol = solve_kinetic_ode(rhs)
            assert kinetic_apply(sol) == rhs
            assert all(key[0] > 0 for _, key, _ in sol.iter_terms())  # no x-constant term
            assert sol.max_xdeg() <= rhs.max_xdeg() + 1

    def test_rejects_exponential_source(self):
        from moyalmetric import KERNEL_EXP

        with pytest.raises(ValueError):
            solve_kinetic_ode(PhaseSymbol.exponential(KERNEL_EXP))


class TestIntegerKernelOracle:
    """The integer recursion and operator against the symbol-level versions."""

    @given(poly_symbols(max_terms=5, max_x=6))
    def test_kinetic_solve_matches_oracle(self, rhs):
        assert solve_kinetic_ode(rhs) == _kinetic_oracle(rhs)

    @given(potentials(), st.integers(1, 8))
    def test_series_matches_the_loop_it_replaced(self, potential, n):
        assert solve_metric_series(potential, n) == _series_loop(potential, n)

    @given(potentials(), st.integers(1, 3))
    def test_residual_vanishes_through_max_order(self, potential, n):
        series = solve_metric_series(potential, n)
        r = residual(P ** 2 + G * potential, series.assemble())
        assert all(k > n for k in r.g_slices())


# x^3 starts the chain (5, -2, 0), whose x^2 source cancels the carry to zero;
# the x^0 source restarts the same chain two steps below.
CHAIN_RESTART = (X ** 3 + mono(GaussianRational(0, Fraction(3, 2)), x=2, p=-1, hbar=1)
                 + mono(1, p=-3, hbar=3))
# chains (4, -2, 0) and (3, -1, 0) share the x^2 slice with denominators 3 and 5
SHARED_SLICE = mono(Fraction(1, 3), x=2) + mono(GaussianRational(0, Fraction(1, 5)), x=2, p=1)


class TestChainRecursion:
    """One scalar recursion per chain against the slice-by-slice loop it replaced."""

    @given(poly_symbols(max_terms=8, max_x=60, min_p=-6, max_p=6, min_h=-4, max_h=4))
    @example(CHAIN_RESTART)
    @example(SHARED_SLICE)
    def test_matches_the_slice_loop(self, rhs):
        assert solve_kinetic_ode(rhs) == _slice_kinetic_ode(rhs)

    def test_a_cancelled_chain_restarts_at_a_lower_source(self):
        xdegs = {key[0] for _, key, _ in solve_kinetic_ode(CHAIN_RESTART).iter_terms()}
        assert xdegs == {4, 1}  # no x^3 term, where the carry cancels, nor x^2 below it
        assert kinetic_apply(solve_kinetic_ode(CHAIN_RESTART)) == CHAIN_RESTART

    def test_chains_sharing_a_slice_keep_their_own_denominators(self):
        sol = solve_kinetic_ode(SHARED_SLICE)
        assert {c._den for _, key, c in sol.iter_terms() if key[0] == 3} == {18, 30}
        assert kinetic_apply(sol) == SHARED_SLICE


@st.composite
def inverse_pair_potentials(draw):
    """Small polynomials V(x) whose coefficients are all imaginary, all real or mixed."""
    kind = draw(st.sampled_from(["imaginary", "real", "mixed"]))
    sym = PhaseSymbol.zero()
    for deg in draw(st.lists(st.integers(0, 5), min_size=1, max_size=2)):
        c = draw(gaussian_rationals)
        c = {"imaginary": I * c.im, "real": GaussianRational(c.re), "mixed": c}[kind]
        sym = sym + mono(c, x=deg)
    return sym


def _series_star(a: MetricSeries, b: MetricSeries) -> MetricSeries:
    """a * b slice by slice (star products), truncated at a's max order."""
    return MetricSeries({n: sum((a.order(j).star(b.order(n - j)) for j in range(n + 1)), ZERO)
                         for n in range(a.max_order + 1)}, a.max_order)


class TestInversePairs:
    """H_V^dag = H_conj(V): Theta_V and Theta_conj(V) intertwine the same pair of
    Hamiltonians in opposite directions, so they are star inverses of each other."""

    @given(inverse_pair_potentials(), st.integers(1, 6))
    def test_conjugate_series_is_the_star_inverse(self, potential, n):
        theta = solve_metric_series(potential, n)
        conj = solve_metric_series(potential.conjugate(), n)
        assert _series_star(conj, theta) == MetricSeries({0: ONE}, n)

    @given(inverse_pair_potentials(), st.integers(1, 6))
    def test_conjugate_series_has_the_negated_log(self, potential, n):
        log = star_log(solve_metric_series(potential, n))
        negated = MetricSeries({k: -s for k, s in log.orders.items()}, n)
        assert star_log(solve_metric_series(potential.conjugate(), n)) == negated


class TestOrderBudget:
    def test_solver_refuses_orders_past_the_limit(self):
        with pytest.raises(OrderTooLarge, match=str(MAX_ORDER)):
            solve_metric_series(I * X, MAX_ORDER + 1)

    def test_series_document_refuses_orders_past_the_limit(self):
        with pytest.raises(OrderTooLarge, match="max_order"):
            series_from_obj({"max_order": MAX_ORDER + 1, "orders": {}})
        assert series_from_obj({"max_order": MAX_ORDER, "orders": {}}).max_order == MAX_ORDER


class TestSolveMetricSeries:
    def test_first_order_row(self):
        series = solve_metric_series(I * X ** 3, 1)
        assert series.order(0) == ONE
        assert series.order(1) == FIRST_ORDER

    def test_zero_potential(self):
        series = solve_metric_series(ZERO, 4)
        assert series.order(0) == ONE
        assert all(not series.order(n) for n in range(1, 5))

    def test_determinism(self):
        a = solve_metric_series(I * X ** 3, 3)
        b = solve_metric_series(I * X ** 3, 3)
        assert a == b

    def test_residual_vanishes_through_truncation_order(self):
        n = 3
        series = solve_metric_series(I * X ** 3, n)
        r = residual(P ** 2 + I * G * X ** 3, series.assemble())
        assert all(k > n for k in r.g_slices())

    def test_hermitian_order_by_order(self):
        series = solve_metric_series(I * X ** 3, 3)
        assert series.assemble().is_hermitian()
        assert all(series.order(n).is_hermitian() for n in range(4))

    def test_hbar_singularity_depth(self):
        series = solve_metric_series(I * X ** 3, 3)
        for n in range(1, 4):
            assert min(key[2] for _, key, _ in series.order(n).iter_terms()) == -n

    def test_linear_potential(self):
        # the solver is not special-cased to the cubic model
        n = 4
        series = solve_metric_series(I * X, n)
        r = residual(P ** 2 + I * G * X, series.assemble())
        assert all(k > n for k in r.g_slices())
        assert series.assemble().is_hermitian()

    def test_rejects_bad_potentials(self):
        with pytest.raises(UnsupportedKinetic):
            solve_metric_series(X * P, 1)
        with pytest.raises(UnsupportedKinetic):
            solve_metric_series(G * X, 1)
        from moyalmetric import KERNEL_EXP

        with pytest.raises(UnsupportedKinetic):
            solve_metric_series(PhaseSymbol.exponential(KERNEL_EXP), 1)
        with pytest.raises(ValueError):
            solve_metric_series(I * X ** 3, 0)


class TestMetricSeries:
    def test_assemble_examples(self):
        assert MetricSeries({0: ONE}, 0).assemble() == ONE
        series = MetricSeries({0: ONE, 1: FIRST_ORDER}, 1)
        assert series.assemble() == ONE + FIRST_ORDER * mono(1, g=1)

    def test_assemble_reslice_round_trip(self):
        series = solve_metric_series(I * X ** 3, 3)
        assert MetricSeries(series.assemble().g_slices(), 3) == series

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSeries({0: ONE, 1: G * X}, 1)  # entries must be g-free
        with pytest.raises(ValueError):
            MetricSeries({2: X}, 1)  # beyond max_order

    def test_missing_orders_are_zero(self):
        series = MetricSeries({0: ONE}, 3)
        assert series.order(2) == ZERO
