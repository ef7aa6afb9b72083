import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import I, hbar_scalars, poly_symbols, rand_poly
from moyalmetric import (ExpQuadratic, HbarScalar, MetricSeries,
                         NonTerminatingStar, NonzeroLeading, NotUnitLeading,
                         ONE, PhaseSymbol, X, ZERO, parse_expression,
                         positivity_evidence, solve_metric_series, star_exp,
                         star_log)
from moyalmetric.starlog import Graded

mono = PhaseSymbol.monomial


def plain_log(series: MetricSeries) -> MetricSeries:
    """Ordinary (pointwise-product) logarithm oracle."""
    n_max = series.max_order
    tail = {n: series.order(n) for n in range(1, n_max + 1) if series.order(n)}
    total: dict[int, PhaseSymbol] = {}
    power = dict(tail)
    for m in range(1, n_max + 1):
        if m > 1:
            nxt: dict[int, PhaseSymbol] = {}
            for j, a in power.items():
                for k, b in tail.items():
                    if j + k <= n_max:
                        nxt[j + k] = nxt.get(j + k, ZERO) + a * b
            power = {n: s for n, s in nxt.items() if s}
        if not power:
            break
        sign = Fraction(1, m) if m % 2 else Fraction(-1, m)
        for n, s in power.items():
            total[n] = total.get(n, ZERO) + s * mono(sign)
    return MetricSeries({n: s for n, s in total.items() if s}, n_max)


class TestStarLog:
    def test_trivial_series(self):
        assert star_log(MetricSeries({0: ONE}, 0)) == MetricSeries({}, 0)

    def test_single_x_entry(self):
        # x*x under the star product is plain x^2, so the log is classical
        series = MetricSeries({0: ONE, 1: X}, 2)
        log = star_log(series)
        assert log.order(1) == X
        assert log.order(2) == mono(Fraction(-1, 2)) * X ** 2

    def test_requires_unit_leading(self):
        with pytest.raises(NotUnitLeading):
            star_log(MetricSeries({0: 2 * ONE}, 1))
        with pytest.raises(NotUnitLeading):
            star_log(MetricSeries({1: X}, 1))

    def test_cubic_model_log(self):
        series = solve_metric_series(I * X ** 3, 3)
        log = star_log(series)
        assert log.order(1) == series.order(1)
        assert not log.order(2)
        assert log.order(3)

    def test_grading_depends_on_lower_orders_only(self):
        series = solve_metric_series(I * X ** 3, 3)
        truncated = MetricSeries({n: series.order(n) for n in range(3)}, 2)
        log_full = star_log(series)
        log_trunc = star_log(truncated)
        for n in range(3):
            assert log_full.order(n) == log_trunc.order(n)

    def test_commutative_degeneration(self):
        # x-free entries: star products collapse to pointwise products
        rng = random.Random(5)
        for _ in range(10):
            entries = {0: ONE}
            for n in range(1, 4):
                entries[n] = rand_poly(rng, max_terms=2, max_x=0,
                                       min_p=-2, max_p=2, max_g=0)
            series = MetricSeries(entries, 3)
            assert star_log(series) == plain_log(series)


class TestStarExp:
    def test_zero_series(self):
        out = star_exp(MetricSeries({}, 3))
        assert out.order(0) == ONE
        assert all(not out.order(n) for n in range(1, 4))

    def test_single_x_entry(self):
        out = star_exp(MetricSeries({1: X}, 3))
        assert out.order(0) == ONE
        assert out.order(1) == X
        assert out.order(2) == mono(Fraction(1, 2)) * X ** 2
        assert out.order(3) == mono(Fraction(1, 6)) * X ** 3

    def test_requires_zero_leading(self):
        with pytest.raises(NonzeroLeading):
            star_exp(MetricSeries({0: ONE}, 1))

    def test_round_trip_cubic_series(self):
        series = solve_metric_series(I * X ** 3, 3)
        assert star_exp(star_log(series)) == series

    def test_round_trips_random_series(self):
        rng = random.Random(31)
        for _ in range(20):
            entries = {0: ONE}
            for n in range(1, 4):
                sym = rand_poly(rng, max_terms=2, max_x=2, min_p=-2, max_p=2,
                                min_h=-1, max_h=1, max_g=0)
                if sym:
                    entries[n] = sym
            series = MetricSeries(entries, 3)
            assert star_exp(star_log(series)) == series
            log_like = MetricSeries({n: s for n, s in entries.items() if n}, 3)
            assert star_log(star_exp(log_like)) == log_like


class TestPositivityEvidence:
    def test_cubic_model_verdict(self):
        series = solve_metric_series(I * X ** 3, 3)
        report = positivity_evidence(series)
        assert report.verdict
        assert report.per_order_hermitian == {1: True, 2: True, 3: True}
        assert report.log_series == star_log(series)

    def test_vacuous_series(self):
        report = positivity_evidence(MetricSeries({0: ONE}, 0))
        assert report.verdict
        assert report.per_order_hermitian == {}

    def test_antihermitian_first_order(self):
        report = positivity_evidence(MetricSeries({0: ONE, 1: I * X}, 1))
        assert not report.verdict
        assert report.per_order_hermitian == {1: False}


# The power series over dense powers A^(*m) of the tail that star_log and
# star_exp summed before the graded exp recursion, kept verbatim as the
# oracle.  The round trip star_exp(star_log(S)) == S holds by construction
# now that both share one recursion, so these are the independent check.

def _graded_star(a: Graded, b: Graded, max_order: int) -> Graded:
    out: Graded = {}
    for j, aj in a.items():
        for k, bk in b.items():
            if j + k > max_order:
                continue
            prod = aj.star(bk)
            if prod:
                out[j + k] = out.get(j + k, PhaseSymbol.zero()) + prod
    return {n: sym for n, sym in out.items() if sym}


def _graded_power_series(series: MetricSeries, start: Graded, coeff) -> MetricSeries:
    """start + sum_m coeff(m) * A^(*m) for the tail A of series, by g-grade."""
    n_max = series.max_order
    tail: Graded = {n: series.order(n) for n in range(1, n_max + 1) if series.order(n)}

    total = dict(start)
    power = dict(tail)
    for m in range(1, n_max + 1):
        if m > 1:
            power = _graded_star(power, tail, n_max)
        if not power:
            break
        scale = PhaseSymbol.monomial(coeff(m))
        for n, sym in power.items():
            total[n] = total.get(n, PhaseSymbol.zero()) + sym * scale
    return MetricSeries({n: sym for n, sym in total.items() if sym}, n_max)


def oracle_log(series: MetricSeries) -> MetricSeries:
    return _graded_power_series(series, {}, lambda m: Fraction(1 if m % 2 else -1, m))


def oracle_exp(series: MetricSeries) -> MetricSeries:
    return _graded_power_series(series, {0: ONE}, lambda m: Fraction(1, math.factorial(m)))


def arsinh_log(theta: MetricSeries, conj: MetricSeries) -> MetricSeries:
    """arsinh*(S) for S = (Theta_V - Theta_conj(V)) / 2, by its power series
    sum_j (-1)^j (2j)! / (4^j (j!)^2 (2j+1)) S^(*2j+1) through the max order.

    Theta_conj(V) is the star inverse of Theta_V = exp*(L), so S = sinh*(L)
    and this is L again, by a route that shares no code with _exp_slices.
    """
    n_max = theta.max_order
    s = {n: (theta.order(n) - conj.order(n)) * mono(Fraction(1, 2)) for n in range(1, n_max + 1)}
    s = {n: sym for n, sym in s.items() if sym}
    square = _graded_star(s, s, n_max)
    total: Graded = {}
    power, j = s, 0
    while power:
        scale = mono(Fraction((-1) ** j * math.factorial(2 * j),
                              4 ** j * math.factorial(j) ** 2 * (2 * j + 1)))
        for n, sym in power.items():
            total[n] = total.get(n, ZERO) + sym * scale
        power, j = _graded_star(power, square, n_max), j + 1
    return MetricSeries({n: sym for n, sym in total.items() if sym}, n_max)


HS_ZERO = HbarScalar([])
slices = poly_symbols(max_terms=2, max_x=2, min_p=-2, max_p=2, min_h=-1, max_h=1, max_g=0)


@st.composite
def terminating_tails(draw, max_order=4):
    """Slices g^1 .. g^N that are polynomial or carry x-free exp(r*p^2) factors.

    Every star product of such slices terminates, whatever the order.
    """
    order = draw(st.integers(1, max_order))
    entries = {}
    for n in range(1, order + 1):
        sym = draw(st.one_of(st.just(ZERO), slices))
        if draw(st.booleans()):
            quad = ExpQuadratic(draw(hbar_scalars()), HS_ZERO, HS_ZERO)
            sym = sym + draw(slices) * PhaseSymbol.exponential(quad)
        entries[n] = sym
    return MetricSeries(entries, order)


class TestPowerSeriesOracle:
    """The graded exp recursion against the power series it replaced."""

    @given(terminating_tails())
    def test_log_matches_power_series(self, tail):
        series = MetricSeries({0: ONE, **tail.orders}, tail.max_order)
        assert star_log(series) == oracle_log(series)

    @given(terminating_tails())
    def test_exp_matches_power_series(self, tail):
        assert star_exp(tail) == oracle_exp(tail)

    @pytest.mark.parametrize("potential, order", [
        ("i*x^3", 6), ("i*x^3", 8), ("i*x^3", 12),
        ("i*x^3+x^2", 6), ("i*x^3+x^2", 8), ("i*x^5+x", 6)])
    def test_acceptance_series(self, potential, order):
        series = solve_metric_series(parse_expression(potential), order)
        log = oracle_log(series)
        assert star_log(series) == log
        assert star_exp(log) == oracle_exp(log) == series

    @pytest.mark.parametrize("potential, order", [
        ("i*x^3", 6), ("i*x^3+x^2", 6), ("(1+i)*x^3", 5), ("i*x^5+x", 4),
        ("2*i*x^3-i*x/3", 5)])
    def test_log_matches_arsinh_of_the_inverse_pair(self, potential, order):
        v = parse_expression(potential)
        theta = solve_metric_series(v, order)
        assert star_log(theta) == arsinh_log(theta, solve_metric_series(v.conjugate(), order))

    def test_non_terminating_slices_raise(self):
        # exp(x^2) on the left of p^-1 keeps both derivative series alive
        quad = ExpQuadratic(HS_ZERO, HS_ZERO, HbarScalar.coerce(1))
        sym = PhaseSymbol.exponential(quad) + mono(1, p=-1)
        for op, series in ((star_log, MetricSeries({0: ONE, 1: sym}, 2)),
                           (star_exp, MetricSeries({1: sym}, 2))):
            with pytest.raises(NonTerminatingStar, match="p\\^-1"):
                op(series)
