#!/usr/bin/env python3
"""Print the metric series of p^2 + i*g*x^3 and its star-logarithm.

Usage: python3 scripts/cubic_metric_tables.py [ORDER]

Exits 1 when the residual of the series has an order <= ORDER, when a
star-log slice is not hermitian, when star_exp does not undo the star-log,
when the star-log of an x-only series differs from its commutative log, or
when the series of the conjugate potential -i*x^3 is not the star inverse of
the series or its star-log is not the negated star-log, so it doubles as a
check of the solver and of the star-log.
"""

import sys
from fractions import Fraction

from moyalmetric import (G, ZERO, GaussianRational, MetricSeries, PhaseSymbol, X,
                         positivity_evidence, residual, solve_metric_series, star_exp,
                         star_log)

I = GaussianRational(0, 1)


def commutative_log_matches(order: int = 4) -> bool:
    """star_log(1 + A) == sum_m (-1)^(m+1) A^m / m for A = g*x + g^2*x^2/3.

    A star product of x-only symbols is the ordinary product, so this closed
    form checks the series coefficients of the star-log recursion, which the
    hermiticity and star_exp round-trip checks cannot see.
    """
    a1, a2 = X, X ** 2 * Fraction(1, 3)
    A = G * a1 + G ** 2 * a2
    log = sum((A ** m * Fraction((-1) ** (m + 1), m) for m in range(1, order + 1)), ZERO)
    expected = log.g_slices()
    star = star_log(MetricSeries({0: PhaseSymbol.monomial(1), 1: a1, 2: a2}, order))
    return all(star.order(n) == expected.get(n, ZERO) for n in range(order + 1))


def inverse_pair_problems(theta: MetricSeries, conj: MetricSeries,
                          log: MetricSeries) -> list[str]:
    """Where Theta_conj(V) * Theta_V = 1 or star_log(Theta_conj(V)) = -log fails.

    theta is the series of V, conj that of conj(V) and log star_log(theta).
    H_V^dag = H_conj(V), so the two series intertwine the same pair of
    Hamiltonians in opposite directions.
    """
    order, problems = theta.max_order, []
    for n in range(order + 1):
        product = sum((conj.order(j).star(theta.order(n - j)) for j in range(n + 1)), ZERO)
        if product != (PhaseSymbol.monomial(1) if n == 0 else ZERO):
            problems.append(f"Theta_conj(V) * Theta_V is not 1 at g^{n}")
    if star_log(conj) != MetricSeries({n: -s for n, s in log.orders.items()}, order):
        problems.append("star_log(Theta_conj(V)) is not -star_log(Theta_V)")
    return problems


def main() -> int:
    order = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    series = solve_metric_series(I * X ** 3, order)

    print(f"metric series for p^2 + g*i*x^3 through g^{order}:")
    for n in range(order + 1):
        print(f"  g^{n}: {series.order(n)}")

    H = PhaseSymbol.monomial(1, p=2) + PhaseSymbol.monomial(I, x=3, g=1)
    r = residual(H, series.assemble())
    leftover = sorted(r.g_slices())
    print(f"residual orders (all > {order}): {leftover}")

    report = positivity_evidence(series)
    print("star-logarithm:")
    for n in range(1, order + 1):
        print(f"  g^{n}: {report.log_series.order(n)}")
    print(f"star-log hermitian per order: {report.per_order_hermitian}")
    print(f"positivity evidence verdict: {report.verdict}")

    problems = []
    if any(n <= order for n in leftover):
        problems.append(f"residual has orders <= {order}")
    if not report.verdict:
        problems.append("a star-log slice is not hermitian")
    if star_exp(report.log_series) != series:
        problems.append("star_exp does not undo the star-log")
    if not commutative_log_matches():
        problems.append("the star-log of an x-only series is not its commutative log")
    conj = solve_metric_series((I * X ** 3).conjugate(), order)
    inverse = inverse_pair_problems(series, conj, report.log_series)
    print(f"series of -i*x^3 is the star inverse, with the negated star-log: {not inverse}")
    problems += inverse
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
