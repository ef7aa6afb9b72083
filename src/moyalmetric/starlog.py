"""Graded star-logarithm and star-exponential of metric series.

The star-log of 1 + A, A = sum_{n>=1} g^n a_n, is the L with 1 + A =
exp*(L) = sum_m L^(*m) / m!, every product a star product.  The g^n slice of
L^(*m) is sum_j L_j * (L^(*m-1))_(n-j); each factor carries a power of g, so
for m >= 2 only L_j with j < n enter.  Hence a_n = L_n + sum_{m=2}^{n}
(L^(*m))_n / m! is explicit both ways, grade by grade through the max order:
star_exp adds the sum to L_n and star_log subtracts it from a_n.

Hermiticity of every g-slice of the star-log is the positivity evidence this
calculus can deliver for a metric series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonzeroLeading, NotUnitLeading
from .rationals import from_integers
from .series import MetricSeries
from .symbols import PhaseSymbol, _sum

Graded = dict[int, PhaseSymbol]


def _exp_slices(series: MetricSeries, solve) -> tuple[Graded, Graded]:
    """L_n and R_n = sum_{m>=2} (L^(*m))_n / m!, with L_n = solve(series.order(n), R_n)."""
    log: Graded = {}
    powers = [log]  # powers[m - 1][n] is (L^(*m))_n
    rest: Graded = {}
    for n in range(1, series.max_order + 1):
        powers.append({})
        for m in range(2, n + 1):
            lower = powers[m - 2]
            powers[m - 1][n] = _sum(l_j.star(lower[n - j]) for j, l_j in log.items()
                                    if l_j and lower.get(n - j))
        rest[n] = _sum(_divided(powers[m - 1][n], math.factorial(m)) for m in range(2, n + 1))
        log[n] = solve(series.order(n), rest[n])
    return log, rest


def _divided(sym: PhaseSymbol, k: int) -> PhaseSymbol:
    """sym / k for an integer k > 0, through each coefficient's denominator."""
    return PhaseSymbol._from_parts({eq: {key: from_integers(c._re, c._im, c._den * k)
                                         for key, c in poly.items()}
                                    for eq, poly in sym._parts.items()})


def star_log(series: MetricSeries) -> MetricSeries:
    """log(series) with star products, truncated at the series' max order."""
    if series.order(0) != PhaseSymbol.monomial(1):
        raise NotUnitLeading("star_log needs a series starting with 1")
    log, _ = _exp_slices(series, lambda a_n, rest_n: a_n - rest_n)
    return MetricSeries(log, series.max_order)


def star_exp(series: MetricSeries) -> MetricSeries:
    """exp(series) with star products; input must vanish at order g^0."""
    if series.order(0):
        raise NonzeroLeading("star_exp needs a series with zero leading order")
    _, rest = _exp_slices(series, lambda log_n, rest_n: log_n)
    exp = {n: series.order(n) + rest_n for n, rest_n in rest.items()}
    return MetricSeries({0: PhaseSymbol.monomial(1), **exp}, series.max_order)


@dataclass(frozen=True)
class PositivityReport:
    """Hermiticity of the star-log, order by order."""

    per_order_hermitian: dict[int, bool]
    log_series: MetricSeries
    verdict: bool


def positivity_evidence(series: MetricSeries) -> PositivityReport:
    """Check hermiticity of every g-slice of log(series)."""
    log = star_log(series)
    flags = {n: log.order(n).is_hermitian() for n in range(1, series.max_order + 1)}
    return PositivityReport(per_order_hermitian=flags,
                            log_series=log,
                            verdict=all(flags.values()))
