"""Graded star-logarithm and star-exponential of metric series.

On a series 1 + A with A = sum_{n>=1} g^n a_n, the logarithm and exponential
are Taylor series in which every product is a star product.  Truncation is by
g-grade: the g^n slice of log(1+A) only involves a_1 .. a_n, so a series
known through g^N determines its log and exp through g^N exactly.

Hermiticity of every g-slice of the star-log is the positivity evidence this
calculus can deliver for a metric series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonzeroLeading, NotUnitLeading
from .series import MetricSeries
from .symbols import PhaseSymbol

Graded = dict[int, PhaseSymbol]


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


def star_log(series: MetricSeries) -> MetricSeries:
    """log(series) with star products, truncated at the series' max order."""
    if series.order(0) != PhaseSymbol.monomial(1):
        raise NotUnitLeading("star_log needs a series starting with 1")
    return _graded_power_series(series, {}, lambda m: Fraction(1 if m % 2 else -1, m))


def star_exp(series: MetricSeries) -> MetricSeries:
    """exp(series) with star products; input must vanish at order g^0."""
    if series.order(0):
        raise NonzeroLeading("star_exp needs a series with zero leading order")
    return _graded_power_series(series, {0: PhaseSymbol.monomial(1)},
                                lambda m: Fraction(1, math.factorial(m)))


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
