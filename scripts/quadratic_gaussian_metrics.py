#!/usr/bin/env python3
"""Exact Gaussian metrics of the quadratic model a*p^2 + b*x^2 + i*c*p*x.

Usage: python3 scripts/quadratic_gaussian_metrics.py [OMEGA ALPHA BETA]

Exits 1 when a Gaussian candidate leaves a nonzero residual, so it doubles as
a check of gaussian_metric_candidates.
"""

import sys
from fractions import Fraction

from moyalmetric import (GaussianRational, PhaseSymbol,
                         derive_metric_operator, format_expression,
                         gaussian_metric_candidates, residual, swanson_from_ladder)
from moyalmetric.rationals import HbarScalar, HS_ZERO

I = GaussianRational(0, 1)


def main() -> int:
    if len(sys.argv) == 4:
        omega, alpha, beta = (Fraction(arg) for arg in sys.argv[1:4])
    else:
        omega, alpha, beta = Fraction(2), Fraction(1), Fraction(0)

    params = swanson_from_ladder(omega, alpha, beta)
    print(f"ladder parameters (omega, alpha, beta) = ({omega}, {alpha}, {beta})")
    print("couplings: " + ", ".join(
        f"{name} = {format_expression(PhaseSymbol.monomial(getattr(params, name)))}"
        for name in ("a", "b", "c")))

    H = params.hamiltonian()
    print(f"H(x, p) = {H}")
    print(f"H^dag(x, p) = {H.dagger()}   (note the c*hbar reordering shift)")

    print("metric equation operator:")
    for (m, n), coeff in derive_metric_operator(H).terms.items():
        print(f"  Dx^{m} Dp^{n}: {coeff}")

    nonzero = 0
    shears = [("s = 0", HS_ZERO),
              ("s = 2i/hbar", HbarScalar.hbar_power(2 * I, -1))]
    for label, s in shears:
        print(f"Gaussian branches at {label}:")
        for eq in gaussian_metric_candidates(params, s):
            theta = PhaseSymbol.exponential(eq)
            exact = not residual(H, theta)
            nonzero += not exact
            print(f"  {theta}   [{'exact solution' if exact else 'RESIDUAL NONZERO'}]")
    if nonzero:
        print(f"FAIL: {nonzero} candidate(s) leave a nonzero residual", file=sys.stderr)
    return 1 if nonzero else 0


if __name__ == "__main__":
    sys.exit(main())
