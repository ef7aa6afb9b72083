"""The metric equation as a finite-order differential operator.

For a polynomial Hamiltonian symbol H the combination H * Theta - Theta * H^dag
(star products) collapses to L[Theta] for a differential operator L with
symbol coefficients:

    L = sum_k (i*hbar)^k / k! * ((d_x^k H) d_p^k - (d_p^k H^dag) d_x^k).

Solutions of L[Theta] = 0 are metric candidates.

derive_metric_operator builds both halves in one loop, H under d_p^k and H^dag
under d_x^k, stepping with `PhaseSymbol.diff` and scaling by a monomial, and
refuses a live order past MAX_LIVE_ORDER in each half before building it.  The
halves meet only at k = 0, where their terms add; a hermitian H cancels there.
L is a `DifferentialOperator`, the operator type of `symbols`, which the star
product and the twist apply too.  The package exports the operator type from
here, and perfbench patches its `apply` here (`pde:DifferentialOperator.apply`).

The quadratic model
a*p^2 + b*x^2 + i*c*p*x additionally admits exact Gaussian solutions
exp(r*p^2 + s*p*x + t*x^2), constructed here over the exact coefficient field
whenever the discriminant is a perfect square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IrrationalDiscriminant, NonPolynomialHamiltonian, ZeroParameter
from .rationals import ONE, GaussianRational, HbarScalar, I, from_integers
from .symbols import (MAX_LIVE_ORDER, DifferentialOperator, ExpQuadratic, PhaseSymbol,
                      _live_order, _past_live_order)


def derive_metric_operator(hamiltonian: PhaseSymbol) -> DifferentialOperator:
    """Build L with L[Theta] = H * Theta - Theta * H^dag for polynomial H."""
    if not hamiltonian.is_polynomial or hamiltonian.min_pdeg() < 0:
        raise NonPolynomialHamiltonian(
            "Hamiltonian symbol must be polynomial in x and p")
    terms = {}
    for var, sign, where in (("x", 1, "in the Hamiltonian"), ("p", -1, "in its adjoint")):
        # the dagger only after the x half passed, so that this refusal names H's power
        sym = hamiltonian if var == "x" else hamiltonian.dagger()
        top = _live_order(sym._parts, "xp".index(var))
        if top > MAX_LIVE_ORDER:
            raise _past_live_order("metric operator", top,
                                   PhaseSymbol.monomial(1, **{var: top}), where)
        k, re, im = 0, sign, 0  # sign * i^k = re + i*im
        while sym:
            coeff = sym * PhaseSymbol.monomial(from_integers(re, im, math.factorial(k)), hbar=k)
            # the keys (0, k) of the x half meet the keys (k, 0) of the p half only at (0, 0)
            key = (0, k) if var == "x" else (k, 0)
            terms[key] = terms[key] + coeff if key in terms else coeff
            sym = sym.diff(var)
            k, re, im = k + 1, -im, re
    return DifferentialOperator(terms)


def residual(hamiltonian: PhaseSymbol, theta: PhaseSymbol) -> PhaseSymbol:
    """L_H[Theta]; identically zero exactly when Theta solves the metric equation."""
    return derive_metric_operator(hamiltonian).apply(theta)


@dataclass(frozen=True)
class SwansonParams:
    """Couplings of the quadratic model a*p^2 + b*x^2 + i*c*p*x."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = GaussianRational.coerce(getattr(self, name))
            if not value.is_real:
                raise ValueError(f"parameter {name} must be real")
            object.__setattr__(self, name, value)

    def hamiltonian(self) -> PhaseSymbol:
        return (PhaseSymbol.monomial(self.a, p=2)
                + PhaseSymbol.monomial(self.b, x=2)
                + PhaseSymbol.monomial(self.c * I, x=1, p=1))


def swanson_from_ladder(omega, alpha, beta) -> SwansonParams:
    """Couplings from the ladder-operator form w*n + alpha*aa + beta*a+a+."""
    w = GaussianRational.coerce(omega)
    al = GaussianRational.coerce(alpha)
    be = GaussianRational.coerce(beta)
    half = ONE / 2
    return SwansonParams(a=(w - al - be) * half, b=(w + al + be) * half, c=al - be)


def gaussian_metric_candidates(params: SwansonParams, s: HbarScalar) -> list[ExpQuadratic]:
    """Both Gaussian metric branches exp(r*p^2 + s*p*x + t*x^2) for a given s.

    r and t solve 4*b*hbar*r = -c +/- sqrt(disc) and 4*a*hbar*t = c +/- sqrt(disc)
    with disc = c^2 - 4*a*b*hbar*s*(2i - hbar*s); the square root must exist
    exactly in the Laurent-hbar ring over Q(i), otherwise the request is refused.
    """
    if not params.a or not params.b:
        raise ZeroParameter("quadratic model needs nonzero a and b")
    s = HbarScalar.coerce(s)
    hs = s.shifted(1)
    disc = (HbarScalar.constant(params.c * params.c)
            - hs * (HbarScalar.constant(I * 2) - hs) * (params.a * params.b * 4))
    root = disc.sqrt()
    if root is None:
        raise IrrationalDiscriminant(
            "discriminant is not a perfect square in the coefficient field")
    out = []
    for branch in (root, -root):
        r = (branch - params.c) / HbarScalar.hbar_power(params.b * 4, 1)
        t = (branch + params.c) / HbarScalar.hbar_power(params.a * 4, 1)
        out.append(ExpQuadratic(r, s, t))
    return out
