"""The metric equation as a finite-order differential operator.

For a polynomial Hamiltonian symbol H the combination H * Theta - Theta * H^dag
(star products) collapses to L[Theta] for a differential operator L with
symbol coefficients:

    L = sum_k (i*hbar)^k / k! * ((d_x^k H) d_p^k - (d_p^k H^dag) d_x^k).

Solutions of L[Theta] = 0 are metric candidates.

L is star_terms(H, "x") - star_terms(H^dag, "p"), and
`DifferentialOperator.apply` runs on the operator kernel of `symbols`: the
closed form d_x^m d_p^n x^a p^b = a^(m) * b^(n) * x^(a-m) * p^(b-n) on
Gaussian-integer numerators when the coefficients and the symbol are
polynomial, the chain-rule series otherwise.

The quadratic model
a*p^2 + b*x^2 + i*c*p*x additionally admits exact Gaussian solutions
exp(r*p^2 + s*p*x + t*x^2), constructed here over the exact coefficient field
whenever the discriminant is a perfect square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IrrationalDiscriminant, NonPolynomialHamiltonian, ZeroParameter
from .rationals import ONE, GaussianRational, HbarScalar, I
from .symbols import (TRIVIAL_EXP, ZERO, ExpQuadratic, PhaseSymbol, _apply_integer,
                      _apply_series, _integer_terms, star_terms)


class DifferentialOperator:
    """Finite sum of PhaseSymbol coefficients times d_x^m d_p^n.

    When every coefficient is polynomial, the coefficients are also kept as
    integer terms (m, n, [(key, re, im), ...]), in ascending (m, n), over the
    shared denominator `_den`; otherwise `_integer` is None.
    """

    __slots__ = ("_terms", "_den", "_integer")

    def __init__(self, terms: dict[tuple[int, int], PhaseSymbol]):
        canon = {}
        for (m, n), coeff in terms.items():
            if m < 0 or n < 0:
                raise ValueError("derivative orders must be non-negative")
            if coeff:
                canon[(m, n)] = coeff
        self._terms = canon
        self._den, self._integer = 1, None
        if all(coeff.is_polynomial for coeff in canon.values()):
            integer = [(mn, *_integer_terms(coeff.parts[TRIVIAL_EXP]))
                       for mn, coeff in sorted(canon.items())]
            den = 1
            for _, d, _ in integer:
                den = math.lcm(den, d)
            self._den = den
            self._integer = [(m, n, [(key, re * (den // d), im * (den // d))
                                     for key, re, im in cterms])
                             for (m, n), d, cterms in integer]

    @property
    def terms(self) -> dict[tuple[int, int], PhaseSymbol]:
        return dict(self._terms)

    def apply(self, f: PhaseSymbol) -> PhaseSymbol:
        """sum coeff * d_x^m d_p^n f: in closed form when the coefficients and f
        are polynomial, otherwise by the chain-rule series."""
        if self._integer is None or not f.is_polynomial:
            return _apply_series(self._terms, f)
        return PhaseSymbol({TRIVIAL_EXP: _apply_integer(self._integer, self._den,
                                                        f.parts.get(TRIVIAL_EXP, {}))})

    def dx_order(self) -> int:
        return max((m for m, _ in self._terms), default=0)

    def dp_order(self) -> int:
        return max((n for _, n in self._terms), default=0)

    def conjugated(self) -> DifferentialOperator:
        """Same derivative structure with complex-conjugated coefficients."""
        return DifferentialOperator({k: c.conjugate() for k, c in self._terms.items()})

    def __neg__(self):
        return DifferentialOperator({k: -c for k, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        chunks = [f"Dx^{m} Dp^{n}: {coeff}" for (m, n), coeff in sorted(self._terms.items())]
        return "DifferentialOperator({" + "; ".join(chunks) + "})"


def derive_metric_operator(hamiltonian: PhaseSymbol) -> DifferentialOperator:
    """Build L with L[Theta] = H * Theta - Theta * H^dag for polynomial H."""
    if not hamiltonian.is_polynomial or hamiltonian.min_pdeg() < 0:
        raise NonPolynomialHamiltonian(
            "Hamiltonian symbol must be polynomial in x and p")
    left = star_terms(hamiltonian, "x")
    right = star_terms(hamiltonian.dagger(), "p")
    return DifferentialOperator({key: left.get(key, ZERO) - right.get(key, ZERO)
                                 for key in {**left, **right}})


def apply_operator(operator: DifferentialOperator, f: PhaseSymbol) -> PhaseSymbol:
    return operator.apply(f)


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
