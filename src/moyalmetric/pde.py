"""The metric equation as a finite-order differential operator.

For a polynomial Hamiltonian symbol H the combination H * Theta - Theta * H^dag
(star products) collapses to L[Theta] for a differential operator L with
symbol coefficients:

    L = sum_k (i*hbar)^k / k! * ((d_x^k H) d_p^k - (d_p^k H^dag) d_x^k).

Solutions of L[Theta] = 0 are metric candidates.

L is star_terms(H, "x") - star_terms(H^dag, "p"), a `DifferentialOperator`:
the operator type of `symbols`, which the star product and the twist apply
too.  The two halves hold d_p^k and d_x^k terms, so they meet, and subtract,
only at k = 0; a hermitian H cancels there.  The package exports the operator
type from here, and perfbench patches its `apply` here
(`pde:DifferentialOperator.apply`).

The quadratic model
a*p^2 + b*x^2 + i*c*p*x additionally admits exact Gaussian solutions
exp(r*p^2 + s*p*x + t*x^2), constructed here over the exact coefficient field
whenever the discriminant is a perfect square.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IrrationalDiscriminant, NonPolynomialHamiltonian, ZeroParameter
from .rationals import ONE, GaussianRational, HbarScalar, I
from .symbols import DifferentialOperator, ExpQuadratic, PhaseSymbol, star_terms


def derive_metric_operator(hamiltonian: PhaseSymbol) -> DifferentialOperator:
    """Build L with L[Theta] = H * Theta - Theta * H^dag for polynomial H."""
    if not hamiltonian.is_polynomial or hamiltonian.min_pdeg() < 0:
        raise NonPolynomialHamiltonian(
            "Hamiltonian symbol must be polynomial in x and p")
    terms = star_terms(hamiltonian, "x")
    # the keys (0, k) of the left half meet the keys (k, 0) of the right only at (0, 0)
    for key, coeff in star_terms(hamiltonian.dagger(), "p").items():
        terms[key] = terms[key] - coeff if key in terms else -coeff
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
