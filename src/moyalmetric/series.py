"""Order-by-order metric series for Hamiltonians p^2 + g*V(x).

Writing Theta = sum_n g^n Theta_n with Theta_0 = 1, the metric equation
splits into one linear ODE in x per order:

    -2*i*hbar*p * Theta_n' + hbar^2 * Theta_n'' = -L_V[Theta_{n-1}],

where L_V is the metric operator of V alone.  The right-hand side is a
polynomial in x with Laurent coefficients in p and hbar, and the particular
solution is fixed by dropping both homogeneous branches (the x-constant
function of p and the exp(2*i*p*x/hbar) kernel) at every order n >= 1.

Both inner loops run on Gaussian-integer numerators: the operator, negated
once, applies in closed form (see pde), and the ODE recursion runs one scalar
chain per label (xdeg - pdeg, pdeg + hdeg, gdeg), which no step changes.
The right-hand sides are sparse (those of i*x^3 hold one term per x-slice;
its order-13 series, 365 terms over x^0..x^52), so a chain walks only its
own terms, each over its own reduced denominator, where a pass per x-slice
paid an lcm and a gcd for one term.  Each coefficient is built as it is
solved, and both steps hand on their canonical output unchecked.  Orders are
bounded by MAX_ORDER.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import OrderTooLarge, UnsupportedKinetic
from .pde import derive_metric_operator
from .rationals import GaussianRational, _gcd, _triple
from .symbols import TRIVIAL_EXP, PhaseSymbol

#: Largest order g^n the solver computes and a series document may declare.
MAX_ORDER = 64


def check_order(order: int, name: str = "order") -> None:
    """Refuse a series order past MAX_ORDER as a domain error."""
    if order > MAX_ORDER:
        raise OrderTooLarge(f"{name} {order} exceeds the limit of {MAX_ORDER}")


@dataclass(frozen=True, eq=True)
class MetricSeries:
    """Truncated power series in g with g-free PhaseSymbol coefficients."""

    orders: Mapping[int, PhaseSymbol] = field(default_factory=dict)
    max_order: int = 0

    def __post_init__(self):
        clean = {}
        for n, sym in self.orders.items():
            if not isinstance(n, int) or n < 0:
                raise ValueError("series orders must be non-negative integers")
            if n > self.max_order:
                raise ValueError(f"order {n} exceeds max_order {self.max_order}")
            if sym.max_gdeg() > 0:
                raise ValueError("series entries must not carry powers of g")
            if sym:
                clean[n] = sym
        object.__setattr__(self, "orders", clean)

    def order(self, n: int) -> PhaseSymbol:
        return self.orders.get(n, PhaseSymbol.zero())

    def assemble(self) -> PhaseSymbol:
        """Reattach g powers and sum into a single symbol."""
        total = PhaseSymbol.zero()
        for n, sym in self.orders.items():
            total = total + sym * PhaseSymbol.monomial(1, g=n)
        return total


def solve_kinetic_ode(rhs: PhaseSymbol) -> PhaseSymbol:
    """Particular solution of -2*i*hbar*p*f' + hbar^2*f'' = rhs (' = d/dx).

    rhs must be polynomial in x with Laurent (p, hbar) coefficients.  The
    unique polynomial solution of x-degree deg(rhs)+1 with zero x-constant
    term is produced by the descending recursion

        c_{j+1} = (hbar^2*(j+2)*(j+1)*c_{j+2} - rhs_j) / (2*i*hbar*p*(j+1)).

    A step moves a carried p^a hbar^b at x^(j+2) to p^(a-1) hbar^(b+1) at
    x^(j+1), and a source x^j p^a hbar^b to p^(a-1) hbar^(b-1) there, so every
    term lies on one chain (xdeg - pdeg, pdeg + hdeg, gdeg) and chains never
    mix.  Each chain is one scalar recursion on a Gaussian-integer numerator
    over its own reduced denominator, from its top source down to x^1.
    """
    if not rhs.is_polynomial:
        raise ValueError("kinetic solve needs a polynomial right-hand side")
    if not rhs:
        return PhaseSymbol.zero()

    chains: dict[tuple[int, int, int], dict[int, GaussianRational]] = {}
    for (xd, pd, hd, gd), c in rhs._parts[TRIVIAL_EXP].items():
        chains.setdefault((xd + 2 - pd, pd + hd - 2, gd), {})[xd] = c

    solution: dict = {}
    for (d, s, gd), feeds in chains.items():
        re = im = 0
        den = 1  # c_{j+2} = (re + i*im)/den, the term the previous step solved for
        for j in range(max(feeds), -1, -1):
            feed = feeds.get(j)
            if feed is None:
                if not (re or im):
                    continue
                # (j+2)*(j+1)*c_{j+2} / (2*(j+1)) times -i: (re, im) -> (im, -re)
                re, im, den = (j + 2) * im, -(j + 2) * re, 2 * den
            else:
                # ((j+2)*(j+1)*c_{j+2} - rhs_j) / (2*(j+1)) over the gcd of both denominators
                g = _gcd(den, feed._den)
                up, down = (j + 2) * (j + 1) * (feed._den // g), den // g
                re, im, den = (up * im - down * feed._im, down * feed._re - up * re,
                               2 * (j + 1) * den // g * feed._den)
            g = _gcd(re, im, den)
            if g != 1:
                re, im, den = re // g, im // g, den // g
            if re or im:
                solution[j + 1, j + 1 - d, s + d - j - 1, gd] = _triple(re, im, den)
    return PhaseSymbol._from_parts({TRIVIAL_EXP: solution})


def _check_potential(potential: PhaseSymbol) -> None:
    if not potential.is_polynomial:
        raise UnsupportedKinetic("potential must be a polynomial in x")
    for _, (xd, pd, hd, gd), _ in potential.iter_terms():
        if pd != 0:
            raise UnsupportedKinetic("potential must not depend on p")
        if gd != 0:
            raise UnsupportedKinetic("potential must not carry powers of g")


def solve_metric_series(potential: PhaseSymbol, max_order: int) -> MetricSeries:
    """Metric series of p^2 + g*V(x) through order g^max_order.

    Boundary conditions: the order-zero slice is 1 and every homogeneous
    contribution (constants in x and kernel exponentials) is dropped at
    higher orders, which fixes the series uniquely.
    """
    if max_order < 1:
        raise ValueError("max_order must be a positive integer")
    check_order(max_order)
    _check_potential(potential)

    negated = -derive_metric_operator(potential)
    orders = {0: PhaseSymbol.monomial(1)}
    previous = orders[0]
    for n in range(1, max_order + 1):
        previous = solve_kinetic_ode(negated.apply(previous))
        if previous:
            orders[n] = previous
    return MetricSeries(orders, max_order)
