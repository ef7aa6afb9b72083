"""Phase-space symbols and the standard-ordered star calculus.

A symbol is a finite sum of Laurent monomials in (x, p, hbar, g), each part
optionally weighted by an exponential factor exp(r*p^2 + s*p*x + t*x^2) whose
coefficients are Laurent scalars in hbar.  Powers of x and g are kept
non-negative; powers of p and hbar may be any integer.

The star product realizes the ordering in which all momentum factors stand to
the left of all position factors, i.e. the one-sided series

    A * B = sum_k (i*hbar)^k / k! * (d/dx)^k A * (d/dp)^k B.

Hermitian conjugation on this level is complex conjugation followed by the
twist exp(+i*hbar*d_x*d_p); a symbol is hermitian exactly when its conjugate
equals its exp(-i*hbar*d_x*d_p) twist.

Whether a series ends, and where, is one rule per term (`_live`): d_x^k
leaves exp(eq)*x^a*p^b alive up to k = a unless the exponent holds x, and
d_p^k up to k = b unless the exponent holds p or b < 0.  The star stops at
the smaller of the left factor's x-order and the right factor's p-order; the
twist, being linear, at the smaller of the two orders of each term, so a sum
of parts that each terminate twists.  Where the rule gives infinity the
operation raises; past MAX_LIVE_ORDER it is refused before any term is built.

Star, twist and the metric operator of `pde` are all sums c_mn * d_x^m d_p^n
acting on a symbol: one `DifferentialOperator` in integer terms, which the star
builds with `_star_ops(part, var)`.  `apply` takes every coefficient through
`_apply_integer`, after the chain rule where a derivative meets an exponential.
Derivatives repeat one step (`_step`), exp(-eq) * d_var(exp(eq) * poly): on an
exponential part the operator "chain factor + d_var" through `_apply_integer`,
on a polynomial part d_var alone in closed form.  Both keep the terms canonical.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterator, NamedTuple

from .errors import LiveOrderTooLarge, NonTerminatingStar, NonTerminatingTwist, PowerTooLarge
from .rationals import (HS_ZERO, GaussianRational, HbarScalar, I, ONE as C_ONE, ZERO as C_ZERO,
                        from_integers)

# Monomial exponents, in storage order: (xdeg, pdeg, hdeg, gdeg).
MonoKey = tuple[int, int, int, int]

# Budget of PhaseSymbol.__mul__: the largest product of the two factors' term
# counts that one multiplication may take.  (1+x+p)^30 fits (the largest
# product in its power is 120 x 153 terms); (1+x+p)^31 needs 136 x 153, and
# (1+x+p)^30 * (1+x+p)^30 needs 496 x 496, so neither does.
MAX_POWER_TERM_PAIRS = 20_000

# Budget of star, exp_twist and the metric operator of `pde`: the largest live
# order, the last k at which a derivative term of the series leaves a term alive.
# positivity --order 20 on i*x^3 reaches 58; the twist of x^3000*p^3000 (order
# 3000) takes seconds.
MAX_LIVE_ORDER = 1000


def _term_key(term: tuple[MonoKey, GaussianRational]):
    """Canonical order of (key, coeff) terms, one call per term: by (gdeg, xdeg, pdeg, hdeg)."""
    key = term[0]
    return key[3], key[0], key[1], key[2]


class ExpQuadratic(NamedTuple):
    """Exponent data of a factor exp(r*p^2 + s*p*x + t*x^2)."""

    r: HbarScalar
    s: HbarScalar
    t: HbarScalar

    # (xdeg, pdeg) of the monomial that r, s and t each multiply
    SHAPES = ((0, 2), (1, 1), (2, 0))

    @property
    def is_trivial(self) -> bool:
        return not any(self)

    def conjugate(self) -> ExpQuadratic:
        if self.is_trivial:
            return self
        return ExpQuadratic(self.r.conjugate(), self.s.conjugate(), self.t.conjugate())

    def combined(self, other: ExpQuadratic) -> ExpQuadratic:
        if self.is_trivial:
            return other
        if other.is_trivial:
            return self
        return ExpQuadratic(self.r + other.r, self.s + other.s, self.t + other.t)

    def sort_key(self):
        return (self.r.sort_key(), self.s.sort_key(), self.t.sort_key())


TRIVIAL_EXP = ExpQuadratic(HS_ZERO, HS_ZERO, HS_ZERO)


class PhaseSymbol:
    """Canonical finite sum of exponential parts times Laurent monomials."""

    __slots__ = ("_parts",)

    def __init__(self, parts: dict[ExpQuadratic, dict[MonoKey, GaussianRational]]):
        canon: dict[ExpQuadratic, dict[MonoKey, GaussianRational]] = {}
        for eq, poly in parts.items():
            clean = {}
            for key, coeff in poly.items():
                if not coeff:
                    continue
                xdeg, pdeg, hdeg, gdeg = key
                if xdeg < 0:
                    raise ValueError("negative power of x is not representable")
                if gdeg < 0:
                    raise ValueError("negative power of g is not representable")
                clean[key] = coeff
            if clean:
                canon[eq] = clean
        self._parts = canon

    @classmethod
    def _from_parts(cls, parts) -> PhaseSymbol:
        """The symbol of parts already canonical: no zero coefficient, no empty
        part, no negative power of x or g.  The symbol takes the dicts over."""
        sym = cls.__new__(cls)
        sym._parts = parts
        return sym

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> PhaseSymbol:
        return cls({})

    @classmethod
    def monomial(cls, coeff=1, x: int = 0, p: int = 0, hbar: int = 0, g: int = 0) -> PhaseSymbol:
        c = GaussianRational.coerce(coeff)
        if c and x >= 0 and g >= 0:  # already canonical
            return cls._from_parts({TRIVIAL_EXP: {(x, p, hbar, g): c}})
        return cls({TRIVIAL_EXP: {(x, p, hbar, g): c}})

    @classmethod
    def exponential(cls, quad: ExpQuadratic) -> PhaseSymbol:
        return cls({quad: {(0, 0, 0, 0): C_ONE}})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum((self, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):  # negating nonzero coefficients keeps the parts canonical
        return PhaseSymbol._from_parts({eq: {k: -c for k, c in poly.items()}
                                        for eq, poly in self._parts.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pairs = sum(map(len, self._parts.values())) * sum(map(len, o._parts.values()))
        if pairs > MAX_POWER_TERM_PAIRS:
            raise PowerTooLarge(f"product needs {pairs} term pairs, "
                                f"past the limit of {MAX_POWER_TERM_PAIRS}")
        for mono, other in ((o, self), (self, o)):
            if len(terms := mono._parts.get(TRIVIAL_EXP, ())) == 1 and len(mono._parts) == 1:
                # a product with one monomial shifts the keys and scales the coefficients,
                # and so keeps the other factor canonical
                ((dx, dp, dh, dg), m), = terms.items()
                return PhaseSymbol._from_parts(
                    {eq: {(x + dx, p + dp, h + dh, g + dg): c * m
                          for (x, p, h, g), c in poly.items()}
                     for eq, poly in other._parts.items()})
        acc: dict[ExpQuadratic, dict[MonoKey, GaussianRational]] = {}
        for eq1, poly1 in self._parts.items():
            for eq2, poly2 in o._parts.items():
                eq = eq1.combined(eq2)
                dst = acc.setdefault(eq, {})
                for k1, c1 in poly1.items():
                    for k2, c2 in poly2.items():
                        key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
                        dst[key] = dst.get(key, C_ZERO) + c1 * c2
        return PhaseSymbol(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """n-th power: in one step for a monomial, by squaring for other symbols."""
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if len(self._parts) == 1 and len(poly := self._parts.get(TRIVIAL_EXP, {})) == 1:
            ((xdeg, pdeg, hdeg, gdeg), coeff), = poly.items()
            if n < 0 and (xdeg or gdeg):
                raise ValueError("negative power of x or g is not representable")
            return PhaseSymbol({TRIVIAL_EXP: {(xdeg * n, pdeg * n, hdeg * n, gdeg * n):
                                              coeff ** n}})
        if n < 0:
            raise ValueError("only a single monomial can be inverted")
        result, base = ONE, self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    @staticmethod
    def _coerce(value) -> PhaseSymbol | None:
        if isinstance(value, PhaseSymbol):
            return value
        coeff = GaussianRational._try_coerce(value)
        return None if coeff is None else PhaseSymbol.monomial(coeff)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._parts == o._parts

    def __hash__(self):
        # a constant hashes like the coefficient it equals, zero like 0
        parts = self._parts
        if len(parts) == 1 and parts.get(TRIVIAL_EXP, {}).keys() == {(0, 0, 0, 0)}:
            return hash(parts[TRIVIAL_EXP][0, 0, 0, 0])
        return hash(frozenset((eq, frozenset(poly.items())) for eq, poly in parts.items())
                    if parts else 0)

    def __bool__(self):
        return bool(self._parts)

    # -- inspection ---------------------------------------------------------

    @property
    def parts(self) -> dict[ExpQuadratic, dict[MonoKey, GaussianRational]]:
        return {eq: dict(poly) for eq, poly in self._parts.items()}

    def sorted_parts(self) -> list[tuple[ExpQuadratic, list[tuple[MonoKey, GaussianRational]]]]:
        """The canonical layout: parts by ExpQuadratic.sort_key (the trivial part
        first), each part's (key, coeff) terms by (gdeg, xdeg, pdeg, hdeg)."""
        parts = self._parts
        eqs = sorted(parts, key=ExpQuadratic.sort_key) if len(parts) > 1 else parts
        return [(eq, sorted(parts[eq].items(), key=_term_key)) for eq in eqs]

    def iter_terms(self) -> Iterator[tuple[ExpQuadratic, MonoKey, GaussianRational]]:
        """The terms in the canonical order of sorted_parts."""
        return ((eq, key, coeff) for eq, terms in self.sorted_parts() for key, coeff in terms)

    @property
    def is_polynomial(self) -> bool:
        """True when no exponential factors occur (Laurent in p, hbar)."""
        return all(eq.is_trivial for eq in self._parts)

    def max_xdeg(self) -> int:
        return max((k[0] for poly in self._parts.values() for k in poly), default=0)

    def min_pdeg(self) -> int:
        return min((k[1] for poly in self._parts.values() for k in poly), default=0)

    def max_gdeg(self) -> int:
        return max((k[3] for poly in self._parts.values() for k in poly), default=0)

    def g_slices(self) -> dict[int, PhaseSymbol]:
        """Split by g-power, with the power of g stripped from each slice."""
        acc: dict[int, dict[ExpQuadratic, dict[MonoKey, GaussianRational]]] = {}
        for eq, poly in self._parts.items():
            for (xd, pd, hd, gd), coeff in poly.items():
                acc.setdefault(gd, {}).setdefault(eq, {})[(xd, pd, hd, 0)] = coeff
        return {g: PhaseSymbol(parts) for g, parts in acc.items()}

    # -- calculus -----------------------------------------------------------

    def diff(self, var: str, order: int = 1) -> PhaseSymbol:
        """Exact partial derivative in x or p, applied `order` times."""
        if var not in ("x", "p"):
            raise ValueError("var must be 'x' or 'p'")
        if order < 0:
            raise ValueError("order must be non-negative")
        parts = self._parts
        for _ in range(order):  # a step keeps terms canonical, and may empty a part
            parts = {eq: out for eq, poly in parts.items() if (out := _step(eq, poly, var))}
        return PhaseSymbol._from_parts(parts)

    def conjugate(self) -> PhaseSymbol:
        """Complex conjugation; x, p, hbar and g are treated as real."""
        return PhaseSymbol({eq.conjugate(): {k: c.conjugate() for k, c in poly.items()}
                            for eq, poly in self._parts.items()})

    def star(self, other) -> PhaseSymbol:
        """Standard-ordered star product.

        The series lives through the smaller of two live orders (see `_live`):
        the left factor's under d_x and the right factor's under d_p.  When
        both are infinite it raises NonTerminatingStar.

        A left factor free of x is the operator _star_ops(left, "x") acting
        on the right factor; otherwise the right factor is the operator
        _star_ops(right, "p") acting on the left one.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError("star product needs a PhaseSymbol operand")
        xtop, ptop = _live_order(self._parts, 0), _live_order(o._parts, 1)
        top = min(xtop, ptop)
        if top == math.inf:
            raise NonTerminatingStar(
                f"star series does not terminate: left factor has {_blocker(self._parts, 0)} "
                f"and right factor has {_blocker(o._parts, 1)}")
        if top > MAX_LIVE_ORDER:
            raise _past_live_order("star series", top, *(
                (PhaseSymbol.monomial(1, x=top), "in the left factor") if top == xtop
                else (PhaseSymbol.monomial(1, p=top), "in the right factor")))
        var, side, applied = ("x", self, o) if xtop < math.inf else ("p", o, self)
        return DifferentialOperator._from_ops(
            {eq: _star_ops(poly, var, top) for eq, poly in side._parts.items()}).apply(applied)

    def exp_twist(self, sign: int) -> PhaseSymbol:
        """Apply exp(sign*i*hbar*d_x*d_p) = sum_k (sign*i*hbar)^k / k! d_x^k d_p^k exactly.

        Each term lives through the smaller of its two live orders (see `_live`)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        top = max((min(_live(eq, key)) for eq, poly in self._parts.items() for key in poly),
                  default=0)
        if top == math.inf:
            eq = min((eq for eq, poly in self._parts.items()
                      if any(min(_live(eq, key)) == math.inf for key in poly)),
                     key=ExpQuadratic.sort_key)
            part = {eq: self._parts[eq]}
            raise NonTerminatingTwist(f"twist series does not terminate: symbol has "
                                      f"{_blocker(part, 0)} and {_blocker(part, 1)}")
        if top > MAX_LIVE_ORDER:
            _, a, b = max((min(_live(eq, key)), key[0], key[1])
                          for eq, poly in self._parts.items() for key in poly)
            raise _past_live_order("twist series", top, PhaseSymbol.monomial(1, x=a, p=b),
                                   "in the symbol")
        # numerators (sign*i)^k * top!/k! over the denominator top!
        den = re = math.factorial(top)
        ops, im = [], 0
        for k in range(top + 1):
            ops.append((k, k, [((0, 0, k, 0), re, im)]))
            re, im = (-im, re) if sign > 0 else (im, -re)
            re, im = re // (k + 1), im // (k + 1)
        return DifferentialOperator._from_ops({TRIVIAL_EXP: (den, ops)}).apply(self)

    def dagger(self) -> PhaseSymbol:
        """Symbol of the hermitian-conjugate operator, conj(exp(-i*hbar*d_x*d_p) A):
        twisting before conjugating lets a refusal name A's own exponents."""
        return self.exp_twist(-1).conjugate()

    def is_hermitian(self) -> bool:
        """Whether the symbol's operator is hermitian."""
        return self.conjugate() == self.exp_twist(-1)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, x: complex, p: complex, hbar: complex, g: complex = 1.0) -> complex:
        """Floating-point evaluation, including exponential factors."""
        total = 0j
        for eq, poly in self._parts.items():
            weight = 1.0 + 0j
            if not eq.is_trivial:
                arg = (eq.r.evaluate(hbar) * p * p + eq.s.evaluate(hbar) * p * x
                       + eq.t.evaluate(hbar) * x * x)
                weight = cmath.exp(arg)
            for (xd, pd, hd, gd), coeff in poly.items():
                total += weight * coeff.to_complex() * x ** xd * p ** pd * hbar ** hd * g ** gd
        return total

    def __str__(self):
        from .formatting import format_expression

        return format_expression(self, "text")

    def __repr__(self):
        return f"PhaseSymbol({self})"


def _sum(syms) -> PhaseSymbol:
    """The sum of syms in one pass, where a chain of + copies the running total.
    Symbols never change their parts, so an input's part dict is kept until a second
    part meets it; only there is it copied, and zero sums and emptied parts dropped."""
    acc, met = {}, set()
    for sym in syms:
        for eq, poly in sym._parts.items():
            dst = acc.get(eq)
            if dst is None:
                acc[eq] = poly
                continue
            if eq not in met:
                met.add(eq)
                dst = acc[eq] = dict(dst)
            for key, coeff in poly.items():
                dst[key] = dst.get(key, C_ZERO) + coeff
    for eq in met:
        acc[eq] = {key: c for key, c in acc[eq].items() if c}
    return PhaseSymbol._from_parts({eq: poly for eq, poly in acc.items() if poly})


ZERO = PhaseSymbol.zero()
ONE = PhaseSymbol.monomial(1)
X = PhaseSymbol.monomial(1, x=1)
P = PhaseSymbol.monomial(1, p=1)
HBAR = PhaseSymbol.monomial(1, hbar=1)
G = PhaseSymbol.monomial(1, g=1)

# exp(2*i*x*p/hbar): the x-constant kernel of every p^2 + g*V(x) metric equation
KERNEL_EXP = ExpQuadratic(HS_ZERO, HbarScalar.hbar_power(I * 2, -1), HS_ZERO)


# -- star and twist kernels ---------------------------------------------------

def _live(eq: ExpQuadratic, key) -> tuple[float, float]:
    """The last k at which d_x^k, and d_p^k, leave exp(eq)*x^a*p^b alive.

    d_x^k dies past k = a unless the exponent holds x; d_p^k dies past k = b
    unless the exponent holds p or b < 0.  Infinity where it never dies.
    """
    return (math.inf if eq.s or eq.t else key[0],
            math.inf if eq.r or eq.s or key[1] < 0 else key[1])


def _live_order(parts, i: int) -> float:
    """The largest live order under d_x (i = 0) or d_p (i = 1) over the terms of parts."""
    return max((_live(eq, key)[i] for eq, poly in parts.items() for key in poly), default=0)


def _past_live_order(what: str, top: int, power: PhaseSymbol, where: str) -> LiveOrderTooLarge:
    """The refusal of a series that lives to order top, naming the power that needs it.
    Naming the power first raises ExponentTooLong when top is too long to print."""
    power = str(power)
    return LiveOrderTooLarge(f"{what} needs order {top}, past the limit of {MAX_LIVE_ORDER}, "
                             f"for {power} {where}")


def _blocker(parts, i: int) -> str:
    """What keeps d_x (i = 0) or d_p (i = 1) alive on parts, as text: the first
    exponent that holds the variable, else the lowest negative power of p."""
    eqs = [eq for eq in parts if _live(eq, (0, 0))[i] == math.inf]
    if eqs:
        return f"{'xp'[i]}-dependent {PhaseSymbol.exponential(min(eqs, key=ExpQuadratic.sort_key))}"
    return f"negative power p^{min(key[1] for poly in parts.values() for key in poly)}"


class DifferentialOperator:
    """Finite sum of PhaseSymbol coefficients times d_x^m d_p^n.

    The coefficients are kept per exponential part as integer terms
    {eq: (den, [(m, n, [(key, re, im), ...]), ...])} in ascending (m, n): the
    coefficient of d_x^m d_p^n is exp(eq) * sum (re + i*im)/den * monomial.
    """

    __slots__ = ("_ops",)

    def __init__(self, terms: dict[tuple[int, int], PhaseSymbol]):
        by_eq: dict[ExpQuadratic, list] = {}
        for (m, n), coeff in sorted(terms.items()):
            if m < 0 or n < 0:
                raise ValueError("derivative orders must be non-negative")
            for eq, poly in coeff._parts.items():
                by_eq.setdefault(eq, []).append((m, n, *_integer_terms(poly)))
        self._ops = {}
        for eq, ops in by_eq.items():
            den = math.lcm(*(d for _, _, d, _ in ops))
            self._ops[eq] = (den, [(m, n, [(key, re * (den // d), im * (den // d))
                                           for key, re, im in cterms])
                                   for m, n, d, cterms in ops])

    @classmethod
    def _from_ops(cls, ops) -> DifferentialOperator:
        """The operator of ready-made integer terms, in the stored form."""
        op = cls.__new__(cls)
        op._ops = ops
        return op

    @property
    def terms(self) -> dict[tuple[int, int], PhaseSymbol]:
        """The coefficient of each d_x^m d_p^n, in ascending (m, n)."""
        parts: dict[tuple[int, int], dict] = {}
        for eq, (den, ops) in self._ops.items():
            for m, n, cterms in ops:
                parts.setdefault((m, n), {})[eq] = {key: from_integers(re, im, den)
                                                    for key, re, im in cterms}
        return {mn: PhaseSymbol(parts[mn]) for mn in sorted(parts)}

    def apply(self, f: PhaseSymbol) -> PhaseSymbol:
        """sum coeff * d_x^m d_p^n f.

        A part of f whose exponential the derivatives leave alone (no x in it
        or no d_x, and no p in it or no d_p) takes the closed form with each
        coefficient part; on the other parts the closed form multiplies each
        coefficient part by the chain-rule derivative of its (m, n), for each
        (m, n) within the part's own live orders (see `_live`).  `_sum` adds
        the pairs that meet on one exponential, as exp(2x^2)*1 and exp(x^2)*exp(x^2).
        """
        dx, dp = self.dx_order(), self.dp_order()
        pairs = []  # (eq, den, ops, poly): exp(eq) * the closed form of ops on poly
        for eq2, poly in f._parts.items():
            jobs = [(eq1, den, ops, poly) for eq1, (den, ops) in self._ops.items()]
            if dx and (eq2.s or eq2.t) or dp and (eq2.r or eq2.s):
                part = {eq2: poly}
                xtop, ptop = _live_order(part, 0), _live_order(part, 1)
                live = [(eq1, den, m, n, cterms) for eq1, den, ops, _ in jobs
                        for m, n, cterms in ops if m <= xtop and n <= ptop]
                d = _derivatives(eq2, poly, {(m, n) for _, _, m, n, _ in live})
                jobs = [(eq1, den, [(0, 0, cterms)], d[m, n]) for eq1, den, m, n, cterms in live]
            pairs += [(eq1.combined(eq2), den, ops, fpoly) for eq1, den, ops, fpoly in jobs]
        # computed as _sum consumes them, so that only one result at a time is not yet summed
        return _sum(PhaseSymbol._from_parts({eq: out}) for eq, den, ops, fpoly in pairs
                    if (out := _apply_integer(ops, den, fpoly)))

    def __neg__(self):
        return DifferentialOperator._from_ops(
            {eq: (den, [(m, n, [(key, -re, -im) for key, re, im in cterms])
                        for m, n, cterms in ops])
             for eq, (den, ops) in self._ops.items()})

    def dx_order(self) -> int:
        return max((m for _, ops in self._ops.values() for m, _, _ in ops), default=0)

    def dp_order(self) -> int:
        return max((n for _, ops in self._ops.values() for _, n, _ in ops), default=0)

    def __eq__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self._ops)

    def __repr__(self):
        chunks = [f"Dx^{m} Dp^{n}: {coeff}" for (m, n), coeff in self.terms.items()]
        return "DifferentialOperator({" + "; ".join(chunks) + "})"


def _step(eq: ExpQuadratic, poly: dict[MonoKey, GaussianRational], var: str):
    """exp(-eq) * d_var(exp(eq) * poly): poly times the chain factor, s*p + 2*t*x
    for var x and 2*r*p + s*x for var p, plus d_var poly, as one operator on poly.
    A polynomial part has no chain factor and takes d_var alone, in closed form."""
    if eq.is_trivial:
        if var == "x":
            return {(a - 1, b, h, g): from_integers(a * c._re, a * c._im, c._den)
                    for (a, b, h, g), c in poly.items() if a}
        return {(a, b - 1, h, g): from_integers(b * c._re, b * c._im, c._den)
                for (a, b, h, g), c in poly.items() if b}
    (on_p, wp), (on_x, wx), d_var = (((eq.s, 1), (eq.t, 2), (1, 0)) if var == "x"
                                     else ((eq.r, 2), (eq.s, 1), (0, 1)))
    den, cterms = _integer_terms({**{(0, 1, h, 0): c * wp for h, c in on_p},
                                  **{(1, 0, h, 0): c * wx for h, c in on_x}})
    return _apply_integer([(0, 0, cterms), (*d_var, [((0, 0, 0, 0), den, 0)])], den, poly)


def _derivatives(eq: ExpQuadratic, poly: dict[MonoKey, GaussianRational], orders):
    """d_x^m d_p^n of exp(eq)*poly for each (m, n) in orders, as polynomials that
    exp(eq) multiplies.  Each steps on from the previous result when it lies beyond
    it, else from the last d_x^m: a twist's diagonal (k, k) takes two steps per k."""
    out, fx, at, cur, m0, n0 = {}, poly, 0, poly, 0, 0
    for m, n in sorted(orders):
        if n < n0:
            cur, m0, n0 = fx, at, 0
        for _ in range(m - m0):
            cur = _step(eq, cur, "x")
        if n0 == 0:
            fx, at = cur, m
        for _ in range(n - n0):
            cur = _step(eq, cur, "p")
        out[m, n], m0, n0 = cur, m, n
    return out


def _integer_terms(poly: dict[MonoKey, GaussianRational]):
    """A part's coefficients as Gaussian-integer numerators over their lcm denominator."""
    den = 1
    for c in poly.values():
        den = math.lcm(den, c._den)
    return den, [(key, c._re * (den // c._den), c._im * (den // c._den))
                 for key, c in poly.items()]


def _star_ops(poly: dict[MonoKey, GaussianRational], var: str, top: int = MAX_LIVE_ORDER):
    """The integer terms of (i*hbar)^k / k! * d_var^k part through k = top, for
    one part whose d_var dies: A * B is _star_ops(A, "x") applied to B, or
    _star_ops(B, "p") applied to A.

    For var x, x^a p^b gives C(a, k) * i^k * x^(a-k) p^b hbar^k under d_p^k;
    for var p, C(b, k) * i^k * x^a p^(b-k) hbar^k under d_x^k.  Returned as
    one part (den, ops) of a DifferentialOperator.
    """
    den, terms = _integer_terms(poly)
    by_k: dict[int, list] = {}
    for (a, b, h, g), re, im in terms:
        deg = a if var == "x" else b
        for k in range(min(deg, top) + 1):
            w = math.comb(deg, k)
            key = (a - k, b, h + k, g) if var == "x" else (a, b - k, h + k, g)
            by_k.setdefault(k, []).append((key, w * re, w * im))
            re, im = -im, re
    return den, [(0, k, ct) if var == "x" else (k, 0, ct) for k, ct in by_k.items()]


def _apply_integer(ops, den: int, poly: dict[MonoKey, GaussianRational]):
    """sum c_mn * d_x^m d_p^n poly in closed form on a polynomial part.

    `den, ops` is one part of a DifferentialOperator, in ascending (m, n).
    d_x^m d_p^n x^a p^b is a^(m) * b^(n) * x^(a-m) p^(b-n) with falling
    factorials n^(k) = n*(n-1)*...*(n-k+1), also for negative b, each carried
    along ops one factor per step, b^(n) restarting where n falls; sums run
    on Gaussian-integer numerators.
    """
    fden, fterms = _integer_terms(poly)
    acc: dict[MonoKey, list[int]] = {}
    for (a, b, h, g), re, im in fterms:
        wa = wb = 1  # a^(m0) and b^(n0)
        m0 = n0 = 0
        for m, n, cterms in ops:
            if m != m0:
                while m0 < m:
                    wa *= a - m0
                    m0 += 1
                if not wa:
                    break  # a^(m) = 0, and m only grows along ops
                if n < n0:  # only here can n fall; a diagonal (k, k) steps on
                    wb = 1
                    n0 = 0
            while n0 < n:
                wb *= b - n0
                n0 += 1
            w = wa * wb
            if not w:
                continue
            wre, wim, xd, pd = w * re, w * im, a - m, b - n
            for (x, p, hh, gg), cre, cim in cterms:
                key = (xd + x, pd + p, h + hh, g + gg)
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [wre * cre - wim * cim, wre * cim + wim * cre]
                else:
                    slot[0] += wre * cre - wim * cim
                    slot[1] += wre * cim + wim * cre
    return _gaussian_terms(acc, den * fden)


def _gaussian_terms(acc: dict[MonoKey, list[int]], den: int) -> dict[MonoKey, GaussianRational]:
    """Gaussian-integer numerators [re, im] over `den` back to coefficients."""
    return {key: from_integers(re, im, den) for key, (re, im) in acc.items() if re or im}
