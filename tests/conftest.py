"""Shared strategies, random generators and test oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

from moyalmetric import GaussianRational, HbarScalar, PhaseSymbol
from moyalmetric.symbols import ExpQuadratic, KERNEL_EXP

settings.register_profile("exact", deadline=None, max_examples=50)
settings.load_profile("exact")

I = GaussianRational(0, 1)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
gaussian_rationals = st.builds(GaussianRational, small_fractions, small_fractions)


@st.composite
def poly_symbols(draw, max_terms=3, max_x=3, min_p=-3, max_p=3,
                 min_h=-2, max_h=2, max_g=2):
    """Random polynomial symbols (no exponential factors)."""
    n = draw(st.integers(1, max_terms))
    sym = PhaseSymbol.zero()
    for _ in range(n):
        sym = sym + PhaseSymbol.monomial(
            draw(gaussian_rationals),
            x=draw(st.integers(0, max_x)),
            p=draw(st.integers(min_p, max_p)),
            hbar=draw(st.integers(min_h, max_h)),
            g=draw(st.integers(0, max_g)))
    return sym


@st.composite
def hbar_scalars(draw, max_terms=2, min_h=-1, max_h=1):
    terms = [(draw(st.integers(min_h, max_h)), draw(gaussian_rationals))
             for _ in range(draw(st.integers(0, max_terms)))]
    return HbarScalar(terms)


@st.composite
def exp_symbols(draw):
    """Symbols that may carry exponential-quadratic factors."""
    sym = draw(poly_symbols())
    if draw(st.booleans()):
        quad = ExpQuadratic(draw(hbar_scalars()), draw(hbar_scalars()),
                            draw(hbar_scalars()))
        sym = sym + draw(poly_symbols(max_terms=2)) * PhaseSymbol.exponential(quad)
    return sym


# One trivial and four exponential factors whose exponents collide in sums, as
# exp(2*x^2) * 1 = exp(x^2) * exp(x^2), so that two (coefficient, symbol) pairs
# of an operator can land on the same exponential part.
EXP_POOL = tuple(ExpQuadratic(HbarScalar.constant(r), HbarScalar(), HbarScalar.constant(t))
                 for r, t in ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0)))


@st.composite
def pooled_exp_symbols(draw, max_x=3):
    """Symbols with one to three exponential parts drawn from EXP_POOL."""
    sym = PhaseSymbol.zero()
    for quad in draw(st.lists(st.sampled_from(EXP_POOL), min_size=1, max_size=3, unique=True)):
        sym = sym + draw(poly_symbols(max_terms=2, max_x=max_x)) * PhaseSymbol.exponential(quad)
    return sym


# Exponents for r, s and t: drawn per slot, two parts often share r, or r and s,
# so that their sort keys tie on a leading field.  All three zero is the trivial part.
EXPONENT_POOL = (HbarScalar(), HbarScalar.constant(1), HbarScalar.hbar_power(I * 2, -1),
                 HbarScalar([(-1, Fraction(1, 2)), (0, -1)]))


@st.composite
def tied_exp_symbols(draw):
    """Symbols with one to four parts whose exponents are drawn from EXPONENT_POOL."""
    slot = st.sampled_from(EXPONENT_POOL)
    sym = PhaseSymbol.zero()
    for quad in draw(st.lists(st.builds(ExpQuadratic, slot, slot, slot),
                              min_size=1, max_size=4, unique=True)):
        sym = sym + draw(poly_symbols()) * PhaseSymbol.exponential(quad)
    return sym


# -- seeded plain-random generators (for fixed-count suites) -----------------

def rand_fraction(rng: random.Random, lo=-4, hi=4, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(rand_fraction(rng), rand_fraction(rng))


def rand_poly(rng: random.Random, max_terms=3, max_x=4, min_p=-4, max_p=4,
              min_h=-2, max_h=2, max_g=2) -> PhaseSymbol:
    sym = PhaseSymbol.zero()
    for _ in range(rng.randint(1, max_terms)):
        sym = sym + PhaseSymbol.monomial(
            rand_gaussian(rng),
            x=rng.randint(0, max_x),
            p=rng.randint(min_p, max_p),
            hbar=rng.randint(min_h, max_h),
            g=rng.randint(0, max_g))
    return sym


def rand_nonzero_poly(rng: random.Random, **kwargs) -> PhaseSymbol:
    while True:
        sym = rand_poly(rng, **kwargs)
        if sym:
            return sym


# -- closed-form first-order solution of the cubic-model metric equation -----

def cubic_general_first_order(c1: PhaseSymbol, c2: PhaseSymbol,
                              c3: PhaseSymbol, c4: PhaseSymbol) -> PhaseSymbol:
    """General solution of the p^2 + i*g*x^3 metric equation through O(g).

    c1..c4 are arbitrary symbols in p only; c1 and c3 multiply the
    exp(2*i*p*x/hbar) kernel branch, c2 and c4 the polynomial branch.
    Verified independently: the residual of any instance is O(g^2).
    """
    E = PhaseSymbol.exponential(KERNEL_EXP)
    mono = PhaseSymbol.monomial
    d = lambda f, k: f.diff("p", k)
    g = mono(1, g=1)
    ii = lambda num, den: GaussianRational(0, Fraction(num, den))

    out = mono(ii(-1, 2), hbar=1, p=-1) * c1 * E + c2
    out = out + g * (
        mono(ii(-21, 16), hbar=4, p=-6) * c1 * E
        + mono(Fraction(-21, 8), x=1, hbar=3, p=-5) * c1 * E
        + mono(ii(9, 8), x=2, hbar=2, p=-4) * c1 * E
        + mono(Fraction(1, 4), x=3, hbar=1, p=-3) * c1 * E
        + mono(ii(3, 4), x=1, hbar=2, p=-4) * c2
        + mono(Fraction(-3, 4), x=2, hbar=1, p=-3) * c2
        + mono(ii(-1, 2), x=3, p=-2) * c2
        + mono(Fraction(1, 4), x=4, hbar=-1, p=-1) * c2
        + mono(ii(-1, 2), hbar=1, p=-1) * c3 * E
        + c4
        + mono(ii(21, 16), hbar=4, p=-5) * d(c1, 1) * E
        + mono(Fraction(21, 8), x=1, hbar=3, p=-4) * d(c1, 1) * E
        + mono(ii(-9, 8), x=2, hbar=2, p=-3) * d(c1, 1) * E
        + mono(Fraction(-1, 4), x=3, hbar=1, p=-2) * d(c1, 1) * E
        + mono(ii(-3, 4), x=1, hbar=2, p=-3) * d(c2, 1)
        + mono(Fraction(3, 4), x=2, hbar=1, p=-2) * d(c2, 1)
        + mono(ii(1, 2), x=3, p=-1) * d(c2, 1)
        + mono(ii(-9, 16), hbar=4, p=-4) * d(c1, 2) * E
        + mono(Fraction(-9, 8), x=1, hbar=3, p=-3) * d(c1, 2) * E
        + mono(ii(3, 8), x=2, hbar=2, p=-2) * d(c1, 2) * E
        + mono(ii(3, 4), x=1, hbar=2, p=-2) * d(c2, 2)
        + mono(Fraction(-3, 4), x=2, hbar=1, p=-1) * d(c2, 2)
        + mono(ii(1, 8), hbar=4, p=-3) * d(c1, 3) * E
        + mono(Fraction(1, 4), x=1, hbar=3, p=-2) * d(c1, 3) * E
        + mono(ii(-1, 2), x=1, hbar=2, p=-1) * d(c2, 3))
    return out
