from __future__ import annotations

import math
import operator
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import gaussian_rationals, hbar_scalars
from moyalmetric import GaussianRational, HbarScalar

I = GaussianRational(0, 1)


class TestGaussianRational:
    def test_coercion_and_reduction(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
        assert z.re == Fraction(1, 2) and z.im == Fraction(1, 2)
        assert GaussianRational(3) == 3
        assert GaussianRational.coerce(Fraction(1, 3)).re == Fraction(1, 3)

    def test_arithmetic(self):
        assert I * I == -1
        assert (GaussianRational(1, 2) * GaussianRational(3, -1)
                == GaussianRational(5, 5))
        assert GaussianRational(1, 1) / GaussianRational(1, 1) == 1
        assert 1 / I == -I
        assert I ** 4 == 1 and I ** -1 == -I

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    @given(gaussian_rationals, gaussian_rationals, gaussian_rationals)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a

    @given(gaussian_rationals)
    def test_conjugation(self, z):
        assert z.conjugate().conjugate() == z
        assert (z * z.conjugate()).is_real
        assert (z * z.conjugate()).re == z.norm2()

    @given(gaussian_rationals)
    def test_division_inverts(self, z):
        if z:
            assert (z / z) == 1
            assert z * (1 / z) == 1

    def test_sqrt_examples(self):
        assert GaussianRational(4).sqrt() == 2
        assert GaussianRational(Fraction(9, 4)).sqrt() == Fraction(3, 2)
        assert GaussianRational(-9).sqrt() == 3 * I
        assert GaussianRational(0, 2).sqrt() == GaussianRational(1, 1)
        assert GaussianRational(3, 4).sqrt() == GaussianRational(2, 1)
        assert GaussianRational(2).sqrt() is None
        assert GaussianRational(1, 1).sqrt() is None

    @given(gaussian_rationals)
    def test_sqrt_of_square(self, z):
        root = (z * z).sqrt()
        assert root is not None
        assert root * root == z * z


class TestHbarScalar:
    def test_construction_merges_terms(self):
        s = HbarScalar([(1, 2), (1, 3), (0, 0)])
        assert s.terms == ((1, GaussianRational(5)),)
        assert not HbarScalar([(2, 0)])

    def test_ring_ops(self):
        a = HbarScalar([(0, 1), (1, 2)])
        b = HbarScalar([(-1, 3)])
        assert a * b == HbarScalar([(-1, 3), (0, 6)])
        assert a - a == HbarScalar()
        assert a.shifted(2) == HbarScalar([(2, 1), (3, 2)])

    def test_conjugate(self):
        s = HbarScalar([(-1, I * 2)])
        assert s.conjugate() == HbarScalar([(-1, I * -2)])

    def test_division(self):
        a = HbarScalar([(0, 1), (1, 2)])
        assert a / HbarScalar([(1, 2)]) == HbarScalar([(-1, Fraction(1, 2)), (0, 1)])
        with pytest.raises(ValueError):
            a / a

    def test_sqrt_examples(self):
        c = HbarScalar([(0, 3), (1, I)])
        assert (c * c).sqrt() in (c, -c)
        assert HbarScalar([(1, 1)]).sqrt() is None  # odd degree
        assert HbarScalar([(0, 2)]).sqrt() is None  # irrational leading part
        assert HbarScalar().sqrt() == HbarScalar()

    @given(hbar_scalars(), hbar_scalars())
    def test_distributive(self, a, b):
        assert a * (a + b) == a * a + a * b

    @given(hbar_scalars())
    def test_sqrt_of_square(self, s):
        sq = s * s
        root = sq.sqrt()
        assert root is not None
        assert root * root == sq


# -- oracle: the two-Fraction GaussianRational the int triple replaced ---------

def _fraction_pair_class():
    """The earlier GaussianRational and its helpers, verbatim but for the
    indentation; its names resolve in this function's scope."""
    def as_fraction(value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


    def sqrt_fraction(q: Fraction) -> Fraction | None:
        """Exact square root of a non-negative rational, or None if irrational."""
        if q < 0:
            return None
        n, d = q.numerator, q.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn != n or rd * rd != d:
            return None
        return Fraction(rn, rd)


    class GaussianRational:
        """Complex number with exact rational real and imaginary parts.

        Values are immutable; both parts are `Fraction`s, so reduction to lowest
        terms with positive denominator is automatic and equality is structural.
        """

        __slots__ = ("re", "im")

        def __init__(self, re=0, im=0):
            self.re = as_fraction(re)
            self.im = as_fraction(im)

        @staticmethod
        def coerce(value) -> GaussianRational:
            if isinstance(value, GaussianRational):
                return value
            if isinstance(value, (int, Fraction)):
                return GaussianRational(value)
            raise TypeError(f"cannot interpret {type(value).__name__} as a Gaussian rational")

        @staticmethod
        def _try_coerce(value) -> GaussianRational | None:
            if isinstance(value, GaussianRational):
                return value
            if isinstance(value, (int, Fraction)):
                return GaussianRational(value)
            return None

        def __add__(self, other):
            o = GaussianRational._try_coerce(other)
            if o is None:
                return NotImplemented
            return GaussianRational(self.re + o.re, self.im + o.im)

        __radd__ = __add__

        def __sub__(self, other):
            o = GaussianRational._try_coerce(other)
            if o is None:
                return NotImplemented
            return GaussianRational(self.re - o.re, self.im - o.im)

        def __rsub__(self, other):
            o = GaussianRational._try_coerce(other)
            if o is None:
                return NotImplemented
            return o - self

        def __mul__(self, other):
            o = GaussianRational._try_coerce(other)
            if o is None:
                return NotImplemented
            return GaussianRational(self.re * o.re - self.im * o.im,
                                    self.re * o.im + self.im * o.re)

        __rmul__ = __mul__

        def __truediv__(self, other):
            o = GaussianRational.coerce(other)
            n = o.norm2()
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                    (self.im * o.re - self.re * o.im) / n)

        def __rtruediv__(self, other):
            return GaussianRational.coerce(other) / self

        def __neg__(self):
            return GaussianRational(-self.re, -self.im)

        def __pow__(self, n: int):
            if not isinstance(n, int):
                raise TypeError("exponent must be an integer")
            if n < 0:
                return (ONE / self) ** (-n)
            result, base = ONE, self
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result

        def __eq__(self, other):
            try:
                o = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
            return self.re == o.re and self.im == o.im

        def __hash__(self):
            return hash((self.re, self.im))

        def __bool__(self):
            return bool(self.re) or bool(self.im)

        def conjugate(self) -> GaussianRational:
            return GaussianRational(self.re, -self.im)

        def norm2(self) -> Fraction:
            return self.re * self.re + self.im * self.im

        @property
        def is_real(self) -> bool:
            return self.im == 0

        def sqrt(self) -> GaussianRational | None:
            """A square root within Q(i), or None when no exact one exists."""
            a, b = self.re, self.im
            if b == 0:
                if a >= 0:
                    s = sqrt_fraction(a)
                    return None if s is None else GaussianRational(s)
                s = sqrt_fraction(-a)
                return None if s is None else GaussianRational(0, s)
            m = sqrt_fraction(a * a + b * b)
            if m is None:
                return None
            u = sqrt_fraction((a + m) / 2)
            if u is None or u == 0:
                return None
            cand = GaussianRational(u, b / (2 * u))
            return cand if cand * cand == self else None

        def to_complex(self) -> complex:
            return complex(float(self.re), float(self.im))

        def __str__(self):
            if not self:
                return "0"
            parts = []
            if self.re:
                parts.append(str(self.re))
            if self.im:
                if self.im == 1:
                    imtxt = "i"
                elif self.im == -1:
                    imtxt = "-i"
                else:
                    imtxt = f"{self.im}*i"
                if parts and not imtxt.startswith("-"):
                    imtxt = "+" + imtxt
                parts.append(imtxt)
            return "".join(parts)

        __repr__ = __str__


    ZERO = GaussianRational(0)
    ONE = GaussianRational(1)
    return GaussianRational


FractionPair = _fraction_pair_class()

parts = st.one_of(st.integers(-10**6, 10**6),
                  st.fractions(max_denominator=10**4),
                  st.fractions(min_value=-3, max_value=3, max_denominator=6))
scalars = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50))
pairs = st.tuples(parts, parts)


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, TypeError) as exc:
        return type(exc)


def _agree(new, old):
    if isinstance(old, type):  # both raised
        assert new is old
    elif isinstance(old, FractionPair):
        assert type(new) is GaussianRational
        assert (new.re, new.im) == (old.re, old.im)
        assert type(new.re) is Fraction and type(new.im) is Fraction
        assert str(new) == str(old) and repr(new) == repr(old)
    else:
        assert type(new) is type(old) and new == old


class TestAgainstFractionPairs:
    @given(pairs, pairs)
    def test_binary_operations(self, a, b):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
            _agree(_outcome(op, GaussianRational(*a), GaussianRational(*b)),
                   _outcome(op, FractionPair(*a), FractionPair(*b)))

    @given(pairs, scalars)
    def test_mixed_int_and_fraction_operands(self, a, s):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
            _agree(_outcome(op, GaussianRational(*a), s), _outcome(op, FractionPair(*a), s))
            _agree(_outcome(op, s, GaussianRational(*a)), _outcome(op, s, FractionPair(*a)))

    @given(pairs)
    def test_other_operand_types(self, a):
        for op in (operator.add, operator.mul, operator.truediv, operator.eq):
            _agree(_outcome(op, GaussianRational(*a), 0.5), _outcome(op, FractionPair(*a), 0.5))

    @given(pairs, st.integers(-4, 6))
    def test_unary_operations_and_powers(self, a, n):
        new, old = GaussianRational(*a), FractionPair(*a)
        _agree(-new, -old)
        _agree(new.conjugate(), old.conjugate())
        _agree(_outcome(operator.pow, new, n), _outcome(operator.pow, old, n))
        _agree(new.norm2(), old.norm2())
        _agree(new.is_real, old.is_real)
        _agree(bool(new), bool(old))
        _agree(new.to_complex(), old.to_complex())

    @given(pairs)
    def test_sqrt(self, a):
        for new, old in ((GaussianRational(*a), FractionPair(*a)),
                         (GaussianRational(*a) ** 2, FractionPair(*a) ** 2)):
            root = new.sqrt()
            if old.sqrt() is None:
                assert root is None
            else:
                _agree(root, old.sqrt())

    @given(pairs, pairs)
    def test_equal_values_hash_equally(self, a, b):
        z, w = GaussianRational(*a), GaussianRational(*b)
        for same in ((z + w) - w, (z * 2) / 2, -(-z), z.conjugate().conjugate()):
            assert same == z and hash(same) == hash(z)
        assert (z == w) == (FractionPair(*a) == FractionPair(*b))

    @given(pairs)
    def test_the_triple_is_canonical(self, a):
        z = GaussianRational(*a)
        assert z._den > 0 and math.gcd(z._re, z._im, z._den) == 1
        assert (z - z)._re == 0 and (z - z)._den == 1
