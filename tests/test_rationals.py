from __future__ import annotations

import contextlib
import math
import operator
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import gaussian_rationals, hbar_scalars
from moyalmetric import CoefficientTooLong, GaussianRational, HbarScalar, RootTooLong
from moyalmetric.rationals import MAX_ROOT_TERMS, ZERO, from_integers

I = GaussianRational(0, 1)
LIMIT = sys.get_int_max_str_digits()


class TestGaussianRational:
    def test_coercion_and_reduction(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
        assert z.re == Fraction(1, 2) and z.im == Fraction(1, 2)
        assert GaussianRational(3) == 3
        assert GaussianRational.coerce(Fraction(1, 3)).re == Fraction(1, 3)
        for args, name in (((0.5,), "float"), ((Fraction(1, 2), "2"), "str")):
            with pytest.raises(TypeError, match=f"^expected an integer or Fraction, got {name}$"):
                GaussianRational(*args)

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
        assert (z * z.conjugate()).re == z.re ** 2 + z.im ** 2

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
        # the norm 25 is a square, but (5 + 4)/2 is not an integer
        assert GaussianRational(4, 3).sqrt() is None
        assert GaussianRational(Fraction(-9, 4)).sqrt() == Fraction(3, 2) * I
        z = GaussianRational(Fraction(355, 123456), Fraction(-7, 999983))
        assert (z * z).sqrt() == z
        assert (-z * z).sqrt() == I * z  # 7/999983 + 355/123456*i

    # small ranges, so that the parts often share factors with den
    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 60))
    @example(0, 0, 1)
    @example(0, -6, 4)
    @example(-9, 0, 12)
    @example(-8, -12, 30)
    @example(7 * 10 ** 30, -(10 ** 31), 14 * 10 ** 30)
    def test_integer_ratios_are_the_reduced_fractions(self, re, im, den):
        rf, imf = Fraction(re, den), Fraction(im, den)
        assert (from_integers(re, im, den).as_integer_ratios()
                == (rf.numerator, rf.denominator, imf.numerator, imf.denominator))

    @given(gaussian_rationals)
    def test_sqrt_of_square(self, z):
        root = (z * z).sqrt()
        assert root is not None
        assert root * root == z * z


class TestHashing:
    """Equal values hash equally: a real Gaussian rational like the int or Fraction it equals."""

    def test_sets_and_dict_lookups(self):
        assert len({GaussianRational(1), 1}) == 1
        assert {GaussianRational(Fraction(1, 3)), Fraction(1, 3), ZERO, 0, I} == {
            Fraction(1, 3), 0, I}
        table = {Fraction(-5, 2): "a", 7: "b", I: "c"}
        assert [table[GaussianRational(Fraction(-5, 2))], table[GaussianRational(7)],
                table[GaussianRational(0, 1)]] == ["a", "b", "c"]
        assert {GaussianRational(Fraction(-5, 2)): "d"}[Fraction(-5, 2)] == "d"

    @given(st.one_of(st.integers(), st.fractions()))
    @example(-1)  # hash(-1) is -2
    @example(Fraction(1, sys.hash_info.modulus))  # den has no inverse modulo the modulus
    @example(Fraction(-3, 2 * sys.hash_info.modulus))
    def test_real_values_hash_like_their_fraction(self, q):
        assert hash(GaussianRational(q)) == hash(q)


class TestHbarScalar:
    def test_construction_merges_terms(self):
        s = HbarScalar([(1, 2), (1, 3), (0, 0)])
        assert s == ((1, GaussianRational(5)),)
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
    except (ZeroDivisionError, TypeError, CoefficientTooLong) as exc:
        return type(exc)


def _agree(new, old):
    if isinstance(old, type):  # both raised
        assert new is old
    elif isinstance(old, FractionPair):
        assert type(new) is GaussianRational
        assert (new.re, new.im) == (old.re, old.im)
        assert type(new.re) is Fraction and type(new.im) is Fraction
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
        _agree(new * new.conjugate(), old * old.conjugate())
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


# -- the coefficient budget on powers -------------------------------------------

@contextlib.contextmanager
def digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestPowerBudget:
    def test_examples(self):
        assert GaussianRational(2) ** 14000 == 2 ** 14000  # 4215 digits
        assert I ** 10 ** 6 == 1 and (-I) ** (10 ** 6 + 1) == -I
        assert GaussianRational(0) ** 10 ** 12 == 0 and GaussianRational(0) ** 0 == 1
        for z, n in ((GaussianRational(2), 10 ** 10), (GaussianRational(2), 20000),
                     (GaussianRational(Fraction(1, 3)), 100000),
                     (GaussianRational(3), -100000), (GaussianRational(1, 1), 30000),
                     (GaussianRational(2), 10 ** 4000)):
            with pytest.raises(CoefficientTooLong, match=f"more than {LIMIT} digits"):
                z ** n

    def test_modulus_one_is_computed(self):
        z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert (z ** 5000) * (z ** -5000) == 1
        assert (z ** 5000)._den == 5 ** 5000

    def test_modulus_one_past_the_digit_limit_is_refused(self):
        z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        for n in (10 ** 6, -10 ** 6, 10 ** 100):
            with pytest.raises(CoefficientTooLong, match=f"more than {LIMIT} digits"):
                z ** n
        assert z ** 2 == GaussianRational(Fraction(-7, 25), Fraction(24, 25))
        assert GaussianRational(Fraction(1, 2), Fraction(1, 2)) ** 2 == I / 2
        with digit_limit(640):  # 5^915 has 640 digits, 5^916 has 641
            assert (z ** 915)._den == 5 ** 915
            with pytest.raises(CoefficientTooLong):
                z ** 916

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-40, 40))
    def test_modulus_one_powers_are_over_den_to_the_n(self, u, v, n):
        # every Gaussian rational of modulus 1 is w / conj(w) for a Gaussian integer w
        if u or v:
            w = GaussianRational(u, v)
            z = w / w.conjugate()
            assert z * z.conjugate() == 1
            assert (z ** n)._den == z._den ** abs(n)

    def test_no_budget_without_a_digit_limit(self):
        with digit_limit(0):
            assert GaussianRational(2) ** 20000 == 2 ** 20000

    @given(pairs, st.integers(-1500, 1500))
    def test_refusal_is_certain(self, a, n):
        # at the lowest digit limit, a refused power has a part that could not print
        with digit_limit(640):
            new = _outcome(operator.pow, GaussianRational(*a), n)
            old = _outcome(operator.pow, FractionPair(*a), n)
            if new is CoefficientTooLong:
                ints = (old.re.numerator, old.re.denominator,
                        old.im.numerator, old.im.denominator)
                assert max(map(abs, ints)) >= 10 ** 640
            elif isinstance(old, type):  # 0 to a negative power
                assert new is old
            else:  # not compared as text, which may pass the limit
                assert (new.re, new.im) == (old.re, old.im)


# -- oracle: the HbarScalar with hand-written value semantics ----------------

def _seed_scalar_class():
    """The HbarScalar the tuple subclass replaced, verbatim but for the
    indentation, over the current GaussianRational; its names resolve in this
    function's scope."""
    ZERO = GaussianRational(0)

    class HbarScalar:
        """Laurent polynomial in hbar with Gaussian-rational coefficients.

        Stored as a sorted tuple of (hbar_power, coefficient) pairs with no zero
        coefficients, so instances are hashable and compare structurally.
        """

        __slots__ = ("_terms",)

        def __init__(self, terms=()):
            if isinstance(terms, dict):
                items = terms.items()
            else:
                items = terms
            acc: dict[int, GaussianRational] = {}
            for h, c in items:
                c = GaussianRational.coerce(c)
                if not c:
                    continue
                if not isinstance(h, int):
                    raise TypeError("hbar power must be an integer")
                prev = acc.get(h)
                acc[h] = c if prev is None else prev + c
            self._terms = tuple(sorted((h, c) for h, c in acc.items() if c))

        @staticmethod
        def constant(value) -> HbarScalar:
            return HbarScalar([(0, GaussianRational.coerce(value))])

        @staticmethod
        def hbar_power(coeff, power: int) -> HbarScalar:
            return HbarScalar([(power, GaussianRational.coerce(coeff))])

        @staticmethod
        def coerce(value) -> HbarScalar:
            if isinstance(value, HbarScalar):
                return value
            return HbarScalar.constant(GaussianRational.coerce(value))

        @property
        def terms(self) -> tuple:
            return self._terms

        @property
        def is_zero(self) -> bool:
            return not self._terms

        def __bool__(self):
            return bool(self._terms)

        def __add__(self, other):
            o = HbarScalar.coerce(other)
            return HbarScalar(list(self._terms) + list(o._terms))

        __radd__ = __add__

        def __sub__(self, other):
            return self + (-HbarScalar.coerce(other))

        def __rsub__(self, other):
            return HbarScalar.coerce(other) - self

        def __neg__(self):
            return HbarScalar([(h, -c) for h, c in self._terms])

        def __mul__(self, other):
            o = HbarScalar.coerce(other)
            out = []
            for h1, c1 in self._terms:
                for h2, c2 in o._terms:
                    out.append((h1 + h2, c1 * c2))
            return HbarScalar(out)

        __rmul__ = __mul__

        def __truediv__(self, other):
            o = HbarScalar.coerce(other)
            if len(o._terms) != 1:
                raise ValueError("can only divide by a single-term hbar scalar")
            h, c = o._terms[0]
            return HbarScalar([(hd - h, cd / c) for hd, cd in self._terms])

        def __eq__(self, other):
            if not isinstance(other, HbarScalar):
                try:
                    other = HbarScalar.coerce(other)
                except TypeError:
                    return NotImplemented
            return self._terms == other._terms

        def __hash__(self):
            return hash(self._terms)

        def shifted(self, k: int) -> HbarScalar:
            """Multiply by hbar**k."""
            return HbarScalar([(h + k, c) for h, c in self._terms])

        def conjugate(self) -> HbarScalar:
            return HbarScalar([(h, c.conjugate()) for h, c in self._terms])

        def sqrt(self) -> HbarScalar | None:
            """Exact square root in the Laurent ring, or None if not a square."""
            if not self._terms:
                return HbarScalar()
            lo, hi = self._terms[0][0], self._terms[-1][0]
            if lo % 2 or hi % 2:
                return None
            coeffs = dict(self._terms)
            half_lo, half_hi = lo // 2, hi // 2
            lead = coeffs[lo].sqrt()
            if lead is None:
                return None
            root: dict[int, GaussianRational] = {half_lo: lead}
            for m in range(half_lo + 1, half_hi + 1):
                acc = coeffs.get(m + half_lo, ZERO)
                for a in range(half_lo + 1, m):
                    b = m + half_lo - a
                    if a > b:
                        break
                    prod = root.get(a, ZERO) * root.get(b, ZERO)
                    acc = acc - (prod if a == b else prod * 2)
                root[m] = acc / (lead * 2)
            cand = HbarScalar(root)
            return cand if cand * cand == self else None

        def sort_key(self):
            return tuple((h, c.re, c.im) for h, c in self._terms)

        def evaluate(self, hval: complex) -> complex:
            return sum((c.to_complex() * hval ** h for h, c in self._terms), 0j)

        def __str__(self):
            if not self._terms:
                return "0"
            chunks = []
            for h, c in self._terms:
                piece = f"({c})"
                if h:
                    piece += f"*hbar^{h}"
                chunks.append(piece)
            return " + ".join(chunks)

        __repr__ = __str__

    return HbarScalar


SeedScalar = _seed_scalar_class()

# raw (power, coefficient) lists, with repeated powers and zeros to merge away
term_lists = st.lists(st.tuples(st.integers(-2, 2), gaussian_rationals), max_size=4)
numbers = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4))


def _same(new, old):
    if isinstance(old, type):  # both raised
        assert new is old
    else:
        assert type(new) is HbarScalar and type(old) is SeedScalar
        assert tuple(new) == old.terms


def _scalar_outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestAgainstSeedScalar:
    @given(term_lists, term_lists, numbers)
    # sums and products that cancel at a shared power: 1 - 1, (1 + i*hbar)*(1 - i*hbar)
    @example([(0, 1)], [(0, -1)], 0)
    @example([(0, 1), (1, I)], [(0, 1), (1, -I)], Fraction(-1, 2))
    # a zero operand on either side, and Gaussian-rational operands
    @example([], [(1, 2), (-1, I)], I)
    @example([(1, 2), (-1, I)], [], GaussianRational(Fraction(1, 3), -1))
    @example([(2, Fraction(1, 2))], [(2, Fraction(-1, 2)), (0, 3)], GaussianRational(0))
    def test_ring_operations(self, a, b, c):
        for new, old in (((HbarScalar(a), HbarScalar(b)), (SeedScalar(a), SeedScalar(b))),
                         ((HbarScalar(a), c), (SeedScalar(a), c)),
                         ((c, HbarScalar(a)), (c, SeedScalar(a)))):
            for op in (operator.add, operator.sub, operator.mul):
                _same(op(*new), op(*old))

    @given(term_lists, term_lists, st.integers(-2, 2), gaussian_rationals)
    def test_quotients(self, a, b, h, c):
        for divisor in (b, [(h, c)]):
            _same(_scalar_outcome(operator.truediv, HbarScalar(a), HbarScalar(divisor)),
                  _scalar_outcome(operator.truediv, SeedScalar(a), SeedScalar(divisor)))

    @given(term_lists, st.integers(-3, 3))
    def test_unary_operations(self, a, k):
        new, old = HbarScalar(a), SeedScalar(a)
        _same(HbarScalar(dict(a).items()), SeedScalar(dict(a)))
        _same(-new, -old)
        _same(new.conjugate(), old.conjugate())
        _same(new.shifted(k), old.shifted(k))
        assert new.sort_key() == old.sort_key()
        assert bool(new) == bool(old) and len(new) == len(old.terms)
        for root_new, root_old in ((new.sqrt(), old.sqrt()), ((new * new).sqrt(), (old * old).sqrt())):
            if root_old is None:
                assert root_new is None
            else:
                _same(root_new, root_old)

    @given(term_lists, term_lists)
    def test_equality_and_hashing(self, a, b):
        new_a, new_b = HbarScalar(a), HbarScalar(b)
        assert (new_a == new_b) == (SeedScalar(a) == SeedScalar(b))
        assert hash(new_a) == hash(SeedScalar(a))
        for same in ((new_a + new_b) - new_b, -(-new_a), new_a.shifted(1).shifted(-1)):
            assert same == new_a and hash(same) == hash(new_a)


# -- oracle: the dense Laurent square root the remainder loop replaced --------

def _dense_sqrt(self) -> HbarScalar | None:
    """Exact square root in the Laurent ring, or None if not a square."""
    if not self:
        return HbarScalar()
    lo, hi = self[0][0], self[-1][0]
    if lo % 2 or hi % 2:
        return None
    coeffs = dict(self)
    half_lo, half_hi = lo // 2, hi // 2
    lead = coeffs[lo].sqrt()
    if lead is None:
        return None
    root: dict[int, GaussianRational] = {half_lo: lead}
    for m in range(half_lo + 1, half_hi + 1):
        acc = coeffs.get(m + half_lo, ZERO)
        for a in range(half_lo + 1, m):
            b = m + half_lo - a
            if a > b:
                break
            prod = root.get(a, ZERO) * root.get(b, ZERO)
            acc = acc - (prod if a == b else prod * 2)
        root[m] = acc / (lead * 2)
    cand = HbarScalar(root.items())
    return cand if cand * cand == self else None


class TestSqrtByRemainder:
    """The remainder loop against the dense one, on squares (spans up to 12) and
    on squares with one term perturbed, with negative powers throughout."""

    @given(hbar_scalars(max_terms=4, min_h=-3, max_h=3),
           st.one_of(st.just(HbarScalar()), hbar_scalars(max_terms=1, min_h=-6, max_h=6)))
    def test_matches_the_dense_root(self, s, bump):
        target = s * s + bump
        root = target.sqrt()
        assert root == _dense_sqrt(target)
        assert root is None or type(root) is HbarScalar

    @given(hbar_scalars(max_terms=4, min_h=-6, max_h=6))
    def test_non_squares_match_the_dense_root(self, s):
        assert s.sqrt() == _dense_sqrt(s)

    def test_wide_spans(self):
        # the dense loop is quadratic in the span: these took seconds or hung
        one = HbarScalar.constant(1)
        for power in (2000, -2000, 49999):
            root = one + HbarScalar.hbar_power(1, power)
            assert (root * root).sqrt() == root
            assert (root * root + HbarScalar.hbar_power(1, 3 * power)).sqrt() is None
        assert (one + HbarScalar.hbar_power(1, 99999)).sqrt() is None
        assert (HbarScalar.constant(4) + HbarScalar.hbar_power(1, -4000)).sqrt() is None

    def test_root_term_budget(self):
        def square(terms):
            root = HbarScalar([(h, 1) for h in range(terms)])
            return root, root * root

        root, sq = square(MAX_ROOT_TERMS)
        assert sq.sqrt() == root
        _, sq = square(MAX_ROOT_TERMS + 1)
        with pytest.raises(RootTooLong, match=f"more than {MAX_ROOT_TERMS} terms"):
            sq.sqrt()
