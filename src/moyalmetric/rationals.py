"""Exact coefficient arithmetic: Gaussian rationals and Laurent scalars in hbar.

Every coefficient in the symbol calculus lives in Q(i).  A GaussianRational
holds three ints, (re + i*im)/den with den > 0 and no common factor, so each
sum or product runs on ints and is brought to lowest terms by one gcd; the
renderers read each part in lowest terms as two ints, a square root is the
integer root of a Gaussian integer, and a power too long ever to print is
refused before it is computed.  Fractions appear only at the edges: the `re`
and `im` parts, `str`, the sort key of a scalar, and as constructor input.
Exponents of Gaussian factors need one more layer: Laurent polynomials in
hbar over Q(i), e.g. the 2i/hbar of the kernel exponential, each the tuple
of its (power, coefficient) pairs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import CoefficientTooLong, RootTooLong

_gcd = math.gcd
_new = object.__new__
_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _triple(re: int, im: int, den: int) -> GaussianRational:
    """(re + i*im)/den from a triple already in lowest terms, den > 0."""
    z = _new(GaussianRational)
    z._re, z._im, z._den = re, im, den
    return z


def from_integers(re: int, im: int, den: int) -> GaussianRational:
    """(re + i*im)/den for den > 0, brought to lowest terms by one gcd."""
    g = _gcd(re, im, den)
    z = _new(GaussianRational)
    if g == 1:
        z._re, z._im, z._den = re, im, den
    else:
        z._re, z._im, z._den = re // g, im // g, den // g
    return z


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Values are immutable: three ints (re + i*im)/den with den > 0 and
    gcd(re, im, den) == 1, zero being (0, 0, 1), so equality compares the
    triple; a real value hashes like the equal int or Fraction.
    `as_integer_ratios` gives both parts in lowest terms as ints, `re` and `im`
    as `Fraction`s; the integer kernels read the triple.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._re, self._im, self._den = re, im, 1
            return
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"expected an integer or Fraction, got {type(part).__name__}")
        rd, idn = re.denominator, im.denominator
        # scaled to the lcm of two reduced denominators, the numerators have
        # no factor in common with it
        den = rd // _gcd(rd, idn) * idn
        self._re, self._im, self._den = (re.numerator * (den // rd),
                                         im.numerator * (den // idn), den)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    def as_integer_ratios(self) -> tuple[int, int, int, int]:
        """(reN, reD, imN, imD): both parts in lowest terms, by two gcds."""
        re, im, den = self._re, self._im, self._den
        g, h = _gcd(re, den), _gcd(im, den)
        return re // g, den // g, im // h, den // h

    @staticmethod
    def _try_coerce(value) -> GaussianRational | None:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    @staticmethod
    def coerce(value) -> GaussianRational:
        z = GaussianRational._try_coerce(value)
        if z is None:
            raise TypeError(f"cannot interpret {type(value).__name__} as a Gaussian rational")
        return z

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational._try_coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._den, other._den
        if d == f:
            return from_integers(self._re + other._re, self._im + other._im, d)
        return from_integers(self._re * f + other._re * d, self._im * f + other._im * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational._try_coerce(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational._try_coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._re, self._im, other._re, other._im
        return from_integers(a * c - b * e, a * e + b * c, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        c, e = o._re, o._im
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + i*b)/d / ((c + i*e)/f) = (a + i*b)(c - i*e) * f / (d * (c^2 + e^2))
        a, b, f = self._re, self._im, o._den
        return from_integers((a * c + b * e) * f, (b * c - a * e) * f, self._den * n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return _triple(-self._re, -self._im, self._den)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        norm, den2 = self._re * self._re + self._im * self._im, self._den * self._den
        limit = sys.get_int_max_str_digits()
        if limit and norm:
            # The larger part of z^n is at least |z|^n / sqrt(2), and so is its
            # numerator; a nonzero part is at most |z|^n, so its denominator is
            # at least |z|^-n.  At |z| = 1 it is den^|n|: the numerator shares no
            # rational prime with the odd den.  Past the digit limit, z^n could never print.
            digits = (abs(math.log10(norm) - math.log10(den2)) / 2 if norm != den2
                      else math.log10(self._den))  # per unit of |n|
            if digits and abs(n) > (limit + math.log10(2) / 2) / digits:
                raise CoefficientTooLong
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
        if type(other) is not GaussianRational:
            other = GaussianRational._try_coerce(other)
            if other is None:
                return NotImplemented
        return self._re == other._re and self._im == other._im and self._den == other._den

    def __hash__(self):
        # a real value hashes like the equal int or Fraction: re/den as the int
        # re * den^-1 modulo the hash modulus, or +-inf where den has no inverse
        re, im, den = self._re, self._im, self._den
        if im:
            return hash((re, im, den))
        if den == 1:
            return hash(re)
        if den % _HASH_MODULUS:
            return hash(re * pow(den, -1, _HASH_MODULUS))
        return _HASH_INF if re >= 0 else -_HASH_INF

    def __bool__(self):
        return self._re != 0 or self._im != 0

    def conjugate(self) -> GaussianRational:
        return _triple(self._re, -self._im, self._den)

    @property
    def is_real(self) -> bool:
        return self._im == 0

    def sqrt(self) -> GaussianRational | None:
        """A square root within Q(i), or None when no exact one exists.

        It is the root u + i*v of the Gaussian integer a + i*b = (re + i*im)*den,
        over den: Z[i] is integrally closed, so one exists exactly when the other
        does.  With m = |a + i*b|, u^2 = (m + a)/2 and v^2 = (m - a)/2; the root
        taken has u >= 0 and v of the sign of b, so a negative real gives
        +i*sqrt(-a)."""
        den = self._den
        a, b = self._re * den, self._im * den
        m = math.isqrt(a * a + b * b)
        u, v = math.isqrt((m + a) >> 1), math.isqrt((m - a) >> 1)
        if u * u - v * v != a or 2 * u * v != abs(b):
            return None
        return from_integers(u, -v if b < 0 else v, den)

    def to_complex(self) -> complex:
        return complex(self._re / self._den, self._im / self._den)

    def __str__(self):
        if not self:
            return "0"
        re, im = self.re, self.im
        parts = []
        if re:
            parts.append(str(re))
        if im:
            if im == 1:
                imtxt = "i"
            elif im == -1:
                imtxt = "-i"
            else:
                imtxt = f"{im}*i"
            if parts and not imtxt.startswith("-"):
                imtxt = "+" + imtxt
            parts.append(imtxt)
        return "".join(parts)

    __repr__ = __str__


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


#: Most terms HbarScalar.sqrt builds; each costs a pass over the remainder,
#: whose coefficients grow with the root, so a dense root is refused here.
MAX_ROOT_TERMS = 64


class HbarScalar(tuple):
    """Laurent polynomial in hbar with Gaussian-rational coefficients.

    The scalar is the tuple of its (hbar_power, coefficient) pairs, sorted by
    power, one pair per power and no zero coefficient, built once in
    `__new__`.  Equality, hashing, truth and length are the tuple's, and
    iterating a scalar yields its pairs.
    """

    __slots__ = ()

    def __new__(cls, terms=()):
        acc: dict[int, GaussianRational] = {}
        for h, c in terms:
            c = GaussianRational.coerce(c)
            if not c:
                continue
            if not isinstance(h, int):
                raise TypeError("hbar power must be an integer")
            acc[h] = acc.get(h, ZERO) + c
        return tuple.__new__(cls, sorted((h, c) for h, c in acc.items() if c))

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

    def __add__(self, other):
        return HbarScalar([*self, *HbarScalar.coerce(other)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-HbarScalar.coerce(other))

    def __rsub__(self, other):
        return HbarScalar.coerce(other) - self

    def __neg__(self):
        return HbarScalar([(h, -c) for h, c in self])

    def __mul__(self, other):
        o = HbarScalar.coerce(other)
        return HbarScalar([(h1 + h2, c1 * c2) for h1, c1 in self for h2, c2 in o])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = HbarScalar.coerce(other)
        if len(o) != 1:
            raise ValueError("can only divide by a single-term hbar scalar")
        (h, c), = o
        return HbarScalar([(hd - h, cd / c) for hd, cd in self])

    def shifted(self, k: int) -> HbarScalar:
        """Multiply by hbar**k."""
        return HbarScalar([(h + k, c) for h, c in self])

    def conjugate(self) -> HbarScalar:
        return HbarScalar([(h, c.conjugate()) for h, c in self])

    def sqrt(self) -> HbarScalar | None:
        """Exact square root in the Laurent ring, or None if not a square: from the root of
        the lowest term, each added term cancels the lowest of self - root^2, up to hbar^(hi/2).
        A root of more than MAX_ROOT_TERMS terms is refused with RootTooLong."""
        if not self:
            return self
        lo, hi = self[0][0], self[-1][0]
        lead = self[0][1].sqrt()
        if lo % 2 or lead is None:
            return None
        root = HbarScalar.hbar_power(lead, lo // 2)
        rest = self - root * root
        while rest:
            h, c = rest[0]
            if 2 * h - lo > hi:
                return None
            if len(root) == MAX_ROOT_TERMS:
                raise RootTooLong(f"square root has more than {MAX_ROOT_TERMS} terms")
            term = HbarScalar.hbar_power(c / (lead * 2), h - lo // 2)
            rest -= term * (root * 2 + term)
            root += term
        return root

    def sort_key(self):
        return tuple((h, c.re, c.im) for h, c in self)

    def evaluate(self, hval: complex) -> complex:
        return sum((c.to_complex() * hval ** h for h, c in self), 0j)

    def __str__(self):
        return " + ".join(f"({c})*hbar^{h}" if h else f"({c})" for h, c in self) or "0"

    __repr__ = __str__


HS_ZERO = HbarScalar()
