"""Exception types shared across the package."""

import sys


class MoyalError(Exception):
    """Base class for domain errors raised by this package."""


class NonTerminatingStar(MoyalError):
    """Star-product series does not terminate for the given operands."""


class NonTerminatingTwist(MoyalError):
    """The conjugation-twist series does not terminate for the given symbol."""


class NonPolynomialHamiltonian(MoyalError):
    """Deriving the metric operator needs a polynomial Hamiltonian symbol."""


class UnsupportedKinetic(MoyalError):
    """The perturbative solver only handles Hamiltonians p^2 + g*V(x)."""


class OrderTooLarge(MoyalError):
    """Perturbative order beyond the series.MAX_ORDER budget."""


class PowerTooLarge(MoyalError):
    """A product of symbols, alone or in a power, needs more term pairs than
    symbols.MAX_POWER_TERM_PAIRS."""


class LiveOrderTooLarge(MoyalError):
    """A star, twist or metric-operator series lives past order symbols.MAX_LIVE_ORDER."""


class TooLongToPrint(MoyalError):
    """A number, of the kind each subclass names in `what`, is too long to print."""

    def __init__(self):
        self.limit = sys.get_int_max_str_digits()
        super().__init__(f"{self.what} has more than {self.limit} digits, too long to print")


class CoefficientTooLong(TooLongToPrint):
    """A coefficient has more digits than the interpreter converts to text."""

    what = "coefficient"


class ExponentTooLong(TooLongToPrint):
    """An exponent has more digits than the interpreter converts to text."""

    what = "exponent"


class NotUnitLeading(MoyalError):
    """Star-logarithm input must equal 1 at order g^0."""


class NonzeroLeading(MoyalError):
    """Star-exponential input must vanish at order g^0."""


class IrrationalDiscriminant(MoyalError):
    """Gaussian-metric discriminant is not a perfect square over Q(i)."""


class RootTooLong(MoyalError):
    """A Laurent square root needs more than rationals.MAX_ROOT_TERMS terms."""


class ZeroParameter(MoyalError):
    """Quadratic model needs nonzero p^2 and x^2 couplings."""


class BadDimension(MoyalError):
    """Finite Weyl algebra dimension out of range."""


class DimensionMismatch(MoyalError):
    """Binary operation on discrete symbols of different dimensions."""


class ParseError(MoyalError):
    """Expression text is not in the grammar; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class NonQuadraticExponent(ParseError):
    """exp(...) argument is not a quadratic form in p and x."""


class NegativeXPower(ParseError):
    """Powers of x and g must stay non-negative."""


class InvalidDocument(MoyalError):
    """JSON document does not match the expected schema."""
