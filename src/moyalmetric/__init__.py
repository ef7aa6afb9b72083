"""Exact star-product calculus for metric operators of non-hermitian
Hamiltonians, with a finite clock/shift Weyl algebra for cross-validation."""

from .errors import (BadDimension, CoefficientTooLong, DimensionMismatch,
                     ExponentTooLong, InvalidDocument, IrrationalDiscriminant,
                     LiveOrderTooLarge, MoyalError,
                     NegativeXPower, NonPolynomialHamiltonian, NonQuadraticExponent,
                     NonTerminatingStar, NonTerminatingTwist, NonzeroLeading,
                     NotUnitLeading, OrderTooLarge, ParseError, PowerTooLarge,
                     RootTooLong, UnsupportedKinetic, ZeroParameter)
from .formatting import format_expression
from .parsing import parse_expression, parse_hbar_scalar
from .pde import (DifferentialOperator, SwansonParams, derive_metric_operator,
                  gaussian_metric_candidates, residual, swanson_from_ladder)
from .rationals import GaussianRational, HbarScalar
from .series import MetricSeries, solve_kinetic_ode, solve_metric_series
from .starlog import PositivityReport, positivity_evidence, star_exp, star_log
from .symbols import (ExpQuadratic, G, HBAR, KERNEL_EXP, ONE, P, PhaseSymbol,
                      TRIVIAL_EXP, X, ZERO)

__all__ = [
    "BadDimension", "CoefficientTooLong", "DifferentialOperator",
    "DimensionMismatch", "ExpQuadratic", "ExponentTooLong",
    "G", "GaussianRational", "HBAR", "HbarScalar", "InvalidDocument",
    "IrrationalDiscriminant", "KERNEL_EXP", "LiveOrderTooLarge", "MetricSeries", "MoyalError",
    "NegativeXPower", "NonPolynomialHamiltonian", "NonQuadraticExponent",
    "NonTerminatingStar", "NonTerminatingTwist", "NonzeroLeading",
    "NotUnitLeading", "ONE", "OrderTooLarge", "P", "ParseError", "PhaseSymbol",
    "PositivityReport", "PowerTooLarge", "RootTooLong", "SwansonParams", "TRIVIAL_EXP", "UnsupportedKinetic",
    "X", "ZERO", "ZeroParameter", "derive_metric_operator", "format_expression",
    "gaussian_metric_candidates", "parse_expression", "parse_hbar_scalar",
    "positivity_evidence", "residual", "solve_kinetic_ode",
    "solve_metric_series", "star_exp", "star_log", "swanson_from_ladder",
]

__version__ = "0.1.0"
