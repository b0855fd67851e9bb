"""Exception hierarchy for mathematically degenerate inputs.

DegeneracyError marks situations where a quantity is genuinely undefined
(non-unique stationary distribution, vanishing denominators, degenerate
tori); the CLI maps it to exit code 2.
"""

__all__ = [
    "DegeneracyError",
    "NonUniqueStationaryError",
    "SingularPayoffError",
    "FieldSingularError",
    "ToricDenominatorError",
    "DegenerateTorusError",
    "NotAnEquilibriumError",
]


class DegeneracyError(RuntimeError):
    """A computation hit a mathematically degenerate configuration."""


class NonUniqueStationaryError(DegeneracyError):
    """The chain's stationary distribution is not unique."""


class SingularPayoffError(DegeneracyError):
    """The determinant payoff formula is singular."""


class FieldSingularError(DegeneracyError):
    """The closed-form field denominator vanishes."""


class ToricDenominatorError(DegeneracyError):
    """The toric field denominator vanishes."""


class DegenerateTorusError(DegeneracyError):
    """The point lies on a torus with a vanishing level."""


class NotAnEquilibriumError(DegeneracyError):
    """Stability classification requested away from an equilibrium."""
