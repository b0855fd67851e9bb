"""Exception hierarchy for mathematically degenerate inputs.

DegeneracyError marks situations where a quantity is genuinely undefined
(non-unique stationary distribution, vanishing denominators, degenerate
tori); the CLI maps it to exit code 2. The memory-1 field, its Jacobian and
the torus routes built on it report a refused point one way, with
FieldSingularError.
"""

__all__ = [
    "DegeneracyError",
    "NonUniqueStationaryError",
    "SingularPayoffError",
    "FieldSingularError",
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
    """The memory-1 field kernel refused a point: its common denominator A
    has abs(A) < 1e-14 or is not finite."""


class DegenerateTorusError(DegeneracyError):
    """The point lies on a torus with a vanishing level."""


class NotAnEquilibriumError(DegeneracyError):
    """Stability classification requested away from an equilibrium."""
