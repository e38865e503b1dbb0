"""Exception types shared across the package."""

import math


class EthLabError(Exception):
    """Base class for all package errors."""


class ValidationError(EthLabError, ValueError):
    """Input violates a documented precondition or invariant."""


class SizeError(ValidationError):
    """Requested dimension is outside the dense-feasibility range."""


class EmptyWindowError(EthLabError, LookupError):
    """A microcanonical window contains no eigenstates.

    Raised instead of returning an empty window so callers cannot
    silently proceed with zero-member statistics.
    """


class NumericError(EthLabError, ArithmeticError):
    """A numerical routine failed to converge or produced invalid output."""


class CostGuardError(EthLabError):
    """A request exceeded a hard cost guard and was refused."""

    def __init__(self, message, estimated_flops=None):
        super().__init__(message)
        self.estimated_flops = estimated_flops


class DivergentIntegralError(EthLabError, ArithmeticError):
    """The static-fluctuation integral diverges for the given rates.

    Divergence occurs exactly when the growth rate reaches or exceeds the
    chaos bound, lam >= 2*pi/beta (so beta > 0); the message states both.
    """

    def __init__(self, lam, beta):
        super().__init__(
            f"integral of exp(beta*w/2 - pi*|w|/lam) diverges: lam={lam:g} "
            f"is at or above the chaos bound 2*pi/beta={2 * math.pi / beta:g}"
        )


class FitRejectedError(EthLabError):
    """An exponential-growth fit was rejected; the message is the reason."""
