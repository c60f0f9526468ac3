"""Exception hierarchy shared across the package.

Kept flat and explicit so callers (and the CLI exit-code policy) can
distinguish bad arguments from numerical breakdowns.  A failed
verification is a verdict, not an error: the checks in
:mod:`minimax_gda.verify` report it in their results.
"""


class MinimaxGdaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MinimaxGdaError, ValueError):
    """An argument violates a documented precondition."""


class SingularMatrixError(InvalidInputError):
    """A matrix required to be invertible is numerically singular."""


class NotPositiveDefiniteError(InvalidInputError):
    """A matrix required to be SPD failed its Cholesky factorization."""


class NumericalFailureError(MinimaxGdaError, RuntimeError):
    """An iterative kernel failed to converge."""


class InvalidStateError(MinimaxGdaError, RuntimeError):
    """A computed quantity is inconsistent with what the operation assumes
    (e.g. an indefinite primal Hessian where a convex one is required)."""


class InsufficientDataError(MinimaxGdaError, ValueError):
    """Not enough usable data points for an estimate."""


class GenerationFailureError(MinimaxGdaError, RuntimeError):
    """Random instance generation exhausted its retry budget."""
