"""Exception hierarchy shared by all infoqm modules.

Input problems subclass ValueError and a non-finite value ArithmeticError.
A run that did not finish subclasses RuntimeError: an iteration that
missed its tolerance (ConvergenceError, and InstabilityError for a flow
that left the admissible set) or a system too ill-conditioned to solve
(IllConditionedError).  So callers that only know the standard library
still catch the right category.
"""


class InfoqmError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(InfoqmError, ValueError):
    """An argument or configuration violates a documented precondition."""


class BracketError(InfoqmError, ValueError):
    """A root bracket does not actually bracket a sign change."""


class InfeasibleMomentsError(InfoqmError, ValueError):
    """The requested moment vector lies outside the feasible moment cone."""


class NumericError(InfoqmError, ArithmeticError):
    """A non-finite value appeared where a finite one is required."""


class ConvergenceError(InfoqmError, RuntimeError):
    """An iteration reached its cap without meeting its tolerance."""


class InstabilityError(ConvergenceError):
    """A flow iterate left the admissible set (for example lost positivity)."""


class IllConditionedError(InfoqmError, RuntimeError):
    """A linear system was too ill-conditioned to trust.

    Carries whatever partial result was computed before the failure.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
