"""Semantic exceptions shared across the package."""


class SubtrialError(Exception):
    """Base class for all package errors."""


class DomainError(SubtrialError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(SubtrialError, ArithmeticError):
    """A quantity is evaluated where it diverges (e.g. hazard at zero survivor)."""


class UnboundedError(SubtrialError, ArithmeticError):
    """A supremum exceeds the configured cap and is treated as unbounded."""


class NoRootError(SubtrialError, RuntimeError):
    """A bracketed scan found no sign change for a first-order condition."""


class TrialBoundError(SubtrialError, RuntimeError):
    """The trial-length condition is still positive at the configured cap."""


class CappedBranchError(SubtrialError, RuntimeError):
    """An intro-price condition was requested on the capped sign-up branch."""


class ConvergenceError(SubtrialError, RuntimeError):
    """A root polish ran out of iterations, or a solve has no fixed point or no acceptable price."""


class MonotonicityError(SubtrialError, RuntimeError):
    """A curve violated a monotonicity property asserted under its hypothesis."""


class ScenarioError(SubtrialError, ValueError):
    """A scenario file failed validation."""
