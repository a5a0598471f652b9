"""Exception hierarchy shared by all solver components."""


class ChoError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ChoError):
    """Malformed or self-inconsistent configuration (CLI exit code 1)."""


class ValidationError(ChoError):
    """Data fails a structural precondition, e.g. the mean-value condition
    or an infeasible control box (CLI exit code 2)."""


class SolverError(ChoError):
    """A nonlinear or linear solve failed (CLI exit code 3)."""

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class PotentialDomainError(ChoError, ValueError):
    """Argument outside the domain of a singular potential.

    Raised instead of returning NaN so that separation violations are
    impossible to miss.  It is a failure during a run, so the CLI maps it
    to exit code 3 like ``SolverError``.
    """
