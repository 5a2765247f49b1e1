"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid model data or arguments; the message names the offending field."""


class ConfigError(ValidationError):
    """Invalid or unknown scenario configuration key/value."""


class SolverError(RuntimeError):
    """A numerical operation failed; carries diagnostic context."""


class EigenConvergenceError(SolverError):
    """The Lanczos eigen-solve did not reach the residual tolerance
    spectral.EIGEN_TOL before its Krylov space closed, or its eigenfunction
    was not positive.

    ``last_residual`` is the last explicit sup-norm residual; ``iterations``
    counts the operator products.
    """

    def __init__(self, message, last_residual, iterations):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


class PositivityError(SolverError):
    """A time step produced a negative entry beyond the undershoot tolerance."""

    def __init__(self, message, node, value, suggested_dt):
        super().__init__(message)
        self.node = node
        self.value = value
        self.suggested_dt = suggested_dt


class BracketError(SolverError):
    """Critical-length bracketing failed to expose a sign change."""


class IterationBudgetError(SolverError):
    """The accelerated fixed-point iteration spent its period budget,
    periodic.MAX_PERIODS, before an ordered pair around it certified the
    periodic attractor.

    ``gap`` is the last fixed-point residual |P(u) - u| and ``periods`` the
    budget.
    """

    def __init__(self, message, gap, periods):
        super().__init__(message)
        self.gap = gap
        self.periods = periods
