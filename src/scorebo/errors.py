"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (bad grid bounds, budgets, flags)."""


class SurrogateError(RuntimeError):
    """No surrogate could be fitted: the Cholesky failed even after jitter
    escalation, or the initial design gave no finite value to fit."""


class SolverError(RuntimeError):
    """An implicit-equation solve failed (bracket expansion exhausted, etc.)."""


class ObjectiveError(RuntimeError):
    """The objective raised (the exception is the cause). ``trace`` is the
    run's trace of the steps completed before it, once the run sets it."""

    trace = None


class SpaceExhausted(Exception):
    """Every combination in the search space has been evaluated; normal termination."""
