"""Exception hierarchy shared by all solver modules."""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class InvalidModel(SolverError):
    """Model, policy, schedule, or vector data fails a construction invariant."""


class NotErgodic(SolverError):
    """Uniform ergodicity coefficient is >= 1 where < 1 is required."""


class NoConvergence(SolverError):
    """Iteration budget exhausted before the requested residual was reached."""


class KernelNotPositive(SolverError):
    """Some transition probability is zero, so no finite two-sided density bound exists."""


class KernelsNotEquivalent(SolverError):
    """Two rows of an action kernel have different supports; no finite ratio bound exists."""


class MarginNotSatisfied(SolverError):
    """exp(span of scaled reward) * ergodicity coefficient is >= 1; the a-priori span bound is unavailable."""


class GammaNotAllowed(SolverError):
    """Risk factor is zero (or |gamma| < GAMMA_FLOOR), of the wrong sign, or too large for the requested operation."""


class GammaOutOfRange(SolverError):
    """Risk factor violates the rate-function precondition of the near-optimality margin."""


class EnumerationTooLarge(SolverError):
    """Requested exhaustive enumeration exceeds the configured guard."""


class EmptyDeviationSet(SolverError):
    """Requested deviation exceeds what any distribution on the state space can achieve."""


class CheckFailed(SolverError):
    """A verification check found a violated inequality.  Carries the full report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(SolverError):
    """Malformed experiment configuration or command line."""
