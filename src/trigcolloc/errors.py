"""Exception types shared across the package."""


class TrigCollocError(Exception):
    """Base class for all library-specific failures."""


class InvalidNodesError(TrigCollocError, ValueError):
    """Collocation node set is malformed (count, range, or duplicates)."""


class AsymmetricMatrixError(TrigCollocError, ValueError):
    """A symmetric matrix was required but the input is not symmetric."""


class IndefiniteMatrixError(TrigCollocError, ValueError):
    """Eigenvalues fall below the negative tolerance allowed for PSD input."""


class SeriesConvergenceError(TrigCollocError, RuntimeError):
    """A power series failed its convergence guard or term budget."""


class StageIterationError(TrigCollocError, RuntimeError):
    """Fixed-point stage iteration failed.

    Raised when the sweeps do not reach tolerance within max_iter, when a
    stage residual is not finite, and when a step's update gives a
    non-finite state.  Carries the last residual and, when raised from a
    grid sweep, the index of the failing step.
    """

    def __init__(self, message, residual=None, iterations=None, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index


class OracleUnreliableError(TrigCollocError, RuntimeError):
    """Reference solve failed its step-doubling self-check."""


class SingularStageSystemError(TrigCollocError, RuntimeError):
    """Stage system I + z*A(V) is singular at the given scan point."""

    def __init__(self, message, V=None, z=None):
        super().__init__(message)
        self.V = V
        self.z = z


class OutsidePeriodicityError(TrigCollocError, ValueError):
    """Dispersion analysis requested outside the periodicity region."""
