"""Exception hierarchy for the carat-qnm package.

All exceptions raised intentionally by this package derive from
:class:`CaratError`, so callers can catch package failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class CaratError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CaratError):
    """A model, workload, or simulator configuration is invalid."""


class ConvergenceError(CaratError):
    """An iterative solver failed to converge within its iteration budget.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Last observed residual (solver-specific norm), or ``None`` when
        the solver does not track one.
    """

    def __init__(self, message: str, iterations: int = 0,
                 residual: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class RetiredRowError(CaratError):
    """A batched solve stopped a row early because a lower row already
    missed the caller's target (the row's answer cannot matter).

    Attributes
    ----------
    iterations:
        Iterations the row ran before it was retired.
    missed_row:
        Index of the lowest row that had missed the target when this
        row was retired.
    """

    def __init__(self, message: str, iterations: int, missed_row: int):
        super().__init__(message)
        self.iterations = iterations
        self.missed_row = missed_row


class SimulationError(CaratError):
    """The discrete-event simulation reached an inconsistent state."""


class RecoveryError(CaratError):
    """The write-ahead log could not restore a consistent database state."""
