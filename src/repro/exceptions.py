"""Exception hierarchy for the repro library.

A single root :class:`ReproError` lets applications catch everything from
this package with one clause, while the concrete subclasses let tests and
callers distinguish configuration mistakes from simulated hardware
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every exception raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is out of range or inconsistent."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure failed to converge within its budget."""


class CrossbarFailure(ReproError, RuntimeError):
    """A simulated crossbar can no longer reach the target accuracy.

    Raised by the lifetime engine when online tuning exceeds its iteration
    budget — the paper's definition of end-of-life.
    """

    def __init__(self, message: str, applications_completed: int = 0) -> None:
        super().__init__(message)
        #: Number of applications the crossbar processed before failing.
        self.applications_completed = applications_completed


class DeviceError(ReproError, RuntimeError):
    """A memristor device was driven outside its physical envelope."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, corrupt, or from an unknown schema."""
