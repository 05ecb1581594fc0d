"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError`, so a
caller can catch library failures with a single ``except`` clause while
still letting genuine programming errors (``TypeError`` and friends from
misuse of the standard library) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ProtocolError",
    "ArbitrationError",
    "NoUniqueWinnerError",
    "SweepExecutionError",
    "SignalError",
    "StatisticsError",
    "CancelledRunError",
    "DeadlineExceededError",
    "ServiceError",
    "JobRejectedError",
]


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulation or experiment was configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class ProtocolError(ReproError):
    """An arbitration protocol was driven through an illegal transition.

    Examples: granting the bus to an agent that never requested it, or an
    agent issuing a second request while one is already outstanding on a
    single-outstanding-request arbiter.
    """


class ArbitrationError(ProtocolError):
    """An arbitration round produced an impossible outcome."""


class NoUniqueWinnerError(ArbitrationError):
    """An arbitration failed to identify exactly one winner.

    Raised when two agents apply the same arbitration number (their
    replicated protocol state has diverged, §3.1's rotating-priority
    failure mode) or when a line fault masks every asserted pattern.
    The bus watchdog (:class:`repro.bus.watchdog.BusWatchdog`) catches
    this and attempts bounded re-arbitration; without a watchdog it
    propagates and ends the run.
    """


class SweepExecutionError(ReproError):
    """A sweep cell failed to execute even after being retried.

    Carries the per-cell diagnostics a session collected, so a failed
    grid names exactly which cells died and why.
    """


class SignalError(ReproError):
    """A bus-line or wired-OR signal model was misused."""


class CancelledRunError(ReproError):
    """An orchestrated run was cancelled cooperatively mid-flight.

    Raised by :meth:`repro.session.control.RunControl.check` at the
    session layer's cancellation points; callers that installed the
    control (the service's deadline enforcement, an interactive abort)
    catch it and account the partial work.
    """


class DeadlineExceededError(CancelledRunError):
    """A run's wall-clock deadline expired before it finished."""


class ServiceError(ReproError):
    """The arbitration service was misused or a job has no usable answer."""


class JobRejectedError(ServiceError):
    """A submission was refused at admission (backpressure or budget).

    Carries ``retry_after`` — the backpressure hint, in seconds — when
    the rejection was a full queue rather than a budget violation.
    """

    def __init__(self, message: str, retry_after: "float | None" = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class StatisticsError(ReproError):
    """An output-analysis routine was given unusable data."""
