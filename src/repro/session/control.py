"""Cooperative cancellation and deadlines for orchestrated runs.

A :class:`RunControl` is the session layer's cancellation token: the
caller that owns a batch of runs (the service's dispatcher enforcing a
job deadline, an interactive front end aborting a sweep) hands one to
:func:`~repro.session.execute.execute_plan`, which consults it at every
stage boundary — before replaying cache hits, before launching a lane
pack, and between cells of the serial direct path.  Tripping the
control raises :class:`~repro.errors.CancelledRunError` (or its
deadline subclass :class:`~repro.errors.DeadlineExceededError`) out of
the execution loop; work already completed stays completed (and
cached), work not yet started never starts.

Cancellation is *cooperative* by design: a simulation cell is a pure
deterministic function and is never torn down mid-flight — the grain of
cancellation is the cell, which keeps the shared result cache free of
partial states.  Process-pool backends add their own preemption on top
(a pool future that has not started can be cancelled outright); this
control is the in-process half of that contract.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import CancelledRunError, DeadlineExceededError

__all__ = ["RunControl"]


class RunControl:
    """A cancellation token with an optional monotonic deadline.

    Parameters
    ----------
    deadline_at:
        Absolute :func:`time.monotonic` instant past which
        :meth:`check` raises :class:`DeadlineExceededError`;
        ``None`` = no deadline.
    clock:
        Injectable clock (tests pin it to step deterministically).
    """

    def __init__(self, deadline_at: Optional[float] = None, clock=time.monotonic) -> None:
        self.deadline_at = deadline_at
        self._clock = clock
        self._cancelled = False
        self._reason: Optional[str] = None

    @classmethod
    def after(cls, seconds: float, clock=time.monotonic) -> "RunControl":
        """A control whose deadline is ``seconds`` from now."""
        return cls(deadline_at=clock() + seconds, clock=clock)

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the control; every later :meth:`check` raises."""
        self._cancelled = True
        self._reason = reason

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return self.deadline_at is not None and self._clock() >= self.deadline_at

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline, or ``None`` when unbounded."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - self._clock()

    def check(self) -> None:
        """Raise if the run should stop; the session's cancellation point.

        :class:`DeadlineExceededError` wins over a plain cancel so the
        caller's diagnostics name the sharper cause.
        """
        if self.expired:
            raise DeadlineExceededError(
                f"run deadline expired {-self.remaining():.3f}s ago"
            )
        if self._cancelled:
            raise CancelledRunError(self._reason or "cancelled")

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "live"
        return f"RunControl({state}, deadline_at={self.deadline_at})"
