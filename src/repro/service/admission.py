"""Admission control: a bounded queue with explicit backpressure.

The service never buffers without bound — the queue's capacity is the
*whole* of its memory commitment to un-started work, exactly like the
paper's arbiters bound the state an agent may accumulate.  A submission
against a full queue is refused immediately with a ``retry_after``
hint rather than parked, so overload surfaces at the edge (where a
client can shed, defer or spread load) instead of as latency collapse
in the middle.

The ``retry_after`` hint scales with the backlog: a queue at capacity
suggests waiting roughly the time the current backlog needs to drain
(``retry_after`` base × backlog), which spreads a thundering herd of
retries the same way the jittered backoff of
:mod:`repro.service.backoff` does on the worker side.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.errors import ConfigurationError
from repro.service.jobs import Job

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded FIFO of admitted jobs, safe across client threads.

    Parameters
    ----------
    limit:
        Most jobs the queue holds; offers beyond it are refused.
    retry_after:
        Base backpressure hint in seconds; scaled by the backlog when a
        submission is refused.
    """

    def __init__(self, limit: int = 64, retry_after: float = 0.05) -> None:
        if limit < 1:
            raise ConfigurationError(f"admission limit must be >= 1, got {limit}")
        if retry_after <= 0.0:
            raise ConfigurationError(
                f"retry_after must be > 0 seconds, got {retry_after}"
            )
        self.limit = limit
        self.retry_after = retry_after
        self._queue: Deque[Job] = deque()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False
        #: Peak backlog ever observed (observability; no control role).
        self.high_water = 0

    def offer(
        self, job: Job, admitted: Optional[Callable[[], None]] = None
    ) -> Optional[float]:
        """Admit ``job`` or refuse it.

        Returns ``None`` on admission; on refusal (queue full, or the
        controller closed) returns the ``retry_after`` hint in seconds.
        ``admitted`` runs once the job is queued and before any
        :meth:`take` can see it, so whatever it records (the service's
        ``admit`` event) precedes the job's dispatch.
        """
        with self._available:
            if self._closed or len(self._queue) >= self.limit:
                return self.retry_after * max(1, len(self._queue))
            self._queue.append(job)
            self.high_water = max(self.high_water, len(self._queue))
            if admitted is not None:
                admitted()
            self._available.notify()
            return None

    def take(self, limit: int, timeout: Optional[float] = None) -> List[Job]:
        """Dequeue up to ``limit`` jobs, blocking for the first.

        Returns an empty list on timeout or once the controller is
        closed and drained — the dispatcher's signal to exit.
        """
        with self._available:
            if not self._queue and not self._closed:
                self._available.wait(timeout)
            taken: List[Job] = []
            while self._queue and len(taken) < limit:
                taken.append(self._queue.popleft())
            return taken

    def close(self) -> None:
        """Refuse all future offers; queued jobs remain takeable."""
        with self._available:
            self._closed = True
            self._available.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(backlog={len(self)}/{self.limit}, "
            f"closed={self._closed})"
        )
