"""The event executive: one clock, one calendar, one loop.

:class:`Simulator` owns the clock and the event calendar, a :mod:`heapq`
of ``(time, priority, sequence, action)`` entries.  Entries at the same
time fire in :class:`EventPriority` order and then in the order they
were posted: the sequence number is unique, so a comparison never
reaches the action.

There is one way onto the calendar, :meth:`Simulator.post`: a bare
zero-argument action at an absolute time, with no event object, label or
cancellation.  Its caller guarantees that the time is a finite float no
earlier than the clock; the bus of :mod:`repro.bus.model` posts each of
its events at ``simulator.now`` plus a non-negative delay.
:meth:`Simulator.schedule` is the checked form: it rejects a negative,
NaN or infinite delay, then posts at the clock plus the delay.

:meth:`~Simulator.run` and :meth:`~Simulator.step` drive one loop.  A run
ends when the calendar drains, at the ``until`` horizon, or when a
handler calls :meth:`Simulator.stop`: the model knows which of its
events can satisfy its stop rule, so the loop tests nothing per event.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["EventPriority", "Simulator"]


class EventPriority(enum.IntEnum):
    """Tie-break ranks for events scheduled at the same instant.

    The ordering encodes the bus-cycle micro-sequence of the paper's model:
    a bus tenure ends, then a pending arbitration result is applied and the
    next master is granted, then new arbitrations are started, and only
    then do freshly generated requests from agents get to assert the
    request line (a request generated at the very instant a transaction
    ends cannot have taken part in the arbitration that overlapped that
    transaction).
    """

    RELEASE = 0
    GRANT = 1
    ARBITRATION = 2
    REQUEST = 3
    #: Deferred arbitration start: runs after every same-instant request
    #: event, so a request issued at the very moment an arbitration would
    #: begin still makes it into the competitor snapshot (essential for
    #: deterministic CV = 0 workloads, where simultaneity is the norm).
    ARB_KICK = 4
    DEFAULT = 6


#: One calendar entry: ``(time, priority, sequence, action)``.
Entry = Tuple[float, int, int, Callable[[], None]]


class _Stopped(Exception):
    """Unwinds the running action after :meth:`Simulator.stop`."""


class Simulator:
    """Event-driven simulation executive.

    Attributes
    ----------
    now:
        Current simulation time.  A plain attribute, so a handler reads
        it at attribute cost; only the loop sets it.
    events_executed:
        Total events fired since construction, brought up to date when
        the loop returns.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.events_executed = 0
        self._heap: List[Entry] = []
        self._sequence = itertools.count()
        self._running = False

    def post(self, time: float, priority: int, action: Callable[[], None]) -> None:
        """Put ``action`` on the calendar at absolute ``time``.

        Unchecked: the caller guarantees that ``time`` is a finite float
        no earlier than :attr:`now`.
        """
        heapq.heappush(self._heap, (time, priority, next(self._sequence), action))

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
    ) -> None:
        """Post ``action`` to run ``delay`` time units from now.

        Raises
        ------
        SimulationError
            If ``delay`` is negative, NaN or infinite (zero is allowed
            and ordered by priority).
        """
        if not 0.0 <= delay < math.inf:
            raise SimulationError(f"cannot schedule {action!r} after a delay of {delay!r}")
        self.post(self.now + delay, priority, action)

    def stop(self) -> None:
        """End the run at the current event.

        A handler calls this as its last statement, once it has done
        everything the event does: it unwinds the handler, and
        :meth:`run` returns with the event counted and the clock at its
        time.
        """
        raise _Stopped

    def step(self) -> bool:
        """Fire the single earliest event.

        Returns ``True`` if an event was fired, ``False`` if the calendar
        was empty.  A :meth:`stop` from the event's action ends it.
        """
        if not self._heap:
            return False
        self._fire(None, self.events_executed + 1)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the calendar drains, a handler calls :meth:`stop`, or
        a limit is reached.

        Parameters
        ----------
        until:
            Hard time horizon; events strictly after it are left queued and
            the clock is advanced to ``until``.
        max_events:
            Safety valve for runaway models: the run raises
            :class:`~repro.errors.SimulationError` once it has fired this
            many events.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        try:
            limit = math.inf if max_events is None else self.events_executed + max_events
            if self._fire(until, limit):
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
        finally:
            self._running = False

    def _fire(self, until: Optional[float], limit: float) -> bool:
        """The event loop: fire events in order until the calendar drains,
        the next one lies past ``until``, a handler calls :meth:`stop`, or
        :attr:`events_executed` reaches ``limit``; True only in the last
        case.

        This loop dominates every simulation's profile, so the per-event
        work is the pop, the clock update, the count and the action.
        """
        heap = self._heap
        heappop = heapq.heappop
        now = self.now
        executed = self.events_executed
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                time, __, __, action = heappop(heap)
                if time < now:
                    raise SimulationError(
                        f"event calendar returned past event at {time} < {now}"
                    )
                self.now = now = time
                executed += 1
                action()
                if executed >= limit:
                    return True
        except _Stopped:
            return False
        finally:
            self.events_executed = executed
        if until is not None and until > now:
            self.now = until
        return False
