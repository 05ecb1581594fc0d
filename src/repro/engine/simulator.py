"""The simulation event loop.

:class:`Simulator` owns the clock and the :class:`~repro.engine.calendar.
EventCalendar`; models schedule callbacks against it and the loop fires
them in time order until the run ends.

There are two ways onto the calendar.  :meth:`Simulator.schedule` and
:meth:`~Simulator.schedule_at` validate the time and return a
cancellable, labelled :class:`~repro.engine.event.Event`.  A model that
never cancels what it schedules (the bus of :mod:`repro.bus.model`)
instead posts bare actions with :meth:`EventCalendar.post
<repro.engine.calendar.EventCalendar.post>`, at ``simulator.now`` plus a
non-negative delay.  The untraced loop pops the heap entries itself and
calls a posted action directly; both kinds count alike in
:attr:`~Simulator.events_executed` and in the ``max_events`` guard.

A run ends when the calendar drains, at the ``until`` horizon, or when a
handler calls :meth:`Simulator.stop`: the model knows which of its
events can satisfy its stop rule, so the loop tests nothing per event.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from repro.engine.calendar import EventCalendar
from repro.engine.event import Event, EventPriority
from repro.engine.trace import Trace
from repro.errors import SimulationError

__all__ = ["Simulator"]


class _Stopped(Exception):
    """Unwinds the running action after :meth:`Simulator.stop`."""


class Simulator:
    """Event-driven simulation executive.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.engine.trace.Trace` to which every executed
        event is recorded.  Leave ``None`` for production runs.

    Attributes
    ----------
    now:
        Current simulation time.  A plain attribute, so a handler reads
        it at attribute cost; only the loop and :meth:`step` set it.
    """

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.calendar = EventCalendar()
        self.trace = trace
        self.now = 0.0
        self._events_executed = 0
        self._running = False

    @property
    def events_executed(self) -> int:
        """Total events fired since construction."""
        return self._events_executed

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now.

        Raises
        ------
        SimulationError
            If ``delay`` is negative (the engine forbids scheduling into
            the past; zero delay is allowed and ordered by priority).
        """
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay!r} for {label or action!r}")
        return self.calendar.schedule(self.now + delay, action, priority, label)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``action`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, already at {self.now!r}"
            )
        return self.calendar.schedule(time, action, priority, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event."""
        self.calendar.cancel(event)

    def step(self) -> bool:
        """Fire the single earliest event.

        Returns ``True`` if an event was fired, ``False`` if the calendar
        was empty.  A :meth:`stop` from the event's action ends it.
        """
        if not self.calendar:
            return False
        try:
            self._fire_next()
        except _Stopped:
            pass
        return True

    def stop(self) -> None:
        """End the run at the current event.

        A handler calls this as its last statement, once it has done
        everything the event does: it unwinds the handler, and
        :meth:`run` returns with the event counted and the clock at its
        time.
        """
        raise _Stopped

    def _fire_next(self) -> None:
        """Pop, record and fire the earliest event of a non-empty calendar."""
        event = self.calendar.pop()
        if event.time < self.now:
            raise SimulationError(
                f"event calendar returned past event at {event.time} < {self.now}"
            )
        self.now = event.time
        if self.trace is not None:
            self.trace.record(
                event.time,
                event.label or getattr(event.action, "__name__", "event"),
                event.priority,
            )
        self._events_executed += 1
        event.fire()

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
            Safety valve for runaway models; exceeding it raises
            :class:`~repro.errors.SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        executed_at_entry = self._events_executed
        try:
            if self.trace is None:
                self._run_untraced(until, max_events, executed_at_entry)
                return
            while self.calendar:
                next_time = self.calendar.peek_time()
                if until is not None and next_time is not None and next_time > until:
                    self.now = max(self.now, until)
                    return
                self._fire_next()
                if (
                    max_events is not None
                    and self._events_executed - executed_at_entry >= max_events
                ):
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
            if until is not None:
                self.now = max(self.now, until)
        except _Stopped:
            return
        finally:
            self._running = False

    def _run_untraced(
        self,
        until: Optional[float],
        max_events: Optional[int],
        executed_at_entry: int,
    ) -> None:
        """The production event loop: no per-event trace bookkeeping.

        Semantically identical to the traced loop in :meth:`run`, but it
        pops the heap entries itself: a posted action is called as it
        is, an event is checked for cancellation and its action called.
        This loop dominates every simulation's profile, so the per-event
        work is the pop, the clock update, the count and the action.
        """
        calendar = self.calendar
        heap = calendar._heap
        heappop = heapq.heappop
        limit = math.inf if max_events is None else executed_at_entry + max_events
        executed = executed_at_entry
        now = self.now
        while heap:
            if until is not None:
                next_time = calendar.peek_time()
                if next_time is None:
                    break
                if next_time > until:
                    self.now = max(now, until)
                    return
            time, __, __, action = heappop(heap)
            if isinstance(action, Event):
                if calendar._discard(action):
                    continue
                action = action.action
            if time < now:
                raise SimulationError(
                    f"event calendar returned past event at {time} < {now}"
                )
            self.now = now = time
            executed += 1
            self._events_executed = executed
            action()
            if executed >= limit:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
        if until is not None:
            self.now = max(self.now, until)
