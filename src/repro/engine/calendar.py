"""The event calendar: a stable priority queue of pending actions.

Implemented on :mod:`heapq` with ``(time, priority, sequence, item)``
entries.  The monotonically increasing sequence number guarantees FIFO
order among entries with identical time and priority, which keeps
simulations reproducible, and it means the comparison never reaches
``item``.

An entry's ``item`` is one of two kinds:

- an :class:`~repro.engine.event.Event`, from :meth:`EventCalendar.
  schedule` or :meth:`~EventCalendar.push`: validated, labelled and
  cancellable (lazily: a cancelled event stays queued and is dropped
  when it reaches the top);
- a bare zero-argument action, from :meth:`EventCalendar.post`: no
  object, no label, no cancellation.  The bus model posts every one of
  its own events this way, so its hot path allocates nothing but the
  heap entry.

Both kinds share one heap and one sequence, so their relative order is
exactly the order they would have as events.  :meth:`~EventCalendar.pop`
hands either kind back as an :class:`Event`; the simulator's untraced
loop reads the entries itself.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple, Union

from repro.engine.event import Event, EventPriority
from repro.errors import SimulationError

__all__ = ["EventCalendar"]

#: One heap entry: ``(time, priority, sequence, event or bare action)``.
Entry = Tuple[float, int, int, Union[Event, Callable[[], None]]]


class EventCalendar:
    """Time-ordered queue of pending events and posted actions.

    The calendar never runs events itself; :class:`repro.engine.simulator.
    Simulator` pops and fires them.  Cancelled events are dropped lazily on
    pop.
    """

    __slots__ = ("_heap", "_sequence", "_dead")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._sequence = itertools.count()
        #: Cancelled events still in the heap: the live total is the heap
        #: size less these, so a post or a pop needs no bookkeeping.
        self._dead = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) entries still queued."""
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
        label: Optional[str] = None,
    ) -> Event:
        """Create an event and insert it; returns the event for cancellation.

        Raises
        ------
        SimulationError
            If ``time`` is negative, NaN or infinite.
        """
        if not math.isfinite(time) or time < 0.0:
            raise SimulationError(f"cannot schedule event at time {time!r}")
        event = Event(time, action, priority=priority, label=label)
        self._push(event)
        return event

    def push(self, event: Event) -> None:
        """Insert an already-constructed event."""
        if not math.isfinite(event.time) or event.time < 0.0:
            raise SimulationError(f"cannot schedule event at time {event.time!r}")
        self._push(event)

    def _push(self, event: Event) -> None:
        heapq.heappush(
            self._heap, (event.time, event.priority, next(self._sequence), event)
        )
        event._queued = True

    def post(self, time: float, priority: int, action: Callable[[], None]) -> None:
        """Insert a bare ``action`` at ``time``: no :class:`Event`, no
        label, and no way to cancel it.

        The fast path for a model that never cancels what it schedules.
        The caller guarantees what :meth:`schedule` checks: ``time`` is
        a finite float no earlier than the simulator's clock, and
        ``priority`` is an ``int``.
        """
        heapq.heappush(self._heap, (time, priority, next(self._sequence), action))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent).

        Only an event that is still queued counts against the live total;
        cancelling one that already fired (or was already cancelled) is a
        no-op.  Without the ``queued`` guard a late cancel would drive the
        live count below the true queue size, making ``__bool__`` /
        ``__len__`` lie and letting a simulation run exit early.
        """
        if event._queued and not event.cancelled:
            event.cancel()
            self._dead += 1

    def _discard(self, event: Event) -> bool:
        """Settle a popped event's books; True if it was cancelled."""
        event._queued = False
        if event._cancelled:
            self._dead -= 1
            return True
        return False

    def pop(self) -> Event:
        """Remove and return the earliest live entry as an :class:`Event`
        (a posted action comes back wrapped in a new one).

        Raises
        ------
        SimulationError
            If the calendar is empty.
        """
        heap = self._heap
        while heap:
            time, priority, __, item = heapq.heappop(heap)
            if not isinstance(item, Event):
                return Event(time, item, priority)
            if not self._discard(item):
                return item
        raise SimulationError("pop from an empty event calendar")

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live entry, or ``None`` if empty."""
        heap = self._heap
        while heap:
            item = heap[0][3]
            if not isinstance(item, Event) or not item._cancelled:
                return heap[0][0]
            self._discard(heapq.heappop(heap)[3])
        return None

    def clear(self) -> None:
        """Drop every pending entry."""
        for __, __, __, item in self._heap:
            if isinstance(item, Event):
                item._queued = False
        self._heap.clear()
        self._dead = 0
