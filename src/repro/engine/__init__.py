"""Discrete-event simulation engine.

This subpackage is the simulation substrate on which the bus model of
:mod:`repro.bus` runs.  It provides:

- :class:`~repro.engine.event.Event` — an immutable scheduled occurrence;
- :class:`~repro.engine.calendar.EventCalendar` — a priority-queue event
  list with stable FIFO ordering for simultaneous events, holding
  cancellable events and bare posted actions alike;
- :class:`~repro.engine.simulator.Simulator` — the event loop, with a
  handler-called stop, step-wise execution and introspection hooks;
- :class:`~repro.engine.rng.RandomStreams` — reproducible, independent
  per-entity random-number streams derived from a single master seed;
- :class:`~repro.engine.trace.Trace` — an optional bounded in-memory trace
  of executed events for debugging and for the test suite.
"""

from repro.engine.calendar import EventCalendar
from repro.engine.event import Event, EventPriority
from repro.engine.rng import RandomStreams
from repro.engine.simulator import Simulator
from repro.engine.trace import Trace, TraceRecord

__all__ = [
    "Event",
    "EventPriority",
    "EventCalendar",
    "Simulator",
    "RandomStreams",
    "Trace",
    "TraceRecord",
]
