"""Discrete-event simulation engine.

This subpackage is the simulation substrate on which the bus model of
:mod:`repro.bus` runs.  It provides:

- :class:`~repro.engine.simulator.Simulator` — the event executive: the
  clock, the event calendar (a heap of bare actions, FIFO among
  simultaneous events of equal priority) and the one loop that fires
  them, with a handler-called stop and step-wise execution;
- :class:`~repro.engine.simulator.EventPriority` — the tie-break ranks
  that order simultaneous bus events;
- :class:`~repro.engine.rng.RandomStreams` — reproducible, independent
  per-entity random-number streams derived from a single master seed.
"""

from repro.engine.rng import RandomStreams
from repro.engine.simulator import EventPriority, Simulator

__all__ = [
    "EventPriority",
    "Simulator",
    "RandomStreams",
]
