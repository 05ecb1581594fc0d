"""Deterministic fault plans: what goes wrong, when, to whom.

A :class:`FaultPlan` is an immutable, seeded schedule of
:class:`FaultEvent` objects against simulated time.  Plans are pure data:
two plans generated from the same ``(seed, rate, horizon, kinds,
num_agents)`` are identical, they pickle across process boundaries, and
they hash into the result cache via :meth:`FaultPlan.spec_key` — so a
robustness sweep is exactly as deterministic and cacheable as a healthy
one.

The fault model covers the degraded-bus scenarios the Futurebus family
is specified against (and that §3.1's robustness argument is about):

- :attr:`FaultKind.LINE_GLITCH` — a transient bit flip on one
  arbitration line while the wired-OR settles: one competitor's applied
  pattern is perturbed for a single arbitration;
- :attr:`FaultKind.STUCK_LINE` — an arbitration line stuck at 0 or 1
  for a window of time, masking every pattern asserted during it;
- :attr:`FaultKind.DROPPED_BROADCAST` — one agent misses the winner
  broadcast at the end of an arbitration, desynchronising its replica
  of the protocol state (the §3.1 fault);
- :attr:`FaultKind.COUNTER_UPSET` — a single-event upset in one FCFS
  waiting-time counter register (§3.2's reset-on-new-request rule
  bounds the blast radius);
- :attr:`FaultKind.AGENT_DROPOUT` — an agent drops off the bus for a
  window and is hot-inserted back, the live-insertion scenario.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.engine.rng import derive_seed
from repro.errors import ConfigurationError

__all__ = [
    "FaultKind",
    "BUS_LEVEL_FAULTS",
    "FaultEvent",
    "FaultPlan",
]

import random


class FaultKind(enum.Enum):
    """One class of injectable fault; values appear in tables and keys."""

    LINE_GLITCH = "line-glitch"
    STUCK_LINE = "stuck-line"
    DROPPED_BROADCAST = "dropped-broadcast"
    COUNTER_UPSET = "counter-upset"
    AGENT_DROPOUT = "agent-dropout"


#: Faults injected at the bus-signal level, applicable to any protocol
#: that arbitrates on shared wired-OR lines (the central oracles and the
#: ticket dispenser do not, so they only support :attr:`AGENT_DROPOUT`).
BUS_LEVEL_FAULTS: FrozenSet[FaultKind] = frozenset(
    {FaultKind.LINE_GLITCH, FaultKind.STUCK_LINE, FaultKind.AGENT_DROPOUT}
)

#: Fault kinds whose events need a duration window.
_WINDOWED = frozenset({FaultKind.STUCK_LINE, FaultKind.AGENT_DROPOUT})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    time:
        Simulated time at which the fault strikes.
    kind:
        The fault class.
    agent_id:
        Victim agent for agent-directed faults (dropped broadcast,
        counter upset, dropout); for line faults it selects whose
        applied pattern the glitch lands on (optional).
    line:
        Arbitration-line index for line faults (bit position, LSB = 0).
    stuck_value:
        For :attr:`FaultKind.STUCK_LINE`: the level the line is stuck
        at, 0 or 1.
    duration:
        Window length for stuck lines and dropouts; 0 for point faults.
    value:
        For :attr:`FaultKind.COUNTER_UPSET`: the corrupted counter
        value written into the victim's oldest pending request.
    """

    time: float
    kind: FaultKind
    agent_id: Optional[int] = None
    line: int = 0
    stuck_value: int = 1
    duration: float = 0.0
    value: int = 0

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.time}")
        if self.line < 0:
            raise ConfigurationError(f"line index must be >= 0, got {self.line}")
        if self.stuck_value not in (0, 1):
            raise ConfigurationError(
                f"stuck_value must be 0 or 1, got {self.stuck_value}"
            )
        if self.duration < 0.0:
            raise ConfigurationError(
                f"fault duration must be >= 0, got {self.duration}"
            )
        if self.kind in _WINDOWED and self.duration <= 0.0:
            raise ConfigurationError(
                f"{self.kind.value} faults need a positive duration"
            )
        if self.kind in (
            FaultKind.DROPPED_BROADCAST,
            FaultKind.COUNTER_UPSET,
            FaultKind.AGENT_DROPOUT,
        ) and self.agent_id is None:
            raise ConfigurationError(
                f"{self.kind.value} faults need a victim agent_id"
            )

    @property
    def end_time(self) -> float:
        """When a windowed fault clears (equals ``time`` for point faults)."""
        return self.time + self.duration

    def spec_key(self) -> list:
        """Canonical JSON-serialisable description, for cache keying."""
        return [
            self.time,
            self.kind.value,
            self.agent_id,
            self.line,
            self.stuck_value,
            self.duration,
            self.value,
        ]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted schedule of fault events.

    Build one explicitly from events, or derive one deterministically
    from a seed with :meth:`generate`.  Equal construction inputs give
    equal plans; the plan is part of a simulation cell's identity (it
    feeds the result-cache key via :meth:`spec_key`).
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.time, e.kind.value)))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        """Number of scheduled fault events."""
        return len(self.events)

    def kinds(self) -> FrozenSet[FaultKind]:
        """The distinct fault kinds this plan injects."""
        return frozenset(event.kind for event in self.events)

    def of_kind(self, kind: FaultKind) -> Tuple[FaultEvent, ...]:
        """The plan's events of one kind, in time order."""
        return tuple(event for event in self.events if event.kind == kind)

    def spec_key(self) -> list:
        """Canonical JSON-serialisable description, for cache keying."""
        return [event.spec_key() for event in self.events]

    @classmethod
    def generate(
        cls,
        seed: int,
        rate: float,
        horizon: float,
        kinds: Iterable[FaultKind],
        num_agents: int,
        start: float = 0.0,
        line_span: int = 4,
        mean_duration: float = 2.0,
        counter_span: int = 16,
    ) -> "FaultPlan":
        """Derive a deterministic Poisson fault schedule.

        Fault arrivals form a Poisson process of intensity ``rate``
        (faults per unit of simulated time) over ``[start, horizon)``;
        each arrival draws its kind uniformly from ``kinds`` and its
        victim uniformly from ``1..num_agents``.  All randomness comes
        from ``derive_seed(seed, ...)``, so the plan is a pure function
        of its arguments — independent of process, platform and call
        order.

        Parameters
        ----------
        seed:
            Master seed; the plan stream is derived from it, so it can
            safely equal the simulation's settings seed.
        rate:
            Expected faults per unit time; 0 gives an empty plan.
        horizon:
            End of the injection window (simulated time).
        kinds:
            Fault kinds to draw from; must be non-empty.
        num_agents:
            Victim pool (identities ``1..num_agents``).
        start:
            Beginning of the injection window (e.g. past the warmup).
        line_span:
            Line faults strike a uniformly drawn line in ``[0,
            line_span)``.
        mean_duration:
            Mean window length for stuck lines and dropouts.
        counter_span:
            Counter upsets write a uniformly drawn value in ``[0,
            counter_span)``.
        """
        kind_list = sorted(set(kinds), key=lambda k: k.value)
        if rate < 0.0:
            raise ConfigurationError(f"fault rate must be >= 0, got {rate}")
        if horizon <= start:
            raise ConfigurationError(
                f"horizon {horizon} must exceed start {start}"
            )
        if rate > 0.0 and not kind_list:
            raise ConfigurationError("a non-empty fault plan needs fault kinds")
        if num_agents < 1:
            raise ConfigurationError(f"need at least one agent, got {num_agents}")
        stream_name = (
            f"fault-plan/r{rate:g}/h{horizon:g}/s{start:g}/"
            + ",".join(kind.value for kind in kind_list)
        )
        rng = random.Random(derive_seed(seed, stream_name))
        events = []
        time = start
        while rate > 0.0:
            time += rng.expovariate(rate)
            if time >= horizon:
                break
            kind = kind_list[rng.randrange(len(kind_list))]
            agent_id = rng.randrange(1, num_agents + 1)
            duration = 0.0
            if kind in _WINDOWED:
                duration = rng.uniform(0.5, 1.5) * mean_duration
            events.append(
                FaultEvent(
                    time=time,
                    kind=kind,
                    agent_id=agent_id,
                    line=rng.randrange(max(1, line_span)),
                    stuck_value=rng.randrange(2),
                    duration=duration,
                    value=rng.randrange(max(1, counter_span)),
                )
            )
        return cls(events=tuple(events))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = sorted(kind.value for kind in self.kinds())
        return f"FaultPlan({len(self.events)} events, kinds={kinds})"
