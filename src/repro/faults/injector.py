"""Executing a fault plan against a live bus system.

The :class:`FaultInjector` is the bridge between a pure
:class:`~repro.faults.plan.FaultPlan` and the simulation: point faults
(dropped broadcasts, counter upsets, agent dropout/re-insertion) are
scheduled on the event calendar when the injector is attached to a
:class:`~repro.bus.model.BusSystem`, while line-level faults (glitches
and stuck-at windows) are applied to the arbitration numbers *as the
wired-OR settles* via :meth:`FaultInjector.perturb`, which the bus calls
on every arbitration outcome.

``perturb`` re-resolves the maximum over the perturbed keys and reports
what a hardware monitor would see: a changed-but-unique winner (a
service-order deviation the run absorbs silently), ``no-winner`` (every
asserted pattern masked to zero) or ``duplicate-winner`` (two agents'
patterns collide) — the two anomaly classes the bus watchdog reacts to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.engine.simulator import EventPriority
from repro.errors import ProtocolError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bus.model import BusSystem
    from repro.core.base import ArbitrationOutcome

__all__ = ["FaultInjector", "PerturbedArbitration"]


@dataclass(frozen=True)
class PerturbedArbitration:
    """What the bus observes after line faults act on an arbitration.

    Attributes
    ----------
    winner:
        The agent the perturbed lines identify (meaningless unless
        ``anomaly`` is ``None``).
    rounds:
        Arbitration passes consumed (inherited from the true outcome).
    anomaly:
        ``None`` for a clean resolution, ``"no-winner"`` when the
        settled pattern is all-zero, ``"duplicate-winner"`` when two
        agents' patterns coincide at the maximum.
    deviated:
        True when the perturbed winner differs from the fault-free one
        (a silent service-order deviation).
    keys:
        The perturbed arbitration numbers, for diagnostics.
    """

    winner: int
    rounds: int
    anomaly: Optional[str] = None
    deviated: bool = False
    keys: Mapping[int, int] = field(default_factory=dict)


class FaultInjector:
    """Schedules a :class:`FaultPlan`'s events against one bus system.

    One injector serves one run: :meth:`attach` consumes the plan's
    point faults onto the simulator calendar, and :meth:`perturb` is
    driven by the bus on every arbitration to apply window and glitch
    faults to the settling lines.  All bookkeeping (applied/skipped
    counts per kind) is exposed for the robustness tables.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Faults that took effect, per kind value.
        self.applied: Dict[str, int] = {}
        #: Faults that could not take effect (e.g. a counter upset when
        #: the victim had no pending request), per kind value.
        self.skipped: Dict[str, int] = {}
        self._glitches: List[FaultEvent] = list(
            plan.of_kind(FaultKind.LINE_GLITCH)
        )
        self._stuck: List[FaultEvent] = list(plan.of_kind(FaultKind.STUCK_LINE))
        self._system: Optional["BusSystem"] = None

    # -- bookkeeping ---------------------------------------------------------

    def _count(self, table: Dict[str, int], kind: FaultKind) -> None:
        table[kind.value] = table.get(kind.value, 0) + 1

    def count_applied(self, kind: FaultKind) -> None:
        """Record one fault of ``kind`` as having taken effect.

        Public so engines that execute the plan's point faults
        themselves (the batch engine's fault-timer class) keep the same
        applied/skipped books as the calendar-scheduled handlers below.
        """
        self._count(self.applied, kind)

    def count_skipped(self, kind: FaultKind) -> None:
        """Record one fault of ``kind`` as having had no effect."""
        self._count(self.skipped, kind)

    # -- wiring --------------------------------------------------------------

    def attach(self, system: "BusSystem") -> None:
        """Schedule the plan's point faults on the system's calendar.

        Call once, before :meth:`BusSystem.run`, while the simulated
        clock is still at its start.
        """
        self._system = system
        now = system.simulator.now
        for event in self.plan.events:
            if event.kind == FaultKind.DROPPED_BROADCAST:
                self._schedule(system, event.time - now, event, self._drop_broadcast)
            elif event.kind == FaultKind.COUNTER_UPSET:
                self._schedule(system, event.time - now, event, self._upset_counter)
            elif event.kind == FaultKind.AGENT_DROPOUT:
                self._schedule(system, event.time - now, event, self._drop_agent)
                self._schedule(
                    system, event.end_time - now, event, self._reinsert_agent
                )
            # Line faults are not calendar events: they act on whatever
            # arbitration is settling when their moment arrives (perturb).

    def _schedule(self, system, delay, event, action) -> None:
        simulator = system.simulator
        simulator.post(
            simulator.now + max(0.0, delay), EventPriority.DEFAULT, lambda: action(event)
        )

    # -- point faults --------------------------------------------------------

    def _drop_broadcast(self, event: FaultEvent) -> None:
        arbiter = self._system.arbiter
        drop = getattr(arbiter, "drop_winner_observations", None)
        if drop is None:
            self._count(self.skipped, event.kind)
            return
        try:
            drop(event.agent_id, 1)
        except ProtocolError:
            # The victim is not on this bus (a plan drawn for a wider
            # one): no register missed the broadcast.
            self._count(self.skipped, event.kind)
            return
        self._count(self.applied, event.kind)

    def _upset_counter(self, event: FaultEvent) -> None:
        arbiter = self._system.arbiter
        glitch = getattr(arbiter, "glitch_counter", None)
        if glitch is None:
            self._count(self.skipped, event.kind)
            return
        try:
            glitch(event.agent_id, event.value)
        except ProtocolError:
            # The victim had no pending request: the upset hit an idle
            # register and is overwritten at the next request (§3.2).
            self._count(self.skipped, event.kind)
            return
        self._count(self.applied, event.kind)

    def _drop_agent(self, event: FaultEvent) -> None:
        agent = self._system.agents.get(event.agent_id)
        if agent is None or not agent.drop_out():
            self._count(self.skipped, event.kind)
            return
        self._count(self.applied, event.kind)

    def _reinsert_agent(self, event: FaultEvent) -> None:
        agent = self._system.agents.get(event.agent_id)
        if agent is not None:
            agent.rejoin()

    # -- line faults ---------------------------------------------------------

    def line_fault_due(self, now: float) -> bool:
        """Whether :meth:`perturb` at ``now`` would touch any line.

        True when a glitch is due (its time has arrived) or a stuck-line
        window covers ``now``.  When it is False, ``perturb`` returns
        the outcome unchanged and counts nothing, so an engine may skip
        building the key map for that pass.
        """
        if self._glitches and self._glitches[0].time <= now:
            return True
        for window in self._stuck:
            if window.time <= now < window.end_time:
                return True
        return False

    def next_line_fault(self, now: float) -> float:
        """The first time, from ``now`` on, at which a line fault is due.

        That is the next glitch's time, or the start of a stuck-line
        window that has not ended by ``now``, whichever is earlier
        (``inf`` when neither is left), so :meth:`line_fault_due` at
        ``now`` holds exactly when the result is ``<= now``.  Later on
        the result stays a lower bound: :meth:`perturb` only consumes
        glitches, and time only ends windows.  So an engine that holds
        it can test a later pass with one comparison, and needs to ask
        again only once that pass has reached it.
        """
        due = self._glitches[0].time if self._glitches else inf
        for window in self._stuck:
            if window.time < due and now < window.end_time:
                due = window.time
        return due

    def perturb(
        self, outcome: "ArbitrationOutcome", now: float
    ) -> PerturbedArbitration:
        """Apply due line faults to an arbitration's settling numbers.

        Consumes every pending glitch whose time has arrived (a glitch
        is transient: it perturbs exactly one arbitration) and applies
        every stuck-line window covering ``now``, then re-resolves the
        maximum the way the monitoring logic on the bus would.
        """
        keys = dict(outcome.keys)
        clean = PerturbedArbitration(
            winner=outcome.winner, rounds=outcome.rounds, keys=keys
        )
        if not keys:
            # Protocol does not expose line-level numbers (central
            # oracles); line faults cannot act on it.
            return clean

        touched = False
        while self._glitches and self._glitches[0].time <= now:
            glitch = self._glitches.pop(0)
            victim = glitch.agent_id
            if victim not in keys:
                # Deterministic fallback: the glitch lands on the
                # lowest-identity competitor's applied pattern.
                victim = min(keys)
            keys[victim] ^= 1 << glitch.line
            self._count(self.applied, FaultKind.LINE_GLITCH)
            touched = True
        for window in self._stuck:
            if window.time <= now < window.end_time:
                mask = 1 << window.line
                for agent in keys:
                    if window.stuck_value:
                        keys[agent] |= mask
                    else:
                        keys[agent] &= ~mask
                self._count(self.applied, FaultKind.STUCK_LINE)
                touched = True
        if not touched:
            return clean

        top = max(keys.values())
        leaders = [agent for agent, key in keys.items() if key == top]
        if top == 0:
            anomaly: Optional[str] = "no-winner"
        elif len(leaders) > 1:
            anomaly = "duplicate-winner"
        else:
            anomaly = None
        winner = leaders[0] if len(leaders) == 1 else outcome.winner
        return PerturbedArbitration(
            winner=winner,
            rounds=outcome.rounds,
            anomaly=anomaly,
            deviated=anomaly is None and winner != outcome.winner,
            keys=keys,
        )
