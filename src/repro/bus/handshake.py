"""Line-level bus control-acquisition handshake.

§2.1 abstracts the control of an arbitration — starting it and handing
the bus to the winner — as "not important for the current study".  The
system simulator (:class:`repro.bus.model.BusSystem`) therefore models
control as three state variables.  This module builds the thing those
variables abstract: an explicit, per-agent state machine over the
control lines an IEEE-896-style backplane actually has,

- **BR** (bus request, wired-OR) — asserted by every agent that wants
  the bus and has not yet been granted it;
- **AP** (arbitration in progress, wired-OR) — asserted by the control
  logic for the duration of a contention on the arbitration lines;
- **BB** (bus busy, driven by the master) — asserted from grant to the
  end of the tenure.

Agent state machine::

    IDLE ── want bus ──▶ REQUESTING (assert BR)
    REQUESTING ── AP rises with us competing ──▶ COMPETING
    COMPETING ── AP falls, we lost ──▶ REQUESTING
    COMPETING ── AP falls, we won ──▶ PENDING (release BR)
    PENDING ── BB falls (or bus already idle) ──▶ MASTER (assert BB)
    MASTER ── tenure over ──▶ IDLE (release BB)

The control rules are exactly the §4.1 timing model: AP rises whenever
BR is high and no arbitration or unclaimed winner is outstanding; AP
stays up for the arbitration time; the winner seizes BB the instant it
falls (overlapped arbitration) or when AP falls on an idle bus.

:class:`HandshakeBus` runs this machine on the discrete-event engine
and is *validated against* ``BusSystem``: driven by the same arrivals,
the two produce identical grant sequences and identical timing
(``tests/test_handshake.py``).  That test is the justification for the
abstraction the rest of the library uses.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import Arbiter
from repro.engine.simulator import EventPriority, Simulator
from repro.errors import ProtocolError, SimulationError
from repro.signals.wired_or import WiredOrLine

__all__ = ["AgentState", "HandshakeBus"]


class AgentState(enum.Enum):
    """Where one agent stands in the control-acquisition handshake."""

    IDLE = "idle"
    REQUESTING = "requesting"
    COMPETING = "competing"
    PENDING = "pending"
    MASTER = "master"


class HandshakeBus:
    """Line-level control acquisition around an arbitration protocol.

    Parameters
    ----------
    arbiter:
        The protocol that resolves each contention (any
        :class:`~repro.core.base.Arbiter`).
    transaction_time, arbitration_time:
        §4.1 timing constants.
    on_completion:
        Callback ``(agent_id, issue_time, grant_time, completion_time)``
        fired at the end of every tenure.
    simulator:
        Optional externally owned engine (one is created otherwise).
    """

    def __init__(
        self,
        arbiter: Arbiter,
        transaction_time: float = 1.0,
        arbitration_time: float = 0.5,
        on_completion: Optional[Callable[[int, float, float, float], None]] = None,
        simulator: Optional[Simulator] = None,
    ) -> None:
        self.arbiter = arbiter
        self.transaction_time = transaction_time
        self.arbitration_time = arbitration_time
        self.on_completion = on_completion
        self.simulator = simulator if simulator is not None else Simulator()

        #: The three control lines, observable like any bus state.
        self.bus_request = WiredOrLine("BR")
        self.arb_in_progress = WiredOrLine("AP")
        self.bus_busy = WiredOrLine("BB")

        self.state: Dict[int, AgentState] = {
            agent: AgentState.IDLE for agent in range(1, arbiter.num_agents + 1)
        }
        self._issue_time: Dict[int, float] = {}
        self._grant_time: Dict[int, float] = {}
        self._pending_winner: Optional[int] = None
        self._kick_scheduled = False
        #: Grant order, for cross-validation against BusSystem.
        self.grant_log: List[Tuple[float, int]] = []

    # -- external stimulus ----------------------------------------------------

    def request(self, agent_id: int, priority: bool = False) -> None:
        """An agent decides it wants the bus (now)."""
        if self.state[agent_id] is not AgentState.IDLE:
            raise ProtocolError(
                f"agent {agent_id} requested while {self.state[agent_id].value}"
            )
        now = self.simulator.now
        self.state[agent_id] = AgentState.REQUESTING
        self.bus_request.assert_(agent_id)
        self._issue_time[agent_id] = now
        self.arbiter.request(agent_id, now, priority=priority)
        self._schedule_kick()

    # -- control logic ---------------------------------------------------------

    def _schedule_kick(self) -> None:
        """Raise AP at the end of this instant if conditions allow."""
        if (
            self._kick_scheduled
            or self.arb_in_progress.value
            or self._pending_winner is not None
        ):
            return
        self._kick_scheduled = True
        self.simulator.post(self.simulator.now, EventPriority.ARB_KICK, self._kick)

    def _kick(self) -> None:
        # No contention is running and no winner waits:
        # _schedule_kick refuses a kick in either state, and only a kick
        # starts a contention.
        self._kick_scheduled = False
        if not self.bus_request.value or not self.arbiter.has_waiting():
            return
        # AP rises; everyone on BR joins the contention.
        self.arb_in_progress.assert_(0)
        competitors = []
        for agent, state in self.state.items():
            if state is AgentState.REQUESTING:
                self.state[agent] = AgentState.COMPETING
                competitors.append(agent)
        outcome = self.arbiter.start_arbitration(self.simulator.now)
        if outcome.winner not in competitors:
            raise SimulationError(
                f"arbiter chose {outcome.winner}, which is not on the BR line"
            )
        self.simulator.post(
            self.simulator.now + self.arbitration_time * outcome.rounds,
            EventPriority.ARBITRATION,
            lambda: self._arbitration_ends(outcome.winner),
        )

    def _arbitration_ends(self, winner: int) -> None:
        # AP falls; every competitor reads the settled lines.
        self.arb_in_progress.release(0)
        for agent, state in self.state.items():
            if state is not AgentState.COMPETING:
                continue
            if agent == winner:
                self.state[agent] = AgentState.PENDING
                self.bus_request.release(agent)  # §2.2: released at tenure start;
                # electrically the winner may hold BR until grant, but it
                # must not retrigger an arbitration, so it drops here.
            else:
                self.state[agent] = AgentState.REQUESTING
        self._pending_winner = winner
        if not self.bus_busy.value:
            self._seize(winner)

    def _seize(self, agent_id: int) -> None:
        now = self.simulator.now
        if self.state[agent_id] is not AgentState.PENDING:
            raise SimulationError(
                f"agent {agent_id} seized the bus from state "
                f"{self.state[agent_id].value}"
            )
        self._pending_winner = None
        self.state[agent_id] = AgentState.MASTER
        self.bus_busy.assert_(agent_id)
        self._grant_time[agent_id] = now
        self.grant_log.append((now, agent_id))
        self.arbiter.grant(agent_id, now)
        self.simulator.post(
            now + self.transaction_time,
            EventPriority.RELEASE,
            lambda: self._tenure_ends(agent_id),
        )
        # Arbitration for the next master may begin at once (§4.1).
        self._schedule_kick()

    def _tenure_ends(self, agent_id: int) -> None:
        now = self.simulator.now
        self.bus_busy.release(agent_id)
        self.state[agent_id] = AgentState.IDLE
        self.arbiter.release(agent_id, now)
        if self.on_completion is not None:
            self.on_completion(
                agent_id,
                self._issue_time.pop(agent_id),
                self._grant_time.pop(agent_id),
                now,
            )
        if self._pending_winner is not None:
            self._seize(self._pending_winner)
        else:
            self._schedule_kick()

    # -- introspection ----------------------------------------------------------

    def line_levels(self) -> Dict[str, bool]:
        """Observable control-line levels, like a logic probe would see."""
        return {
            "BR": self.bus_request.value,
            "AP": self.arb_in_progress.value,
            "BB": self.bus_busy.value,
        }
