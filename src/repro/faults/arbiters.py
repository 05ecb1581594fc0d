"""Fault-observable arbiter variants: §3.1 and §3.2 made executable.

The paper argues its static-identity RR protocol "is more robust and
simpler to implement than previous distributed RR protocols that are
based on rotating agent priorities", but gives no experiment.  The
argument is structural, and these arbiters let you run it:

- every distributed RR variant replicates one piece of state at every
  agent — the identity of the last arbitration winner;
- a transient fault (a glitched winner broadcast, a brown-out during
  one arbitration) can make one agent's replica stale;
- with **static identities** (:class:`FaultyWinnerRegisterRR`) the stale
  replica only mis-sets that agent's RR-priority *bit* for a while: the
  numbers on the lines stay globally unique, a winner always resolves,
  and the next arbitration the agent observes re-synchronises it —
  bounded, self-healing service-order deviation;
- with **rotating priorities** (:class:`repro.baselines.rotating.
  RotatingPriorityRR` plus :meth:`~RotatingPriorityRR.
  drop_winner_observations`) the stale replica shifts the agent's whole
  *arbitration number*: two agents can apply the same number, the
  wired-OR of their patterns no longer identifies a unique winner, and
  the arbiter fails permanently.

A counter-glitch fault for the FCFS arbiter is included too: a
corrupted waiting-time counter mis-orders service briefly but heals at
the request boundary, since counters are per-request state.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.base import ArbitrationOutcome, MaxFinder, Request
from repro.core.fcfs import DistributedFCFS
from repro.core.round_robin import DistributedRoundRobin
from repro.errors import ProtocolError

__all__ = ["FaultyWinnerRegisterRR", "GlitchableFCFS"]


class FaultyWinnerRegisterRR(DistributedRoundRobin):
    """RR implementation 1 with *per-agent* winner registers.

    The production arbiter models the winner register once, because on a
    healthy bus every agent reads the same settled lines.  This variant
    replicates the register per agent so a broadcast fault can be
    injected at one of them, and implements the §3.1 recovery story:
    the protocol keeps running through the fault and heals at the next
    observed arbitration.  Its keys are ``[priority][RR bit][id]``, and
    an urgent request's RR bit comes from the agent's own register too:
    unlike the production arbiter's ``IGNORE_RR`` policy, urgent
    requests do not force it.
    """

    name = "rr-faulty-register"

    def __init__(self, num_agents: int, max_finder: Optional[MaxFinder] = None) -> None:
        super().__init__(num_agents, implementation=1, max_finder=max_finder)
        #: Each agent's private copy of the last-winner register.
        self.view: Dict[int, int] = {a: 0 for a in range(1, num_agents + 1)}
        self._drops: Dict[int, int] = {}
        #: Diagnostics: observations dropped so far.
        self.observations_dropped = 0

    # -- fault API -----------------------------------------------------------

    def drop_winner_observations(self, agent_id: int, count: int = 1) -> None:
        """Make ``agent_id`` miss its next ``count`` winner broadcasts."""
        self._validate_agent(agent_id)
        if count < 1:
            raise ProtocolError(f"count must be >= 1, got {count}")
        self._drops[agent_id] = self._drops.get(agent_id, 0) + count

    def desynchronised_agents(self) -> frozenset:
        """Agents whose register disagrees with the true last winner."""
        return frozenset(
            agent for agent, seen in self.view.items() if seen != self.last_winner
        )

    # -- protocol ------------------------------------------------------------

    def _effective_key(self, record: Request) -> int:
        # Same layout as the production arbiter, but the RR bit comes
        # from this agent's possibly-stale private register.
        k = self.static_bits
        rr_bit = 1 if record.agent_id < self.view[record.agent_id] else 0
        priority_bit = 1 if record.priority else 0
        return (priority_bit << (k + 1)) | (rr_bit << k) | record.agent_id

    def start_arbitration(self, now: float) -> ArbitrationOutcome:
        outcome = super().start_arbitration(now)
        # super() updated the shared last_winner; propagate to every
        # agent that actually observes this arbitration's end.
        for agent in self.view:
            pending_drops = self._drops.get(agent, 0)
            if pending_drops:
                self._drops[agent] = pending_drops - 1
                self.observations_dropped += 1
                continue
            self.view[agent] = outcome.winner
        return outcome

    def reset(self) -> None:
        super().reset()
        self.view = {a: 0 for a in range(1, self.num_agents + 1)}
        self._drops.clear()
        self.observations_dropped = 0


class GlitchableFCFS(DistributedFCFS):
    """FCFS arbiter whose waiting-time counters can be corrupted.

    Models a single-event upset in one agent's counter register.  The
    fault mis-orders service while the corrupted request waits, then
    vanishes: the counter is per-request state and resets at the next
    request (§3.2's reset-on-new-request rule is what bounds the blast
    radius).
    """

    name = "fcfs-glitchable"

    def __init__(self, num_agents: int, **kwargs) -> None:
        kwargs.setdefault("strategy", 1)
        super().__init__(num_agents, **kwargs)
        #: Diagnostics: glitches injected so far.
        self.glitches_injected = 0

    def glitch_counter(self, agent_id: int, value: int) -> None:
        """Overwrite the counter of the agent's oldest pending request."""
        self._validate_agent(agent_id)
        queue = self._queues.get(agent_id)
        if not queue:
            raise ProtocolError(f"agent {agent_id} has no pending request to glitch")
        queue[0].counter = value % self.counter_modulus
        self.glitches_injected += 1
