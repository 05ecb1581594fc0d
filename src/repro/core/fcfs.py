"""The distributed first-come first-serve protocol (§3.2 of the paper).

Each agent's effective arbitration number is the concatenation of two
parts: the most-significant part is a **waiting-time counter** and the
least-significant part is the statically assigned identity.  The counter
is reset to 0 when a new request is issued and incremented on predefined
global events while the request waits, so the maximum-finding hardware
selects the request that has waited longest — FCFS, up to the resolution
of the counting events.  Two counter-update strategies are modelled:

1. **Lost-arbitration counting** — a request's counter increments each
   time an arbitration completes without serving it.  Requests issued
   between the same pair of arbitrations tie and fall back to static
   priority order; the practical unfairness of this coarseness is the
   subject of the paper's Table 4.1.
2. **a-incr line counting** — one extra bus line is pulsed by every newly
   arriving request; all waiting requests increment on each pulse.  Ties
   are confined to arrivals within one line-propagation window
   (``coincidence_window``), so scheduling is nearly exact FCFS.

The counters are ``ceil(log2 N)``-bit modulo counters: with a single
outstanding request per agent at most ``N - 1`` increments can occur
while a request waits (at most one per other agent), so the counter never
wraps.  With ``r`` outstanding requests per agent the paper adds
``ceil(log2 r)`` bits, preserving the no-wrap guarantee; both are
implemented here and the wrap-free invariant is property-tested.
Priority traffic can force genuine overflow, which the paper addresses
with three options — all three are implemented (see
:class:`PriorityCounterPolicy`).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Deque, Dict, Optional

from repro.core.base import (
    Arbiter,
    ArbitrationOutcome,
    MaxFinder,
    Request,
)
from repro.errors import ArbitrationError, ConfigurationError, ProtocolError

__all__ = ["DistributedFCFS", "PriorityCounterPolicy"]


class PriorityCounterPolicy(enum.Enum):
    """§3.2's three options for updating counters under priority traffic.

    Without priority requests the options coincide; they differ only in
    how non-priority waiting-time counters react to urgent traffic.
    """

    #: Increment on every event regardless of class; counters may
    #: genuinely overflow (wrap to zero) under heavy priority traffic.
    OVERFLOW = "overflow"
    #: Strategy 1 only: increment only when the winning identity's
    #: priority bit matches the request's own class.
    MATCH_WINNER = "match-winner"
    #: Strategy 2 only: separate a-incr / a-incr-priority lines, one tick
    #: stream per class.
    DUAL_LINES = "dual-lines"


class DistributedFCFS(Arbiter):
    """Distributed FCFS arbiter with selectable counting strategy.

    Parameters
    ----------
    num_agents:
        Number of agents (identities 1..N).
    strategy:
        1 = lost-arbitration counting, 2 = a-incr line counting.
    max_outstanding:
        ``r`` of §3.2 — outstanding requests allowed per agent.  The
        counter gains ``ceil(log2 r)`` bits, exactly as the paper states.
    coincidence_window:
        Strategy 2 only: requests arriving within this much time of the
        previous arrival share its tick (the a-incr pulse they raced).
        0.0 means only exactly simultaneous arrivals tie.
    priority_policy:
        Counter behaviour under priority traffic.
    max_finder:
        Maximum-finding strategy; defaults to the direct fast path.

    Every request keeps its own counter (strategy 1) or arrival tick
    (strategy 2).  ``_queues`` holds the pending requests of the agents
    that have one, oldest first; an agent leaves it when its last
    request is granted.  So a pass walks the waiting agents alone: their
    oldest requests' keys are built in one pass, and strategy 1 ages
    their other requests with them.
    """

    name = "distributed-fcfs"
    requires_winner_identity = False
    paper_section = "§3.2"
    supports_outstanding = True

    def __init__(
        self,
        num_agents: int,
        strategy: int = 1,
        max_outstanding: int = 1,
        coincidence_window: float = 0.0,
        priority_policy: PriorityCounterPolicy = PriorityCounterPolicy.OVERFLOW,
        max_finder: Optional[MaxFinder] = None,
    ) -> None:
        super().__init__(num_agents, max_finder)
        if strategy not in (1, 2):
            raise ConfigurationError(f"FCFS strategy must be 1 or 2, got {strategy}")
        if max_outstanding < 1:
            raise ConfigurationError(
                f"max_outstanding must be >= 1, got {max_outstanding}"
            )
        if coincidence_window < 0.0:
            raise ConfigurationError(
                f"coincidence_window must be >= 0, got {coincidence_window}"
            )
        if priority_policy is PriorityCounterPolicy.MATCH_WINNER and strategy != 1:
            raise ConfigurationError(
                "MATCH_WINNER is a strategy-1 counter policy (§3.2)"
            )
        if priority_policy is PriorityCounterPolicy.DUAL_LINES and strategy != 2:
            raise ConfigurationError(
                "DUAL_LINES is a strategy-2 counter policy (§3.2)"
            )
        self.strategy = strategy
        self.max_outstanding = max_outstanding
        self.coincidence_window = coincidence_window
        self.priority_policy = priority_policy
        self.extra_lines = (
            0 if strategy == 1
            else (2 if priority_policy is PriorityCounterPolicy.DUAL_LINES else 1)
        )

        #: Counter bits: ceil(log2 N) for the base protocol plus
        #: ceil(log2 r) for multiple outstanding requests (§3.2).
        self.counter_bits = self.static_bits + (
            math.ceil(math.log2(max_outstanding)) if max_outstanding > 1 else 0
        )
        self.counter_modulus = 1 << self.counter_bits
        #: Diagnostic: how many times a counter genuinely wrapped.
        self.counter_wraps = 0

        #: Each waiting agent's pending requests, oldest first.
        self._queues: Dict[int, Deque[Request]] = {}
        # Strategy 2 tick state, one stream per priority class under
        # DUAL_LINES, a single shared stream otherwise.
        self._tick: Dict[bool, int] = {False: 0, True: 0}
        self._last_pulse_time: Dict[bool, float] = {False: -math.inf, True: -math.inf}

    # -- request intake -----------------------------------------------------

    def request(self, agent_id: int, now: float, priority: bool = False) -> Request:
        self._validate_agent(agent_id)
        queue = self._queues.get(agent_id)
        if queue is None:
            queue = self._queues[agent_id] = deque()
        elif len(queue) >= self.max_outstanding:
            raise ProtocolError(
                f"agent {agent_id} exceeded max_outstanding={self.max_outstanding}"
            )
        record = Request(agent_id=agent_id, issue_time=now, priority=priority)
        if self.strategy == 2:
            record.tick = self._pulse_a_incr(now, priority)
        queue.append(record)
        return record

    def _pulse_a_incr(self, now: float, priority: bool) -> int:
        """Assert the a-incr line; returns the arrival tick for the request.

        A request senses the line before pulsing: if the previous pulse on
        its class's line is still propagating (within the coincidence
        window), the new request shares that tick instead of raising a new
        pulse — this is exactly the tie the paper describes.
        """
        stream = priority if self.priority_policy is PriorityCounterPolicy.DUAL_LINES else False
        if now - self._last_pulse_time[stream] > self.coincidence_window:
            self._tick[stream] += 1
            self._last_pulse_time[stream] = now
        return self._tick[stream]

    # -- arbitration --------------------------------------------------------

    def has_waiting(self) -> bool:
        return bool(self._queues)

    def _counter_value(self, record: Request) -> int:
        """Current waiting-time counter of a request, with modular wrap."""
        if self.strategy == 1:
            return record.counter % self.counter_modulus
        stream = (
            record.priority
            if self.priority_policy is PriorityCounterPolicy.DUAL_LINES
            else False
        )
        elapsed = self._tick[stream] - record.tick
        if elapsed >= self.counter_modulus:
            self.counter_wraps += 1
        return elapsed % self.counter_modulus

    def _effective_key(self, record: Request) -> int:
        """[priority bit][waiting-time counter][static identity]."""
        k = self.static_bits
        priority_bit = 1 if record.priority else 0
        counter = self._counter_value(record)
        return (priority_bit << (self.counter_bits + k)) | (counter << k) | record.agent_id

    def start_arbitration(self, now: float) -> ArbitrationOutcome:
        queues = self._queues
        if not queues:
            raise ArbitrationError("FCFS arbitration started with no requests")
        self.arbitrations += 1
        # Every waiting agent applies its oldest request to the lines.
        effective_key = self._effective_key
        keys = {agent: effective_key(queue[0]) for agent, queue in queues.items()}
        winner = self.max_finder.find_max(keys)
        if self.strategy == 1:
            self._count_losses(winner)
        return ArbitrationOutcome(
            winner=winner,
            rounds=1,
            competitors=frozenset(keys),
            keys=keys,
        )

    def _count_losses(self, winner: int) -> None:
        """Strategy 1: losing requests increment their counters.

        Every waiting request of a losing agent observed the arbitration,
        so all of them count it, not only the one on the lines.  Under
        MATCH_WINNER the increment additionally requires the winning
        identity's priority bit to match the request's own class.
        """
        winning_record = self._queues[winner][0]
        winner_priority = winning_record.priority
        match_winner = self.priority_policy is PriorityCounterPolicy.MATCH_WINNER
        modulus = self.counter_modulus
        for queue in self._queues.values():
            for record in queue:
                if record is winning_record:
                    continue
                if match_winner and record.priority != winner_priority:
                    continue
                record.counter += 1
                if record.counter >= modulus:
                    self.counter_wraps += 1

    # -- grant / release ----------------------------------------------------

    def grant(self, agent_id: int, now: float) -> Request:
        self._validate_agent(agent_id)
        queue = self._queues.get(agent_id)
        if not queue:
            raise ProtocolError(
                f"granted bus to agent {agent_id}, which has no pending request"
            )
        record = queue.popleft()
        if not queue:
            del self._queues[agent_id]
        return record

    # -- introspection ------------------------------------------------------

    @property
    def identity_width(self) -> int:
        return self.static_bits + self.counter_bits + 1

    def pending_count(self, agent_id: int) -> int:
        """Outstanding requests of one agent."""
        return len(self._queues.get(agent_id, ()))

    def pending_requests_counter(self, agent_id: int) -> int:
        """Current waiting-time counter of the agent's oldest request.

        This is the counter value the agent would apply to the lines in
        the next arbitration — observable bus state, per the paper's
        monitorability argument.
        """
        queue = self._queues.get(agent_id)
        if not queue:
            raise ProtocolError(f"agent {agent_id} has no pending request")
        return self._counter_value(queue[0])

    def waiting_agents(self):
        """Agents with at least one pending request."""
        return frozenset(self._queues)

    def reset(self) -> None:
        super().reset()
        self._queues.clear()
        self._tick = {False: 0, True: 0}
        self._last_pulse_time = {False: -math.inf, True: -math.inf}
        self.counter_wraps = 0
