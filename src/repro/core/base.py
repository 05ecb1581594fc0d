"""Arbiter interface and shared machinery.

An arbiter is the decision logic of a bus-arbitration protocol, factored
out of the timing model.  The bus simulator (:mod:`repro.bus`) drives it
through four calls:

``request(agent, now)``
    The agent asserts the shared bus-request line.
``start_arbitration(now)``
    An arbitration begins; the arbiter snapshots the competitors allowed
    by its protocol, resolves the winner through a maximum-finding
    mechanism, and returns an :class:`ArbitrationOutcome`.  Requests that
    arrive while the arbitration settles are *not* in the snapshot —
    exactly as on the real bus.
``grant(agent, now)``
    The winner's bus tenure begins (it releases the request line).
``release(agent, now)``
    The tenure ends.

Maximum finding is pluggable so the same protocol logic can run against a
direct ``max()`` (fast, used in performance runs) or against the full
wired-OR settle simulation of :mod:`repro.signals` (used in tests and
ablations to show the two are behaviourally identical).

Agent identities are the integers ``1..N`` — identity 0 is reserved by the
parallel contention arbiter to mean "nobody competed".
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, Mapping, Optional

from repro.errors import (
    ArbitrationError,
    ConfigurationError,
    NoUniqueWinnerError,
    ProtocolError,
)
from repro.signals.contention import ParallelContention

__all__ = [
    "Request",
    "ArbitrationOutcome",
    "MaxFinder",
    "DirectMaxFinder",
    "WiredOrMaxFinder",
    "Arbiter",
    "SingleOutstandingArbiter",
    "identity_bits",
]


def identity_bits(num_agents: int) -> int:
    """Bits needed for static identities ``1..num_agents`` (k of the paper)."""
    if num_agents < 1:
        raise ConfigurationError(f"need at least one agent, got {num_agents}")
    return max(1, math.ceil(math.log2(num_agents + 1)))


@dataclass
class Request:
    """One outstanding bus request.

    Attributes
    ----------
    agent_id:
        Static identity of the requesting agent (1..N).
    issue_time:
        Simulation time at which the request was issued.
    priority:
        Whether this is an urgent (priority-class) request (§2.4).
    counter:
        Protocol scratch state: the FCFS waiting-time counter, or unused.
    tick:
        Protocol scratch state: FCFS strategy-2 arrival tick.
    """

    agent_id: int
    issue_time: float
    priority: bool = False
    counter: int = 0
    tick: int = 0


@dataclass(frozen=True)
class ArbitrationOutcome:
    """Result of one arbitration.

    Attributes
    ----------
    winner:
        Agent id of the next bus master.
    rounds:
        Number of full arbitration passes consumed.  1 for every protocol
        except RR implementation 3, which occasionally needs an immediate
        second pass (§3.1).
    competitors:
        The agents whose arbitration numbers were on the lines.
    keys:
        The effective arbitration number each competitor applied —
        exposed for tests and for monitoring, mirroring the paper's point
        that the arbiter state is observable on the bus.
    """

    winner: int
    rounds: int
    competitors: FrozenSet[int]
    keys: Mapping[int, int] = field(default_factory=dict)


class MaxFinder(abc.ABC):
    """Strategy for selecting the maximum arbitration number."""

    @abc.abstractmethod
    def find_max(self, keys: Mapping[int, int]) -> int:
        """Return the agent id whose key is largest.

        ``keys`` maps agent id to the (unique) effective arbitration
        number the agent applies.
        """


#: Orders a ``keys.items()`` pair by key, then by agent.
_KEY_THEN_AGENT = itemgetter(1, 0)


class DirectMaxFinder(MaxFinder):
    """Resolve the maximum with a plain ``max()`` — the fast path.

    The winner holds the largest ``(key, agent)`` pair, so of agents
    that applied the same key the highest identity wins, whatever order
    ``keys`` lists them in.
    """

    def find_max(self, keys: Mapping[int, int]) -> int:
        if not keys:
            raise ArbitrationError("arbitration started with no competitors")
        return max(keys.items(), key=_KEY_THEN_AGENT)[0]


class WiredOrMaxFinder(MaxFinder):
    """Resolve the maximum by running the wired-OR settle process.

    Parameters
    ----------
    width:
        Arbitration-line count; must cover the widest key the protocol
        can produce (the owning arbiter knows this as ``identity_width``).
    """

    def __init__(self, width: int) -> None:
        self._contention = ParallelContention(width)
        self.total_rounds = 0
        self.resolutions = 0

    def find_max(self, keys: Mapping[int, int]) -> int:
        if not keys:
            raise ArbitrationError("arbitration started with no competitors")
        by_key: Dict[int, int] = {}
        for agent, key in keys.items():
            if key in by_key:
                raise NoUniqueWinnerError(
                    f"agents {by_key[key]} and {agent} applied the same "
                    f"arbitration number {key}"
                )
            by_key[key] = agent
        result = self._contention.resolve(by_key.keys())
        self.total_rounds += result.rounds
        self.resolutions += 1
        return by_key[result.winner_identity]


class Arbiter(abc.ABC):
    """Abstract bus-arbitration protocol.

    Subclasses implement the eligibility and numbering rules of one
    protocol; the request bookkeeping and validation live here.
    """

    #: Human-readable protocol name, used in tables and reprs.
    name: str = "arbiter"

    #: Whether the protocol needs every agent to observe the winner's
    #: identity at the end of each arbitration (true for RR — it cannot
    #: run on binary-patterned lines without a winner broadcast, §3.1).
    requires_winner_identity: bool = False

    #: Number of extra bus lines beyond the k arbitration lines and the
    #: shared request line (documented cost of each implementation).
    extra_lines: int = 0

    #: Paper section (or citation) that introduces the protocol; the
    #: registry's :class:`~repro.protocols.registry.ProtocolSpec` entries
    #: must agree with this (cross-checked by the capability tests).
    paper_section: str = ""

    #: Whether the protocol supports r > 1 outstanding requests per
    #: agent (§3.2 extends only the FCFS arbiters this way).
    supports_outstanding: bool = False

    def __init__(self, num_agents: int, max_finder: Optional[MaxFinder] = None) -> None:
        if num_agents < 1:
            raise ConfigurationError(f"need at least one agent, got {num_agents}")
        self.num_agents = num_agents
        self.static_bits = identity_bits(num_agents)
        self.max_finder = max_finder if max_finder is not None else DirectMaxFinder()
        self.arbitrations = 0

    # -- interface driven by the bus model ---------------------------------

    @abc.abstractmethod
    def request(self, agent_id: int, now: float, priority: bool = False) -> Request:
        """Agent ``agent_id`` asserts the bus-request line at time ``now``."""

    @abc.abstractmethod
    def has_waiting(self) -> bool:
        """Whether any agent is currently eligible to compete."""

    @abc.abstractmethod
    def start_arbitration(self, now: float) -> ArbitrationOutcome:
        """Snapshot competitors, resolve the winner, update protocol state."""

    @abc.abstractmethod
    def grant(self, agent_id: int, now: float) -> Request:
        """Begin the agent's bus tenure; returns the request being served."""

    def release(self, agent_id: int, now: float) -> None:
        """End the agent's bus tenure.  Default: no protocol action."""

    def reset(self) -> None:
        """Forget all dynamic state (requests, counters, batch membership)."""
        self.arbitrations = 0

    # -- introspection ------------------------------------------------------

    @property
    def identity_width(self) -> int:
        """Total width in bits of the effective arbitration numbers."""
        return self.static_bits

    def _validate_agent(self, agent_id: int) -> None:
        if not 1 <= agent_id <= self.num_agents:
            raise ProtocolError(
                f"agent id {agent_id} outside 1..{self.num_agents} "
                f"(identity 0 is reserved)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_agents={self.num_agents})"


class SingleOutstandingArbiter(Arbiter):
    """Base for protocols where each agent has at most one pending request.

    This matches the paper's closed-system model (§4.1): a processor
    stalls on its bus request, so it cannot issue another until the first
    completes.  Subclasses manage *eligibility*; the pending-request table
    lives here.
    """

    def __init__(self, num_agents: int, max_finder: Optional[MaxFinder] = None) -> None:
        super().__init__(num_agents, max_finder)
        self._pending: Dict[int, Request] = {}

    def request(self, agent_id: int, now: float, priority: bool = False) -> Request:
        self._validate_agent(agent_id)
        if agent_id in self._pending:
            raise ProtocolError(
                f"agent {agent_id} issued a second request while one is pending; "
                f"{type(self).__name__} allows one outstanding request per agent"
            )
        record = Request(agent_id=agent_id, issue_time=now, priority=priority)
        self._pending[agent_id] = record
        self._on_request(record, now)
        return record

    def _on_request(self, record: Request, now: float) -> None:
        """Protocol hook invoked after a request is registered."""

    def grant(self, agent_id: int, now: float) -> Request:
        self._validate_agent(agent_id)
        try:
            record = self._pending.pop(agent_id)
        except KeyError:
            raise ProtocolError(
                f"granted bus to agent {agent_id}, which has no pending request"
            ) from None
        self._on_grant(record, now)
        return record

    def _on_grant(self, record: Request, now: float) -> None:
        """Protocol hook invoked after a grant removes the request."""

    def pending_requests(self) -> Mapping[int, Request]:
        """Read-only view of the pending-request table."""
        return dict(self._pending)

    def waiting_agents(self) -> FrozenSet[int]:
        """All agents with a pending request (eligible or not)."""
        return frozenset(self._pending)

    def reset(self) -> None:
        super().reset()
        self._pending.clear()
