"""The bus agent: a processor (or DMA device) generating bus requests.

Closed-loop agents model the paper's stalled processor: execute for an
inter-request time, issue a request, stall until the transaction
completes, repeat.  Open-loop agents (an extension supporting §3.2's
multiple outstanding requests) keep their inter-request clock running
while requests are pending, pausing generation only when
``max_outstanding`` requests are already in flight.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, List, Sequence

from repro.errors import SimulationError
from repro.workload.distributions import Distribution
from repro.workload.scenarios import AgentSpec

__all__ = ["BusAgent", "first_think_blocks", "refill_think_buffer"]

#: Most think times one batched RNG call draws.  Batching amortises the
#: per-draw dispatch through the Distribution interface.  Think times are
#: drawn on demand: an agent's first block is :data:`_FIRST_THINK_BLOCK`
#: and each refill doubles it up to this cap, so a short run does not
#: draw variates it never uses.  The variate *sequence* of an agent's own
#: stream does not depend on the block sizes, so results stay
#: bit-identical; only a stateful distribution's post-run state (an MMPP
#: phase, a trace cursor) tells how far ahead the agent drew.
_THINK_BLOCK = 64

#: An agent's first think-time block (see :data:`_THINK_BLOCK`).
_FIRST_THINK_BLOCK = 8


def first_think_blocks(agents: Sequence[AgentSpec]) -> Dict[int, int]:
    """Each agent's first think-time block, by agent id.

    The one block policy both engines follow.  Agents that share one
    stateful distribution object interleave their draws from it block
    by block, so the block sizes decide which agent gets which variate:
    those agents keep the fixed :data:`_THINK_BLOCK`, which
    :func:`refill_think_buffer` never grows past.
    """
    owners = Counter(
        id(spec.interrequest) for spec in agents if spec.interrequest.stateful
    )
    return {
        spec.agent_id: (
            _THINK_BLOCK if owners[id(spec.interrequest)] > 1 else _FIRST_THINK_BLOCK
        )
        for spec in agents
    }


def refill_think_buffer(
    buffer: List[float], dist: Distribution, rng: random.Random, block: int
) -> int:
    """Fill the empty ``buffer`` with ``block`` think times, last draw
    first (consumers ``pop()`` them in draw order), and return the next
    refill's block: double this one, at most :data:`_THINK_BLOCK`."""
    buffer.extend(dist.sample_batch(rng, block))
    buffer.reverse()
    return min(2 * block, _THINK_BLOCK)


class BusAgent:
    """Request-generation state machine for one agent.

    The agent does not talk to the simulator directly; the
    :class:`~repro.bus.model.BusSystem` wires its callbacks.

    Parameters
    ----------
    spec:
        Immutable workload description.
    rng:
        This agent's private random stream.
    issue:
        Callback ``issue(agent_id, priority)`` that places a request on
        the bus; installed by the bus system.
    schedule:
        Callback ``schedule(delay, action)`` that defers an action;
        installed by the bus system.
    think_block:
        The first think-time block (:func:`first_think_blocks`).
    """

    def __init__(
        self,
        spec: AgentSpec,
        rng: random.Random,
        issue: Callable[[int, bool], None],
        schedule: Callable[[float, Callable[[], None]], None],
        think_block: int = _FIRST_THINK_BLOCK,
    ) -> None:
        self.spec = spec
        self.rng = rng
        self._issue = issue
        self._schedule = schedule
        self.outstanding = 0
        self.requests_issued = 0
        self.completions = 0
        #: Sum of inter-request (think) times drawn, for productivity
        #: accounting in the overlap experiments.
        self.total_think_time = 0.0
        self._generation_blocked = False
        #: Whether the agent is present on the bus.  Fault injection can
        #: drop an agent out for a window (live removal) and rejoin it
        #: (hot insertion); an absent agent generates no new requests.
        self.active = True
        self._woke_while_inactive = False
        #: Pre-drawn think times, consumed from the end.  Batching is only
        #: sequence-preserving when think draws are the *only* draws on
        #: this agent's stream; priority classing interleaves a uniform
        #: draw per request, so such agents fall back to one-at-a-time.
        self._think_buffer: List[float] = []
        self._think_block = think_block
        self._batch_draws = spec.priority_fraction <= 0.0

    @property
    def agent_id(self) -> int:
        """Static identity of this agent."""
        return self.spec.agent_id

    def start(self) -> None:
        """Begin the agent's life with one think period before its first request."""
        self._schedule_next_request()

    def _schedule_next_request(self) -> None:
        if self._batch_draws:
            buffer = self._think_buffer
            if not buffer:
                self._think_block = refill_think_buffer(
                    buffer, self.spec.interrequest, self.rng, self._think_block
                )
            think = buffer.pop()
        else:
            think = self.spec.interrequest.sample(self.rng)
        self.total_think_time += think
        self._schedule(think, self._generate_request)

    def _draw_priority(self) -> bool:
        fraction = self.spec.priority_fraction
        if fraction <= 0.0:
            return False
        return self.rng.random() < fraction

    def _generate_request(self) -> None:
        if not self.active:
            # Off the bus: swallow the think-timer expiry and remember it,
            # so rejoin() can resume the generation loop.
            self._woke_while_inactive = True
            return
        # There is room for the request: a think timer is only started
        # with fewer than max_outstanding requests in flight (after an
        # issue that left room, at a completion, at a rejoin), and
        # nothing else issues while it runs.
        self.outstanding += 1
        self.requests_issued += 1
        self._issue(self.agent_id, self._draw_priority())
        if self.spec.open_loop and self.outstanding < self.spec.max_outstanding:
            self._schedule_next_request()
        elif self.spec.open_loop:
            self._generation_blocked = True

    def on_completion(self, now: float) -> None:
        """The bus finished one of this agent's transactions."""
        if self.outstanding <= 0:
            raise SimulationError(
                f"agent {self.agent_id} completed a transaction with no "
                f"request outstanding"
            )
        self.outstanding -= 1
        self.completions += 1
        if self.spec.open_loop:
            if self._generation_blocked:
                self._generation_blocked = False
                self._schedule_next_request()
        else:
            self._schedule_next_request()

    # -- fault injection: live removal / hot insertion -----------------------

    def drop_out(self) -> bool:
        """Remove the agent from the bus; returns False if already absent.

        Requests already issued stay on the arbiter (the hardware cannot
        recall an asserted request line); only *new* generation stops.
        """
        if not self.active:
            return False
        self.active = False
        return True

    def rejoin(self) -> None:
        """Hot-insert the agent back onto the bus.

        If a think timer expired while the agent was absent, the
        generation loop is restarted with a fresh think period — the
        re-inserted board comes up idle, not mid-request.
        """
        if self.active:
            return
        self.active = True
        if self._woke_while_inactive:
            self._woke_while_inactive = False
            self._schedule_next_request()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "open" if self.spec.open_loop else "closed"
        return (
            f"BusAgent(id={self.agent_id}, {mode}-loop, "
            f"outstanding={self.outstanding}, completions={self.completions})"
        )
