"""Calendar-free heterogeneous-lane batch engine.

The event-driven engine (:mod:`repro.engine.simulator` driving
:class:`~repro.bus.model.BusSystem`) is fully general: it handles
multiple outstanding requests, arbitrary fault hooks, event budgets and
every registered protocol.  But the paper's experiments —
single-outstanding agents on a self-timed or clocked bus — have a
rigidly cyclic structure: request → arbitration rounds → tenure →
release, repeat.
For that restricted (and dominant) domain this module provides a
calendar-free engine that runs independent *lanes* through a collapsed
timer dispatch, shedding the Python interpreter overhead of event
objects that dominates grid-shaped sweeps.

A lane is one (scenario, protocol, settings) cell.  One call may mix
bus sizes (a ragged n=2 lane next to an n=32 lane), request rates,
seeds and protocol variants.  Each lane keeps struct-of-arrays state
sized to its own agent count — flat per-agent arrays (next-request
timers, think-time buffers, FCFS stamps, activity masks) plus a
handful of scalar timers — and its protocol kernel resolves
arbitrations on integer bitmasks of pending requesters (the wired-OR
maximum-finding of §2).  :func:`run_lanes` builds, runs and drops one
lane at a time, and a lane runs in one call, from its agents' first
think periods to the collector's stop rule (or the watchdog giving up),
with every timer and the open batch's sums in the call's locals.

Think times come from *tapes*.  A tape is one agent stream: its seeded
generator plus the blocks drawn from it that a lane may still read.  The
lanes of one call that share a ``(seed, agent id, distribution spec
key)`` read one tape, so the call seeds and draws that stream once,
however many protocols run on it (common random numbers, as the paper's
tables compare protocols at one seed).  That is exact because equal spec
keys give equal variates from equal generators (the cache key relies on
it), and because block sizes never change a variate.  A lane refills its
buffer in the blocks ``BusAgent`` draws
(:func:`~repro.bus.agent.first_think_blocks` and
:func:`~repro.bus.agent.refill_think_buffer`): a small first block that
doubles at each refill up to ``_THINK_BLOCK``.  A tape is extended only
to the end of the block a lane asks for, so a pack draws what its most
demanding lane uses, and it keeps each block for its later lanes once,
already reversed into the order a buffer pops it; a refill is one call
of the lane's cursor (:class:`_TapeCursor`), which copies the block into
the buffer.  A stateful distribution (an MMPP phase, a trace cursor) that
one agent carries alone is shared the same way: its spec key holds the
state, and its tape (:class:`_StatefulTape`) records the state at the
end of each block, since the blocks decide how far the state has moved
when a run stops, and that state is pickled with the result's
scenario.  A finished lane's own copy takes the state recorded where the
lane stopped reading.  A classed agent draws its class between two think
times on its stream, so its tape interleaves them
(:class:`_ThinkAndClass`), except in a lane with agent dropout, where an
expiry while out draws no class, and for a stateful distribution: those
keep a generator of their own (:class:`_ThinkEach`).  Agents that share
one stateful object draw from it in turn, so their tape is private to
the lane.

Open-loop agents are in-domain at ``max_outstanding == 1``: such an
agent issues, blocks generation while its one request is in flight and
resumes with a fresh think draw at completion (``BusAgent``) — the
closed-loop cycle exactly, so the lane needs no arrival-clock timer.
Their runs add the per-flow metric series the event engine emits for
open-loop and priority-classed scenarios.

Two-class priority traffic (§2.4) is in-domain.  Every protocol
prepends one priority bit to its arbitration number, so the kernels
keep an ``urgent`` bitmask beside the pending one and the winner is
still one maximum over bitmasks.  A lane draws each request's class
from the agent's stream as ``BusAgent`` does: an agent with
``priority_fraction > 0`` draws one uniform at every issue, so its
stream reads think, class, think, class...  The lane pops both from
the agent's buffer, filled from its think-and-class tape (or draws
them one at a time, see above).  A lane with no classed agent runs
the class-blind kernel path, so classing costs it nothing.

Synchronous buses (``BusTiming.clock_period > 0``, §2.1) are
in-domain and need no timer class of their own.  The arbitration
kick is due at ``now + delay_to_next_edge(now)``, the event engine's
own expression.  A kick that falls on an edge (a zero delay) with no
other event at its instant is fused into the current dispatch round,
as on a self-timed bus; on a bus whose tenure and settle times are
multiples of the period, that is every kick of a saturated run.  Any
other kick waits in ``t_kick`` for its edge.  A winner whose lines
settle on an idle bus is granted at the next edge: the lane arms
``t_arb`` at that edge instead of at the settle time, taking the place
of the event engine's ``GRANT`` event.  That is exact because the
arbitration-complete in between only latches the winner, and no
release, grant or other arbitration can be pending while the winner
waits.

Faults are in-domain.  Injected faults and watchdog recovery are
modelled as two additional timer classes on the collapsed calendar:
``t_retry`` (the watchdog's backed-off re-arbitration) and ``t_fault``
(the plan's next point fault), turning the original four-way min
dispatch (release, arbitration-complete or grant, request, kick) into a
six-way one.  The point faults are agent dropout and hot re-insertion
on every kernel, plus the arbiter-level fault of the two
fault-observable protocols: a dropped winner broadcast on
``rr-faulty-register`` (§3.1: one agent's replica of the last winner
goes stale) and a counter upset on ``fcfs-glitchable`` (§3.2: one
pending waiting counter is overwritten).  Line glitches and stuck-at
windows never become timers: as in the event engine they perturb the
arbitration numbers the kernel exposes via ``arbitrate_keys`` while
the wired-OR settles, which is why every kernel exposes that key map.
The perturbation is due-only: a pass builds and perturbs the key map only
when a glitch is due or a stuck-line window covers it
(``FaultInjector.line_fault_due``), or while a watchdog episode is
open, since its events carry the attempt count.  Every other pass of a
faulted lane is the clean, key-free kernel pass.  That test runs in the
pass itself, at the kick's instant, so a faulted lane fuses its kicks
as a fault-free one does: a fault timer at the same instant ranks after
the kick.  While a winner is latched, a faulted lane absorbs the
request expiries before the release, as every lane does, but only up
to its next fault timer, and it swallows the expiry of a dropped-out
agent there as the request handler does.

Correctness contract
--------------------
For every batch-capable cell the engine reproduces the event-driven
engine *exactly*: identical winner sequences, identical
:class:`~repro.observability.events.ArbitrationEvent` streams, identical
collector statistics and identical floating-point timestamps, given the
same seed.  This holds because the dispatch loop replays the calendar's
ordering rule — (time, priority, insertion sequence) with RELEASE <
GRANT < ARBITRATION < REQUEST < ARB_KICK = WATCHDOG-RETRY < FAULT,
where GRANT and ARBITRATION share the ``t_arb`` slot — and every
timestamp is computed by the same floating-point expression
(``now + delay``) the event engine uses.  The cross-engine differential
suite (``tests/conformance/test_differential_engines.py``) and the
golden traces (including the fault-domain twins) enforce the contract.

Request timers live in a per-lane heap: every agent owns at most one
think timer at a time, so the heap holds at most n entries and its
(time, sequence) tuple order is exactly the calendar's request-vs-
request tie-break.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import replace
from heapq import heapify, heappop, heappush
from math import inf as _INF
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.bus.agent import _THINK_BLOCK, first_think_blocks
from repro.core.base import ArbitrationOutcome, identity_bits
from repro.engine.cell import CellAssembly
from repro.engine.rng import RandomStreams
from repro.errors import ConfigurationError, SimulationError, StatisticsError
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultEvent, FaultKind
from repro.observability.events import ArbitrationEvent
from repro.observability.metrics import WAIT_BUCKETS, MetricsSink
from repro.protocols.registry import get_spec
from repro.stats.collector import check_run_length
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec, fresh_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import SimulationSettings

__all__ = [
    "batch_capable",
    "run_lanes",
    "run_simulation_batch",
    "run_replications",
]


# ---------------------------------------------------------------------------
# Protocol kernels
# ---------------------------------------------------------------------------
#
# Each kernel mirrors one registry protocol's arbitration exactly, with
# the pending-request set held as a bitmask (bit i = agent i; agent ids
# start at 1, so bit 0 is always clear — the paper reserves identity 0).
# Every batch-capable arbiter's ``release`` is a no-op and its grant
# simply drops the winner's (single) outstanding request, so kernels
# only need ``request`` / ``arbitrate`` / ``grant`` — plus
# ``arbitrate_keys``, the fault-domain variant that also returns the
# per-agent arbitration numbers the event arbiter would put on the
# lines, which is the surface the fault injector perturbs.
#
# ``request``, ``arbitrate`` and ``grant`` are the reference API the
# kernel suites drive.  A lane holds the pending mask and inlines
# requests and grants, and a clean class-blind pass (no classed agent,
# no fault injector) picks inline with the round-robin, fixed-priority
# or fault-free FCFS ``arbitrate`` body.  Only ``request`` and
# ``grant`` write ``pending``, so before any other kernel call (a
# classed or faulted lane's pass, ``rr-faulty-register``'s, a key map,
# a counter upset) the lane copies its mask to the kernel.
#
# Priority classing (§2.4) is a second bitmask, ``urgent``: ``request``
# writes the agent's class bit, which stays valid while the request is
# pending and while its tenure runs (an agent issues nothing between its
# grant and its completion).  Every protocol prepends the class bit to
# its own arbitration number, so an urgent request beats every normal
# one and urgent requests compete by the protocol's own rule.
# ``arbitrate`` is the class-blind fast path a lane without classed
# agents runs; ``arbitrate_classed`` adds the class bit, and
# ``arbitrate_keys`` always carries it.


def _identity_keys(mask: int, urgent: int, bits: int) -> Dict[int, int]:
    """Key map ``{agent: (class << bits) | agent}`` over a competitor bitmask.

    The layout every protocol that puts a bare identity on the lines
    uses: the priority bit sits directly above the ``bits``-wide
    identity, set for the agents in ``urgent``.
    """
    keys = {}
    while mask:
        bit = mask & -mask
        agent = bit.bit_length() - 1
        mask ^= bit
        keys[agent] = ((urgent >> agent & 1) << bits) | agent
    return keys


class _Kernel:
    """Request bookkeeping shared by every kernel."""

    __slots__ = ("num_agents", "bits", "pending", "urgent", "issue")

    def __init__(self, num_agents: int) -> None:
        self.num_agents = num_agents
        self.bits = identity_bits(num_agents)
        self.pending = 0
        self.urgent = 0
        self.issue = [0.0] * (num_agents + 1)

    def request(self, agent_id: int, now: float, urgent: bool = False) -> None:
        bit = 1 << agent_id
        self.pending |= bit
        self.issue[agent_id] = now
        if urgent:
            self.urgent |= bit
        elif self.urgent:
            self.urgent &= ~bit

    def grant(self, agent_id: int) -> float:
        self.pending &= ~(1 << agent_id)
        return self.issue[agent_id]


class _RoundRobinKernel(_Kernel):
    """Distributed round-robin, implementations 1–3.

    The event-engine arbiters build per-agent keys ``(rr_bit << k) | id``
    and take the wired-OR maximum; with unique identities that maximum
    is simply the highest id among the agents "below" the previous
    winner when any exist, else the highest id overall — a two-bitmask
    computation here.

    With an urgent request pending the highest urgent id wins on every
    implementation: implementation 1 sets an urgent request's RR bit
    (the registry's ``IGNORE_RR`` policy), and 2 and 3 let urgent
    requesters bypass the low-request gating.  Urgent wins are recorded
    as the previous winner (``record_priority_winners=True``).
    """

    __slots__ = ("impl", "last_winner")

    def __init__(self, num_agents: int, impl: int) -> None:
        super().__init__(num_agents)
        self.impl = impl
        # Implementation 3 starts with the fictitious identity N+1 so the
        # very first pass already sees a non-empty "low" set.
        self.last_winner = num_agents + 1 if impl == 3 else 0

    def arbitrate(self) -> Tuple[int, int, int]:
        pending = self.pending
        low = pending & ((1 << self.last_winner) - 1)
        rounds = 1
        if self.impl == 1:
            competitors = pending
            winner = (low or pending).bit_length() - 1
        elif self.impl == 2:
            competitors = low or pending
            winner = competitors.bit_length() - 1
        else:  # impl 3: an empty low set costs one extra settle pass
            if low:
                competitors = low
            else:
                competitors = pending
                rounds = 2
            winner = competitors.bit_length() - 1
        self.last_winner = winner
        return winner, rounds, competitors

    def arbitrate_classed(self) -> Tuple[int, int, int]:
        """:meth:`arbitrate` with the priority bit prepended."""
        pending = self.pending
        urgent = self.urgent & pending
        if not urgent:
            return self.arbitrate()
        competitors = pending
        if self.impl != 1:
            # Urgent requesters compete whatever the low-request line
            # says; implementation 2 falls back to everyone only when
            # no normal requester is below the previous winner.
            low = pending & ~urgent & ((1 << self.last_winner) - 1)
            if low or self.impl == 3:
                competitors = low | urgent
        winner = urgent.bit_length() - 1
        self.last_winner = winner
        return winner, 1, competitors

    def arbitrate_keys(self) -> Tuple[int, int, int, Dict[int, int]]:
        """:meth:`arbitrate_classed`, also returning the applied key map.

        Implementation 1 puts every pending agent on the lines as
        ``[priority][RR bit][id]``, the RR bit set for the "low" set and
        for every urgent request; 2 and 3 gate competitors through the
        low-request line first, so ``[priority][id]`` keys compete.
        State updates are identical to :meth:`arbitrate_classed` — an
        anomalous (never granted) pass still moves ``last_winner``,
        as the event arbiter's does.
        """
        pending = self.pending
        urgent = self.urgent & pending
        last = self.last_winner
        bits = self.bits
        low = pending & ~urgent & ((1 << last) - 1)
        rounds = 1
        if self.impl == 1:
            competitors = pending
            winner = (urgent or low or pending).bit_length() - 1
            rr_bit = 1 << bits
            top = rr_bit << 1 | rr_bit
            keys = {}
            mask = pending
            while mask:
                bit = mask & -mask
                agent = bit.bit_length() - 1
                mask ^= bit
                if urgent & bit:
                    keys[agent] = top | agent
                else:
                    keys[agent] = (rr_bit | agent) if agent < last else agent
        else:
            if low or (urgent and self.impl == 3):
                competitors = low | urgent
            else:
                competitors = pending
                if self.impl == 3:
                    rounds = 2
            # Every urgent request is a competitor, whichever branch ran.
            winner = (urgent or competitors).bit_length() - 1
            keys = _identity_keys(competitors, urgent, bits)
        self.last_winner = winner
        return winner, rounds, competitors, keys


class _FaultyRegisterKernel(_RoundRobinKernel):
    """``rr-faulty-register``: implementation 1 with per-agent winner views.

    Mirrors :class:`~repro.faults.arbiters.FaultyWinnerRegisterRR`: each
    agent sets its RR bit from its own copy of the last winner, an urgent
    request's bit included (the ``IGNORE_RR`` forcing of implementation 1
    does not apply), and a dropped broadcast makes the agent skip the
    next winner it would have recorded.  Drops are used up on every
    pass, anomalous ones included, and every agent records the kernel's
    own (unperturbed) winner, as ``start_arbitration`` does.

    ``last_winner`` is the view of every agent outside the ``stale``
    mask; ``view`` holds the views of the agents inside it.  ``dropping``
    marks the agents with drops left, so a pass with neither costs the
    plain implementation-1 scan.
    """

    __slots__ = ("view", "drops", "stale", "dropping")

    def __init__(self, num_agents: int) -> None:
        super().__init__(num_agents, 1)
        self.view = [0] * (num_agents + 1)
        self.drops = [0] * (num_agents + 1)
        self.stale = 0
        self.dropping = 0

    def drop_winner_observations(self, agent_id: int) -> None:
        """Make ``agent_id`` miss one more winner broadcast."""
        self.drops[agent_id] += 1
        self.dropping |= 1 << agent_id

    def _low(self, pending: int) -> int:
        """The pending agents whose own view sets their RR bit."""
        low = pending & ((1 << self.last_winner) - 1)
        stale = self.stale & pending
        if stale:
            low &= ~stale
            view = self.view
            while stale:
                bit = stale & -stale
                agent = bit.bit_length() - 1
                stale ^= bit
                if agent < view[agent]:
                    low |= bit
        return low

    def _observe(self, winner: int) -> None:
        """Every agent without a drop left records ``winner``."""
        dropping = self.dropping
        stale = 0
        if dropping:
            view = self.view
            drops = self.drops
            last = self.last_winner
            was_stale = self.stale
            mask = dropping
            while mask:
                bit = mask & -mask
                agent = bit.bit_length() - 1
                mask ^= bit
                if not was_stale & bit:
                    view[agent] = last
                if view[agent] != winner:
                    stale |= bit
                drops[agent] -= 1
                if not drops[agent]:
                    dropping ^= bit
            self.dropping = dropping
        self.stale = stale
        self.last_winner = winner

    def arbitrate(self) -> Tuple[int, int, int]:
        pending = self.pending
        if self.stale or self.dropping:
            winner = (self._low(pending) or pending).bit_length() - 1
            self._observe(winner)
        else:
            winner = ((pending & ((1 << self.last_winner) - 1)) or pending).bit_length() - 1
            self.last_winner = winner
        return winner, 1, pending

    def arbitrate_classed(self) -> Tuple[int, int, int]:
        """:meth:`arbitrate` with the priority bit prepended."""
        pending = self.pending
        urgent = self.urgent & pending
        if not urgent:
            return self.arbitrate()
        winner = ((urgent & self._low(pending)) or urgent).bit_length() - 1
        self._observe(winner)
        return winner, 1, pending

    def arbitrate_keys(self) -> Tuple[int, int, int, Dict[int, int]]:
        """:meth:`arbitrate_classed`, also returning the applied key map:
        ``[priority][RR bit from the agent's view][id]`` for every
        pending agent."""
        pending = self.pending
        urgent = self.urgent & pending
        low = self._low(pending)
        rr_bit = 1 << self.bits
        top = rr_bit << 1
        keys = {}
        mask = pending
        while mask:
            bit = mask & -mask
            agent = bit.bit_length() - 1
            mask ^= bit
            keys[agent] = (
                (top if urgent & bit else 0) | (rr_bit if low & bit else 0) | agent
            )
        winner = ((urgent & low) or urgent or low or pending).bit_length() - 1
        self._observe(winner)
        return winner, 1, pending, keys


class _FcfsKernel(_Kernel):
    """Distributed FCFS, counter strategies 1 (increment) and 2 (A-incr).

    Strategy 1 increments every loser's waiting counter after each
    arbitration; strategy 2 timestamps arrivals with a shared pulse tick
    (coincidence window 0, matching the event-engine default) and uses
    the tick age as the counter.  Either way a counter is a difference
    of two stamps, ``clock - stamp[agent]``: the clock counts
    arbitration passes (strategy 1) or a-incr ticks (strategy 2), and a
    request is stamped with its value at issue.  Strategy 1's pulse, one
    increment per loser, is then one clock step plus one stamp step for
    the winner, which does not age.  Keys are
    ``[priority] (counter % modulus) << k | id`` with ``modulus = 2**k``;
    the winner is the wired-OR maximum, so with an urgent request
    pending the oldest urgent request wins.  Both strategies keep one
    counter stream for both classes (``PriorityCounterPolicy.OVERFLOW``):
    strategy 1 ages every loser, whatever its class.

    Every request is filed in one arrival heap, ``arrivals``, as a
    ``(stamp, -agent)`` entry.  While no counter has wrapped, heap order
    is the wired-OR order of ``counter || id``: the oldest stamp holds
    the highest counter, and of equal stamps the highest id wins.  An
    entry is live while its agent is pending with that stamp.  A granted
    request's entry goes stale, and so does the old entry of a request
    whose stamp moves.  A class-blind pass drops the stale entries off
    the top and takes the oldest live one.  It scans every requester
    only when that oldest request has wrapped, which a normal request
    held back by urgent traffic can (``OVERFLOW`` ages it all the
    while), and an upset counter too.  An urgent pick scans the urgent
    requests alone.

    A lane grants the winner of every key-free pass before the next
    pass, so there the pick pops the winner's entry and nothing is
    filed again (:meth:`arbitrate_granted`).  The kernel API's passes,
    :meth:`arbitrate`, :meth:`arbitrate_classed` and
    :meth:`arbitrate_keys`, may go ungranted: a perturbed pass leaves
    its winner pending, and the kernel suites drive passes without a
    grant.  They take nothing out of the heap but stale entries, and
    whatever moves a pending request's stamp files it again: strategy
    1's pulse (the winner ages one step less than the losers) and a
    counter upset.  So any sequence of passes and grants keeps every
    pending request live.
    """

    __slots__ = ("strategy", "modulus", "clock", "stamp", "last_pulse", "arrivals")

    def __init__(self, num_agents: int, strategy: int) -> None:
        super().__init__(num_agents)
        self.strategy = strategy
        self.modulus = 1 << self.bits
        self.clock = 0
        self.stamp = [0] * (num_agents + 1)
        self.last_pulse = -_INF
        self.arrivals: List[Tuple[int, int]] = []

    def request(self, agent_id: int, now: float, urgent: bool = False) -> None:
        bit = 1 << agent_id
        self.pending |= bit
        self.issue[agent_id] = now
        if urgent:
            self.urgent |= bit
        elif self.urgent:
            self.urgent &= ~bit
        if self.strategy == 2 and now - self.last_pulse > 0.0:
            self.clock += 1
            self.last_pulse = now
        clock = self.stamp[agent_id] = self.clock
        heappush(self.arrivals, (clock, -agent_id))

    @property
    def counter(self) -> List[int]:
        """Every agent's waiting counter, unwrapped; read it for the
        agents with a pending request."""
        clock = self.clock
        return [clock - stamp for stamp in self.stamp]

    def arbitrate(self) -> Tuple[int, int, int]:
        pending = self.pending
        winner = self._oldest(pending)
        self._age_losers(winner)
        return winner, 1, pending

    def arbitrate_classed(self) -> Tuple[int, int, int]:
        """:meth:`arbitrate` with the priority bit prepended."""
        pending = self.pending
        urgent = self.urgent & pending
        winner = self._scan(urgent) if urgent else self._oldest(pending)
        self._age_losers(winner)
        return winner, 1, pending

    def arbitrate_keys(self) -> Tuple[int, int, int, Dict[int, int]]:
        """:meth:`arbitrate_classed`, also returning the applied key map.

        Keys are snapshotted *before* strategy 1's loser increments, as
        on the real lines; an anomalous pass still ages the losers.
        """
        pending = self.pending
        urgent = self.urgent & pending
        keys = self._keys(pending)
        if urgent:
            top = 1 << (2 * self.bits)
            mask = urgent
            while mask:
                bit = mask & -mask
                keys[bit.bit_length() - 1] |= top
                mask ^= bit
        winner = max(keys, key=keys.__getitem__)
        self._age_losers(winner)
        return winner, 1, pending, keys

    def arbitrate_granted(self) -> Tuple[int, int, int]:
        """:meth:`arbitrate_classed` for a lane's key-free pass, whose
        winner is granted before the next pass: the pick pops the
        winner's entry, and strategy 1's pulse is the clock step alone,
        since nothing reads the winner's stamp again before its grant.

        A scan pops nothing: an urgent pick, and a class-blind pass
        whose oldest live request has wrapped.  Their winner's entry
        goes stale at the grant (:meth:`_scan_granted`).
        """
        pending = self.pending
        urgent = self.urgent & pending
        if urgent:
            winner = self._scan_granted(urgent)
        else:
            arrivals = self.arrivals
            stamp = self.stamp
            while True:
                oldest, winner = arrivals[0]
                winner = -winner
                if pending >> winner & 1 and stamp[winner] == oldest:
                    break
                heappop(arrivals)
            if self.clock - oldest < self.modulus:
                heappop(arrivals)
            else:
                winner = self._scan_granted(pending)
        if self.strategy == 1:
            self.clock += 1
        return winner, 1, pending

    def _scan_granted(self, mask: int) -> int:
        """:meth:`_scan` on a granted pass, which leaves its winner's
        entry to go stale.  Once the heap holds N stale entries or more,
        it is refiled from the pending requests first, so granted
        picks, grants and requests keep at most ``2N`` entries in it:
        N stale ones at most, and one live one per pending request."""
        arrivals = self.arrivals
        pending = self.pending
        if len(arrivals) - bin(pending).count("1") >= self.num_agents:
            stamp = self.stamp
            arrivals[:] = [(stamp[agent], -agent) for agent in _mask_ids(pending)]
            heapify(arrivals)
        return self._scan(mask)

    def _oldest(self, pending: int) -> int:
        """The winner of a class-blind pass over ``pending``: the oldest
        live request, or the scan's pick if it has wrapped."""
        arrivals = self.arrivals
        stamp = self.stamp
        while True:
            oldest, agent = arrivals[0]
            agent = -agent
            if pending >> agent & 1 and stamp[agent] == oldest:
                break
            heappop(arrivals)
        if self.clock - oldest < self.modulus:
            return agent
        return self._scan(pending)

    def _scan(self, mask: int) -> int:
        """The agent of ``mask`` with the highest class-free key."""
        bits = self.bits
        modulus = self.modulus
        clock = self.clock
        stamp = self.stamp
        best_key = -1
        winner = 0
        while mask:
            bit = mask & -mask
            agent = bit.bit_length() - 1
            mask ^= bit
            key = (((clock - stamp[agent]) % modulus) << bits) | agent
            if key > best_key:
                best_key = key
                winner = agent
        return winner

    def _keys(self, mask: int) -> Dict[int, int]:
        """Class-free keys ``(counter % modulus) << k | id`` over ``mask``."""
        bits = self.bits
        modulus = self.modulus
        clock = self.clock
        stamp = self.stamp
        keys: Dict[int, int] = {}
        while mask:
            bit = mask & -mask
            agent = bit.bit_length() - 1
            mask ^= bit
            keys[agent] = (((clock - stamp[agent]) % modulus) << bits) | agent
        return keys

    def _age_losers(self, winner: int) -> None:
        """Strategy 1's pulse: every loser ages by one arbitration (the
        clock steps, and the winner's stamp with it).  The winner is
        filed again under its new stamp: a pass leaves it pending until
        its grant, or for good when the pass is perturbed."""
        if self.strategy == 1:
            self.clock += 1
            stamp = self.stamp[winner] = self.stamp[winner] + 1
            heappush(self.arrivals, (stamp, -winner))


class _FaultFreeFcfsKernel(_FcfsKernel):
    """FCFS on a lane without a fault injector: a pass is one ``heappop``.

    Such a lane grants every pass's winner before the next pass, so
    both of its passes are granted picks.  An unclassed lane leaves no
    stale entry in the heap, and by §3.2 none of its counters wraps: a
    request waits behind at most the N-1 other agents' requests, each
    served once before it (a later request is younger), so its counter
    stays at most N-1, and ``2**k > N-1``.  The top of the heap is the
    winner.  The lane files such a request inline, with its stamp in the
    heap alone, and pops the winner inline (:meth:`arbitrate` is the
    reference): the scan, the key map and the liveness test that read
    ``stamp`` never run there.  A classed lane also records the stamp,
    and picks with :meth:`arbitrate_classed`, the granted pick, which
    checks both: an urgent pick's entry goes stale, and a normal request
    held back by urgent traffic can wrap.
    """

    __slots__ = ()

    arbitrate_classed = _FcfsKernel.arbitrate_granted

    def arbitrate(self) -> Tuple[int, int, int]:
        __, agent = heappop(self.arrivals)
        if self.strategy == 1:
            self.clock += 1
        return -agent, 1, self.pending


class _GlitchableFcfsKernel(_FcfsKernel):
    """``fcfs-glitchable``: strategy 1 whose waiting counters can be upset.

    Mirrors :class:`~repro.faults.arbiters.GlitchableFCFS`: an upset
    overwrites the pending request's counter, and the next request
    resets it (§3.2).
    """

    __slots__ = ()

    def __init__(self, num_agents: int) -> None:
        super().__init__(num_agents, 1)

    def glitch_counter(self, agent_id: int, value: int) -> bool:
        """Overwrite the agent's pending counter with ``value``, filing
        the request again under its new stamp.

        Returns ``False``, changing nothing, when the agent has no
        pending request (the upset hit an idle register).
        """
        if not self.pending >> agent_id & 1:
            return False
        stamp = self.clock - value % self.modulus
        if stamp != self.stamp[agent_id]:
            self.stamp[agent_id] = stamp
            heappush(self.arrivals, (stamp, -agent_id))
        return True


class _FixedPriorityKernel(_Kernel):
    """Static daisy-chain baseline: highest pending identity wins.

    The class bit sits above the identity, so an urgent request beats
    every normal one and the highest urgent identity wins.
    """

    __slots__ = ()

    def arbitrate(self) -> Tuple[int, int, int]:
        pending = self.pending
        return pending.bit_length() - 1, 1, pending

    def arbitrate_classed(self) -> Tuple[int, int, int]:
        """:meth:`arbitrate` with the priority bit prepended."""
        pending = self.pending
        return ((self.urgent & pending) or pending).bit_length() - 1, 1, pending

    def arbitrate_keys(self) -> Tuple[int, int, int, Dict[int, int]]:
        """:meth:`arbitrate_classed`, also returning the applied key map:
        ``[priority][id]`` for every pending agent."""
        pending = self.pending
        urgent = self.urgent & pending
        keys = _identity_keys(pending, urgent, self.bits)
        return (urgent or pending).bit_length() - 1, 1, pending, keys


_KERNELS = {
    "rr": lambda n: _RoundRobinKernel(n, 1),
    "rr-impl2": lambda n: _RoundRobinKernel(n, 2),
    "rr-impl3": lambda n: _RoundRobinKernel(n, 3),
    "fcfs": lambda n: _FcfsKernel(n, 1),
    "fcfs-aincr": lambda n: _FcfsKernel(n, 2),
    "fixed": lambda n: _FixedPriorityKernel(n),
    "rr-faulty-register": _FaultyRegisterKernel,
    "fcfs-glitchable": _GlitchableFcfsKernel,
}

#: The kernels a lane without a fault injector runs in place of
#: :data:`_KERNELS`' entry: every pass of such a lane is granted.  A
#: glitchable FCFS lane without an injector has no counter to upset, so
#: it is strategy 1.  A faulty-register RR lane keeps its kernel: an
#: urgent request there keeps its RR bit, which implementation 1 clears.
_FAULT_FREE_KERNELS = {
    "fcfs": lambda n: _FaultFreeFcfsKernel(n, 1),
    "fcfs-aincr": lambda n: _FaultFreeFcfsKernel(n, 2),
    "fcfs-glitchable": lambda n: _FaultFreeFcfsKernel(n, 1),
}

#: Arbiter-level fault kinds a kernel executes as lane fault timers, on
#: top of the bus-level kinds every fault-domain kernel takes.
_ARBITER_FAULTS = {
    "rr-faulty-register": frozenset({FaultKind.DROPPED_BROADCAST}),
    "fcfs-glitchable": frozenset({FaultKind.COUNTER_UPSET}),
}

#: Plan kinds the lane runs as fault timers; line glitches and stuck
#: lines act through ``FaultInjector.perturb`` instead.
_POINT_FAULTS = frozenset(
    {FaultKind.DROPPED_BROADCAST, FaultKind.COUNTER_UPSET, FaultKind.AGENT_DROPOUT}
)


def _mask_ids(mask: int) -> Tuple[int, ...]:
    """Decode a pending bitmask into a sorted agent-id tuple."""
    ids = []
    while mask:
        bit = mask & -mask
        ids.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(ids)


# ---------------------------------------------------------------------------
# Capability gating
# ---------------------------------------------------------------------------


def batch_capable(
    scenario: ScenarioSpec,
    protocol: str,
    settings: "SimulationSettings",
) -> Tuple[bool, str]:
    """Whether (scenario, protocol, settings) fits the batch engine.

    Returns ``(capable, reason)``; ``reason`` names the first violated
    restriction (empty when capable).  Callers run a cell that is not
    capable on the event-driven engine instead.

    Fault plans are in-domain when the spec admits every planned kind
    and the lane executes it: the bus-level kinds on every kernel, plus
    the arbiter-level kind a fault-observable kernel implements
    (dropped winner broadcasts on ``rr-faulty-register``, counter
    upsets on ``fcfs-glitchable``), which the lane runs as fault timers
    beside dropout and rejoin.  Line glitches and stuck lines cost a
    faulted lane a key map and a perturbation only on the passes where
    one is due or a watchdog episode is open; its other passes are
    clean kernel passes.  A watchdog policy alone (no plan) is
    always in-domain, since clean runs never consult it.  Open-loop
    agents are in-domain: with one request outstanding at most,
    generation blocks at issue and resumes at completion, the
    closed-loop cycle.  Priority classing is in-domain on every kernel.
    A run length the collector refuses is out of domain: the cell goes
    to the event engine, which reports the error for that cell alone
    instead of failing a whole lane pack.
    """
    spec = get_spec(protocol)
    if not spec.supports_batch or protocol not in _KERNELS:
        return False, f"protocol {protocol!r} has no batch kernel"
    for agent in scenario.agents:
        if agent.max_outstanding != 1:
            return False, f"agent {agent.agent_id} has max_outstanding > 1"
    plan = settings.fault_plan
    if plan is not None and len(plan):
        lane_kinds = BUS_LEVEL_FAULTS | _ARBITER_FAULTS.get(protocol, frozenset())
        outside = plan.kinds() - (spec.injectable_faults & lane_kinds)
        if outside:
            names = ", ".join(sorted(kind.value for kind in outside))
            return False, f"fault kind(s) {names} are outside the batch domain"
    if settings.max_events is not None:
        return False, "max_events budget set"
    try:
        check_run_length(settings.batches, settings.batch_size, settings.warmup)
    except StatisticsError as exc:
        return False, str(exc)
    return True, ""


# ---------------------------------------------------------------------------
# One lane's state machine
# ---------------------------------------------------------------------------


class _ThinkEach:
    """Think-time source of a classed agent that reads no tape.

    Stands in for the agent's think buffer in a lane with agent dropout,
    or for a stateful distribution.  ``BusAgent`` draws a classed
    agent's think times one at a time with ``sample``, because the class
    draw at each issue sits between two think draws on its stream, and
    ``pop`` does the same.  A dropout lane needs this: a think timer
    that expires while the agent is out issues nothing, so no class is
    drawn after that think time.  The object is always truthy, so the
    lane's buffer refill never runs for it.
    """

    __slots__ = ("dist", "rng")

    def __init__(self, dist, rng) -> None:
        self.dist = dist
        self.rng = rng

    def pop(self) -> float:
        return self.dist.sample(self.rng)


class _ThinkAndClass:
    """A classed agent's stream in ``BusAgent``'s draw order: think time,
    class uniform, think time, class uniform...

    The tape of a classed agent that is never dropped out, where every
    think time is followed by an issue and so by a class draw.  Lanes
    read it in even blocks, so each think time a lane pops is followed
    in its buffer by the class uniform its issue pops.
    """

    __slots__ = ("dist",)

    def __init__(self, dist) -> None:
        self.dist = dist

    def sample_batch(self, rng, count: int) -> List[float]:
        sample = self.dist.sample
        random_ = rng.random
        values: List[float] = []
        append = values.append
        for _ in range(count >> 1):
            append(sample(rng))
            append(random_())
        return values


class _Tape:
    """One think-time stream of a lane pack: a seeded generator plus the
    blocks drawn from it that a lane may still read.

    Every lane reads a tape in the same blocks (``BusAgent``'s policy
    from the same first block), so a block is drawn once, by the first
    lane that reads it, and ``values`` keeps it under the position of
    its first variate, already in the order a buffer pops it: last draw
    first.  Lanes copy a block into their buffers and never change it.
    ``readers`` counts the lanes still to open the tape; once the last
    one has opened it, nothing rereads a block, so a read hands its
    block out and keeps nothing.
    """

    __slots__ = ("dist", "rng", "values", "readers")

    def __init__(self, dist, rng, readers: int) -> None:
        self.dist = dist
        self.rng = rng
        self.values: Dict[int, List[float]] = {}
        self.readers = readers

    def read(self, pos: int, end: int) -> List[float]:
        """The block of variates ``pos`` to ``end`` (exclusive), last
        first, drawing it if no earlier read did."""
        values = self.values
        readers = self.readers
        block = values.get(pos) if readers else values.pop(pos, None)
        if block is None:
            block = self.dist.sample_batch(self.rng, end - pos)
            block.reverse()
            if readers:
                values[pos] = block
        return block


class _StatefulTape(_Tape):
    """A shared tape of a stateful distribution (an MMPP phase, a trace
    cursor) that one agent of the scenario carries alone.

    The tape draws from its own copy of the distribution.  At the end of
    each block it draws, it records the attributes sampling has rebound
    since the copy was made: the state a lane's own copy would be in had
    it drawn that far.  Every lane reads the agent's stream in the same
    blocks (``BusAgent``'s policy), so every lane stops at a recorded
    block end: ``states[end]`` is the state its run left.

    A non-cycling trace can run out inside a block.  The block comes
    back short, as ``sample_batch`` returns it, to every lane that reads
    it, and a read past its end draws again, which raises the trace's
    exhaustion error at the same draw as a lane's own copy would.
    """

    __slots__ = ("initial", "states")

    def __init__(self, dist, rng, readers: int) -> None:
        super().__init__(copy.copy(dist), rng, readers)
        self.initial = vars(self.dist).copy()
        self.states: Dict[int, Dict[str, object]] = {}

    def read(self, pos: int, end: int) -> List[float]:
        block = super().read(pos, end)
        states = self.states
        if end not in states:
            # This read drew the block.
            initial = self.initial
            states[end] = {
                name: value
                for name, value in vars(self.dist).items()
                if name not in initial or value is not initial[name]
            }
        if not self.readers:
            # States are recorded in block order; the last reader only
            # reads on from here.
            first = next(iter(states))
            while first < end:
                del states[first]
                first = next(iter(states))
        return block


class _TapeCursor:
    """One lane agent's read position on a :class:`_Tape`, and the size
    of its next block.

    :meth:`refill` fills the agent's empty think buffer with its next
    block, in ``BusAgent``'s blocks (:func:`~repro.bus.agent.first_think_blocks`
    and :func:`~repro.bus.agent.refill_think_buffer`): a small first
    block that doubles at each refill up to ``_THINK_BLOCK``.  A block
    the tape holds for a later lane is copied straight from it; the
    tape's :meth:`~_Tape.read` draws a block no lane has read, and hands
    the last reader its block.
    """

    __slots__ = ("tape", "pos", "block")

    def __init__(self, tape: _Tape, block: int) -> None:
        self.tape = tape
        self.pos = 0
        self.block = block

    def refill(self, buffer: List[float]) -> None:
        pos = self.pos
        block = self.block
        end = self.pos = pos + block
        self.block = min(2 * block, _THINK_BLOCK)
        tape = self.tape
        held = tape.values.get(pos) if tape.readers else None
        buffer += tape.read(pos, end) if held is None else held


#: A shared tape's key: ``(seed, agent id, distribution spec key)``, plus
#: :data:`_THINK_AND_CLASS` for a classed agent's tape.
_TapeKey = Tuple[object, ...]

#: Marks a classed agent's tape key apart from the key of the same
#: stream read as think times alone.
_THINK_AND_CLASS = "think+class"


def _tape_keys(
    scenario: ScenarioSpec, settings: "SimulationSettings"
) -> List[Optional[_TapeKey]]:
    """Each agent's shared-tape key, in declaration order.

    ``None`` for the agents that read no shared tape: a classed agent in
    a lane with agent dropout or with a stateful distribution
    (:class:`_ThinkEach`), and agents that share one stateful
    distribution object, whose draws interleave block by block, so each
    gets a tape private to its lane.
    """
    seed = settings.seed
    keys = [
        None
        if spec.priority_fraction > 0.0 or spec.interrequest.stateful
        else (seed, spec.agent_id, spec.interrequest.spec_key())
        for spec in scenario.agents
    ]
    if None not in keys:
        return keys
    plan = settings.fault_plan
    dropout = plan is not None and FaultKind.AGENT_DROPOUT in plan.kinds()
    owners = Counter(
        id(spec.interrequest) for spec in scenario.agents if spec.interrequest.stateful
    )
    for index, spec in enumerate(scenario.agents):
        dist = spec.interrequest
        if spec.priority_fraction > 0.0:
            if not (dropout or dist.stateful):
                keys[index] = (seed, spec.agent_id, dist.spec_key(), _THINK_AND_CLASS)
        elif owners[id(dist)] == 1:
            keys[index] = (seed, spec.agent_id, dist.spec_key())
    return keys


class _TapeShelf:
    """The shared tapes of one :func:`run_lanes` call, by key.

    ``keys[i]`` holds lane ``i``'s :func:`_tape_keys`, equal keys as one
    object.  The shelf counts the lanes that read each tape, and
    :meth:`release` drops a tape after the last of them.
    """

    __slots__ = ("keys", "tapes", "readers")

    def __init__(self, cells: Sequence[Tuple[ScenarioSpec, str, "SimulationSettings"]]) -> None:
        interned: Dict[_TapeKey, _TapeKey] = {}
        self.keys = [
            [
                key if key is None else interned.setdefault(key, key)
                for key in _tape_keys(scenario, settings)
            ]
            for scenario, _, settings in cells
        ]
        self.tapes: Dict[_TapeKey, _Tape] = {}
        self.readers = Counter(key for keys in self.keys for key in keys if key is not None)

    def cursor(
        self, key: Optional[_TapeKey], dist, streams: RandomStreams, agent: int, block: int
    ) -> _TapeCursor:
        """A cursor at the start of ``key``'s tape, opened for one more
        lane, whose first block is ``block``; a private tape when
        ``key`` is ``None``."""
        if key is None:
            return _TapeCursor(_Tape(dist, streams.agent_stream(agent), 0), block)
        tape = self.tapes.get(key)
        if tape is None:
            rng = streams.agent_stream(agent)
            readers = self.readers[key]
            if key[-1] is _THINK_AND_CLASS:
                tape = _Tape(_ThinkAndClass(dist), rng, readers)
            elif dist.stateful:
                tape = _StatefulTape(dist, rng, readers)
            else:
                tape = _Tape(dist, rng, readers)
            self.tapes[key] = tape
        tape.readers -= 1
        return _TapeCursor(tape, block)

    def release(self, keys: Sequence[Optional[_TapeKey]]) -> None:
        """Drop the tapes among ``keys`` that no lane still to run reads."""
        tapes = self.tapes
        for key in keys:
            if key is not None and not tapes[key].readers:
                del tapes[key]


class _Replication:
    """One lane's complete simulation state, calendar-free.

    The only "events" the restricted domain can generate are the next
    release, the next arbitration-complete or edge grant (``t_arb``),
    one pending kick, one request timer per agent and — with faults
    in-domain — one pending watchdog retry plus the plan's next point
    fault; each is a scalar timestamp (``inf`` when absent).  Dispatch
    picks the earliest, breaking timestamp ties by the calendar's
    priority order (release < grant = arbitration-complete < request <
    kick = watchdog-retry < fault) and request-vs-request ties by
    insertion sequence — exactly the event calendar's rule, since at
    one instant at most one release / arbitration / grant / kick /
    retry can be pending and a retry never coexists with a kick (the
    event model blocks kick scheduling for the whole recovery episode).

    ``t_arb`` only ever fires on an idle bus: an arbitration that
    settles inside the current tenure just latches its winner, one that
    settles at or after the release fires after it (release sorts
    first), and kicks stay blocked while ``t_arb`` is armed.  So its
    handler is the idle-bus grant.  On a synchronous bus the grant
    waits for the next clock edge, and ``t_arb`` is armed at that edge
    directly: the event engine's arbitration-complete at the settle
    time only sets the pending winner, which blocks new kicks exactly
    as an armed ``t_arb`` does, and no release, grant or other
    arbitration can fall between the settle and the edge.

    The object holds what is built before the run: the cell's collector,
    fault wiring and telemetry (:class:`~repro.engine.cell.CellAssembly`),
    the kernel, each agent's think-time buffer and tape cursor, the
    request heap with every agent's first timer, and the plan's fault
    actions.  :meth:`run` runs the lane once, to its end; the timers,
    the bus state and the open batch live in its locals.
    """

    __slots__ = (
        "cell",
        "num_agents",
        "kernel",
        "sinks",
        "flow_metrics",
        "txn",
        "arbt",
        "class_draws",
        "tapes",
        "restores",
        "buffers",
        "fractions",
        "req_heap",
        "active",
        "woke",
        "fault_actions",
    )

    def __init__(
        self,
        scenario: ScenarioSpec,
        protocol: str,
        settings: "SimulationSettings",
        shelf: _TapeShelf,
        tape_keys: Sequence[Optional[_TapeKey]],
    ) -> None:
        cell = self.cell = CellAssembly(scenario, protocol, settings)
        num_agents = scenario.num_agents
        self.num_agents = num_agents
        sinks: list = cell.sinks()
        if cell.metrics is not None:
            sinks.append(MetricsSink(cell.metrics))
        self.sinks = tuple(sinks)
        # The event engine's per-flow series, emitted only for scenarios
        # with open-loop agents or a priority class (BusSystem._flow_metrics).
        self.flow_metrics = cell.metrics is not None and any(
            spec.open_loop or spec.priority_fraction > 0.0 for spec in scenario.agents
        )
        self.txn = settings.timing.transaction_time
        self.arbt = settings.timing.arbitration_time

        injector = cell.injector
        if cell.watchdog is not None:
            cell.watchdog.bind(cell.collector)
        # A lane picks its kernel once, like its classed path: only a
        # lane without an injector grants the winner of every pass.
        kernel = _KERNELS[protocol]
        if injector is None:
            kernel = _FAULT_FREE_KERNELS.get(protocol, kernel)
        self.kernel = kernel(num_agents)
        # The plan's point faults, as a time-sorted action list replacing
        # the calendar events FaultInjector.attach would schedule: one
        # (time, kind, event) entry per dropped broadcast, counter upset
        # and dropout, plus a (end, None, event) rejoin per dropout
        # window.  The stable sort preserves the plan's scheduling order
        # for equal times — the calendar's insertion-sequence rule at
        # equal priority.
        actions: List[Tuple[float, Optional[FaultKind], FaultEvent]] = []
        if injector is not None:
            for fevent in injector.plan.events:
                if fevent.kind in _POINT_FAULTS:
                    actions.append((max(0.0, fevent.time), fevent.kind, fevent))
                if fevent.kind is FaultKind.AGENT_DROPOUT:
                    actions.append((max(0.0, fevent.end_time), None, fevent))
            actions.sort(key=lambda entry: entry[0])
        self.fault_actions = actions

        streams = RandomStreams(settings.seed)
        # A classed agent's class draw: the next value of its buffer, or
        # of its own generator beside a _ThinkEach.
        self.class_draws: list = [None] * (num_agents + 1)
        # An agent's cursor on its think-time tape.
        self.tapes: List[Optional[_TapeCursor]] = [None] * (num_agents + 1)
        # The stateful distributions read from a shared tape, with their
        # cursors: run() sets each to the state its run left.
        self.restores: List[Tuple[object, _TapeCursor]] = []
        # None marks an agent id the scenario does not declare.
        self.buffers: list = [None] * (num_agents + 1)
        # Request-class probability per agent; 0.0 for unclassed agents.
        self.fractions = [0.0] * (num_agents + 1)
        self.active = [True] * (num_agents + 1)
        self.woke = [False] * (num_agents + 1)
        heap: list = []
        blocks = first_think_blocks(scenario.agents)
        # Start every agent with one think period, in declaration order —
        # the same order BusSystem.run() starts them, so the streams and
        # the request-timer tie-break sequence numbers (1, 2, ...) line up.
        for seq, (spec, key) in enumerate(zip(scenario.agents, tape_keys), 1):
            agent = spec.agent_id
            dist = spec.interrequest
            classed = spec.priority_fraction > 0.0
            if classed:
                self.fractions[agent] = spec.priority_fraction
            if classed and key is None:
                # A class draw falls between two think draws on the
                # agent's stream, so it draws them one at a time.
                rng = streams.agent_stream(agent)
                self.class_draws[agent] = rng.random
                buffer = self.buffers[agent] = _ThinkEach(dist, rng)
            else:
                tape = self.tapes[agent] = shelf.cursor(key, dist, streams, agent, blocks[agent])
                buffer = self.buffers[agent] = []
                tape.refill(buffer)
                if classed:
                    # The tape interleaves think times and class draws.
                    self.class_draws[agent] = buffer.pop
                elif key is not None and dist.stateful:
                    self.restores.append((dist, tape))
            t_first = 0.0 + buffer.pop()
            heap.append((t_first, seq, agent))
        heapify(heap)
        self.req_heap = heap

    def run(self) -> RunResult:
        """Run the lane to its end and return its result.

        The lane ends when the collector is satisfied or the watchdog
        declares a permanent failure; a calendar that drains first
        raises :class:`~repro.errors.SimulationError`.

        The loop body keeps the whole machine state in locals, the
        pending-request mask included, and inlines the grant/kick
        handlers, every request and grant, and the pick of a clean
        class-blind pass: this is the sweep bottleneck, and attribute
        traffic and calls dominate once event objects are gone.

        On a saturated bus one round runs per completion, on every lane:
        the release, its record, the think redraw, the grant of the
        winner latched during the tenure, the fused kick that latches
        the next one (on an edge, if clocked), then the absorption of
        the requests that expire before the next release.  While a
        winner is latched the release is known to be next (or, on a
        faulted lane, a fault timer before it), so that round scans no
        timers and tests no kick guard.
        """
        cell = self.cell
        collector = cell.collector
        record_completion = collector.record_completion
        needed = collector.needed
        warmup_n = collector.warmup
        batch_size_n = collector.batch_size
        # The flag-free accumulation path is inlined in the RELEASE
        # branch; anything that retains per-completion artefacts goes
        # through the reference implementation.
        fast_record = not (collector.keep_order or collector.keep_records)
        total = 0
        # The flag-free path's open batch, in CompletionCollector.end_batch's
        # argument order: its count and three sums, and the time of the
        # last completion (the open batch's end time, or the collector's
        # next batch boundary if none is open).  ``tally`` counts the
        # open batch's completions per agent, ``seen`` lists its agents
        # in first-completion order, and ``samples`` is its samples
        # list, if it keeps one.
        b_count = 0
        b_wait = b_wait_sq = b_queue = t_done = 0.0
        samples = None
        tally = [0] * (self.num_agents + 1)
        seen: List[int] = []
        kernel = self.kernel
        injector = cell.injector
        watchdog = cell.watchdog
        # A lane picks its path once.  A faulted lane (one with a fault
        # injector) absorbs requests only up to its next fault timer,
        # swallows a dropped-out agent's expiry and tests each pass for
        # a due line fault.  A watchdog alone changes no path: clean
        # runs never consult it.
        faulty = injector is not None
        # Only a lane with classed agents draws request classes and
        # arbitrates on the class bit.  Every key-free pass of a lane is
        # granted before the next pass, so an FCFS lane's kernel picks
        # with a pop (_FcfsKernel.arbitrate_granted, which is a
        # fault-free lane's arbitrate_classed).
        classed = any(self.fractions)
        fcfs = isinstance(kernel, _FcfsKernel)
        kernel_arbitrate = kernel.arbitrate_classed if classed else kernel.arbitrate
        if faulty and fcfs:
            kernel_arbitrate = kernel.arbitrate_granted
        # Every kernel's grant body is `pending &= ~bit; return issue`,
        # and its request body `pending |= bit; issue = now` plus the
        # class bit, and for FCFS the a-incr tick, the stamp and a push
        # on the arrival heap: all are inlined below, over a pending
        # mask the lane holds, as method calls are measurable at two
        # calls per completion.  A class-free lane issues without the
        # class bit; a fault-free class-free FCFS lane files its stamp
        # in the heap alone (_FaultFreeFcfsKernel).  The lane copies its
        # mask to the kernel before each kernel call it makes.
        pending = kernel.pending
        kernel_issue = kernel.issue
        heap_issue = fcfs and not (classed or faulty)
        simple_request = not (classed or fcfs)
        if fcfs:
            arrivals = kernel.arrivals
            stamp = kernel.stamp
            aincr = kernel.strategy == 2
        # A lane with no classed agent and no fault injector picks inline
        # with its kernel's arbitrate: round robin, fixed priority, and
        # fault-free FCFS (heap_issue).  Other lanes call their kernel.
        clean = not (classed or faulty)
        rr_impl = kernel.impl if clean and type(kernel) is _RoundRobinKernel else 0
        top_pick = clean and type(kernel) is _FixedPriorityKernel
        if rr_impl:
            last_winner = kernel.last_winner
            empty_low_rounds = 2 if rr_impl == 3 else 1
            gated = rr_impl != 1
        fractions = self.fractions
        class_draws = self.class_draws
        req_heap = self.req_heap
        buffers = self.buffers
        tapes = self.tapes
        metrics = cell.metrics
        flow_metrics = self.flow_metrics
        sinks = self.sinks
        txn = self.txn
        arbt = self.arbt
        num_agents = self.num_agents
        active = self.active
        woke = self.woke
        # A synchronous bus samples the arbitration-start signal at the
        # next clock edge, so its kick is fused only on an edge.
        timing = cell.settings.timing
        clocked = timing.synchronous
        edge = timing.delay_to_next_edge
        fuse = not clocked
        fault_actions = self.fault_actions
        fault_count = len(fault_actions)
        fault_idx = 0
        t_fault = fault_actions[0][0] if fault_actions else _INF

        now = 0.0
        t_rel = t_arb = t_kick = t_retry = _INF
        # The last request-timer sequence number __init__ handed out.
        seq = len(req_heap)
        # A sentinel that sorts after every timer and is never popped:
        # every pop takes a due timer, at a finite time.
        heappush(req_heap, (_INF, _INF, 0))
        arb_winner = 0
        busy = False
        pending_winner: Optional[int] = None
        master = 0
        master_issue = master_grant = busy_time = 0.0
        arb_index = 0
        # Earliest request time, insertion order breaking time ties.
        # The heap peek is cached across iterations and only refreshed
        # at the points that can move it: a pop (re-peek) or a
        # push of an earlier timer (equal times keep the cached head —
        # pushes carry ever-larger sequence numbers, and smaller seq
        # wins the tie).
        tr = req_heap[0][0]
        kick_now = False
        while True:
            if pending_winner is not None:
                # The next master is already latched.  A winner latches
                # only when no arbitration, kick or retry is pending
                # (every path to a pass checks the three are clear), and
                # until the release grants it no handler can schedule
                # one: the kick guards test for a latched winner.  So
                # the only dispatchable events are request expiries and,
                # on a faulted lane, fault timers, and the request
                # handler (sans the suppressed kick guard) can absorb
                # the expiries without a full dispatch round each.
                # Strictly before t_rel only: a request at exactly t_rel
                # fires after the release, as in the calendar's priority
                # order.
                if not faulty:
                    while tr < t_rel:
                        fire, _, agent = heappop(req_heap)
                        tr = req_heap[0][0]
                        if simple_request:
                            pending |= 1 << agent
                            kernel_issue[agent] = fire
                        elif heap_issue:
                            pending |= 1 << agent
                            kernel_issue[agent] = fire
                            if aincr and fire - kernel.last_pulse > 0.0:
                                kernel.clock += 1
                                kernel.last_pulse = fire
                            heappush(arrivals, (kernel.clock, -agent))
                        else:
                            # As in the REQUEST branch below.
                            bit = 1 << agent
                            pending |= bit
                            kernel_issue[agent] = fire
                            fraction = fractions[agent]
                            if fraction > 0.0 and class_draws[agent]() < fraction:
                                kernel.urgent |= bit
                            elif kernel.urgent:
                                kernel.urgent &= ~bit
                            if fcfs:
                                if aincr and fire - kernel.last_pulse > 0.0:
                                    kernel.clock += 1
                                    kernel.last_pulse = fire
                                stamp[agent] = clock = kernel.clock
                                heappush(arrivals, (clock, -agent))
                    # Every other timer is infinite and no request timer
                    # is left before t_rel, so the release is next: no
                    # timer scan, and the calendar cannot be drained.
                    tmin = t_rel
                else:
                    # A faulted lane absorbs up to its next fault timer
                    # as well: a fault can drop an agent out or upset a
                    # pending counter.  A request at the fault's instant
                    # fires first (REQUEST < FAULT).  The release or the
                    # fault is next, the release first at a tie.
                    while tr < t_rel and tr <= t_fault:
                        fire, _, agent = heappop(req_heap)
                        tr = req_heap[0][0]
                        if not active[agent]:
                            # As in the REQUEST branch below.
                            woke[agent] = True
                        elif simple_request:
                            pending |= 1 << agent
                            kernel_issue[agent] = fire
                        else:
                            # As in the REQUEST branch below.
                            bit = 1 << agent
                            pending |= bit
                            kernel_issue[agent] = fire
                            fraction = fractions[agent]
                            if fraction > 0.0 and class_draws[agent]() < fraction:
                                kernel.urgent |= bit
                            elif kernel.urgent:
                                kernel.urgent &= ~bit
                            if fcfs:
                                if aincr and fire - kernel.last_pulse > 0.0:
                                    kernel.clock += 1
                                    kernel.last_pulse = fire
                                stamp[agent] = clock = kernel.clock
                                heappush(arrivals, (clock, -agent))
                    tmin = t_rel if t_rel <= t_fault else t_fault
            else:
                tmin = t_rel
                if t_arb < tmin:
                    tmin = t_arb
                if tr < tmin:
                    tmin = tr
                if t_kick < tmin:
                    tmin = t_kick
                if t_retry < tmin:
                    tmin = t_retry
                if t_fault < tmin:
                    tmin = t_fault
                if tmin == _INF:
                    raise SimulationError(
                        "simulation drained its event calendar before the collector "
                        "was satisfied; the scenario generates too few requests"
                    )
            now = tmin
            if t_rel == tmin:  # RELEASE — ends the master's tenure
                agent = master
                issue = master_issue
                t_rel = _INF
                busy = False
                busy_time += txn
                if fast_record:
                    # Inline of CompletionCollector.record_completion's
                    # flag-free path — that method is the reference
                    # implementation, and the cross-engine differential
                    # suite pins this copy to it.  The open batch's count
                    # and sums live in locals, in the reference's
                    # operand order, and its per-agent counts in a tally
                    # list; the collector's end_run sums agent_totals
                    # from the batches.  A lane stops at the completion
                    # that satisfies the collector, so none is past
                    # ``needed``.
                    if total >= warmup_n:
                        if not b_count:
                            samples = collector.begin_batch(total, t_done).samples
                        waiting = now - issue
                        b_count += 1
                        b_wait += waiting
                        b_wait_sq += waiting * waiting
                        b_queue += master_grant - issue
                        if tally[agent]:
                            tally[agent] += 1
                        else:
                            tally[agent] = 1
                            seen.append(agent)
                        if samples is not None:
                            samples.append(waiting)
                        if b_count == batch_size_n:
                            collector.end_batch(
                                b_count, b_wait, b_wait_sq, b_queue, now, tally, seen
                            )
                            b_count = 0
                            b_wait = b_wait_sq = b_queue = 0.0
                    t_done = now
                else:
                    # The master's class bit is intact until its release.
                    record_completion(
                        agent, issue, master_grant, now, bool(kernel.urgent >> agent & 1)
                    )
                total += 1
                if metrics is not None:
                    metrics.counter("completions").increment()
                    metrics.histogram(f"wait.agent.{agent}", WAIT_BUCKETS).observe(
                        now - issue
                    )
                    if flow_metrics:
                        label = "urgent" if kernel.urgent >> agent & 1 else "normal"
                        metrics.counter(f"flow.share.agent.{agent}.{label}").increment()
                        metrics.histogram(f"wait.class.{label}", WAIT_BUCKETS).observe(
                            now - issue
                        )
                # Closed loop, or open loop blocked at one outstanding
                # request: the agent draws its next think period now
                # (even while dropped out — its timer then wakes it).
                buffer = buffers[agent]
                if not buffer:
                    tapes[agent].refill(buffer)
                t_next = now + buffer.pop()
                seq += 1
                heappush(req_heap, (t_next, seq, agent))
                if t_next < tr:
                    tr = t_next
                if total >= needed:  # inlined satisfied()
                    # The event engine's post-event effects (inline grant
                    # of a pending winner, a same-instant kick) never run
                    # another event after the stop rule fires, so they
                    # are unobservable; the run ends here.
                    break
                if pending_winner is not None:
                    # Inline grant of the already-arbitrated next master.
                    # No kick guard: while a winner is latched, no
                    # arbitration, kick or retry is pending (see the
                    # absorb loop above), on every lane.
                    pending &= ~(1 << pending_winner)
                    master_issue = kernel_issue[pending_winner]
                    if watchdog is not None:
                        watchdog.on_clean_grant(now)
                    busy = True
                    master = pending_winner
                    pending_winner = None
                    master_grant = now
                    t_rel = now + txn
                    if tr > now and (fuse or not edge(now)):
                        kick_now = True
                    else:
                        t_kick = now + edge(now)
                elif t_kick == _INF and t_arb == _INF and t_retry == _INF:
                    if tr > now and (fuse or not edge(now)):
                        kick_now = True
                    else:
                        t_kick = now + edge(now)
            elif t_arb == tmin:  # ARBITRATION-COMPLETE or GRANT on an edge
                # Always an idle bus (see the class docstring): hand
                # over now, which is the next edge if clocked.
                t_arb = _INF
                pending &= ~(1 << arb_winner)
                master_issue = kernel_issue[arb_winner]
                if watchdog is not None:
                    watchdog.on_clean_grant(now)
                busy = True
                master = arb_winner
                master_grant = now
                t_rel = now + txn
                if t_kick == _INF and t_retry == _INF:
                    if tr > now and (fuse or not edge(now)):
                        kick_now = True
                    else:
                        t_kick = now + edge(now)
            elif tr == tmin:  # REQUEST — an agent's think timer expires
                agent = heappop(req_heap)[2]
                tr = req_heap[0][0]
                if active[agent]:
                    if simple_request:
                        pending |= 1 << agent
                        kernel_issue[agent] = now
                    elif heap_issue:
                        pending |= 1 << agent
                        kernel_issue[agent] = now
                        if aincr and now - kernel.last_pulse > 0.0:
                            kernel.clock += 1
                            kernel.last_pulse = now
                        heappush(arrivals, (kernel.clock, -agent))
                    else:
                        # A classed request, or a faulted FCFS lane's: the
                        # class drawn as BusAgent draws it (one uniform per
                        # request of a classed agent, even at fraction 1.0),
                        # and an FCFS request's a-incr tick, stamp and entry.
                        bit = 1 << agent
                        pending |= bit
                        kernel_issue[agent] = now
                        fraction = fractions[agent]
                        if fraction > 0.0 and class_draws[agent]() < fraction:
                            kernel.urgent |= bit
                        elif kernel.urgent:
                            kernel.urgent &= ~bit
                        if fcfs:
                            if aincr and now - kernel.last_pulse > 0.0:
                                kernel.clock += 1
                                kernel.last_pulse = now
                            stamp[agent] = clock = kernel.clock
                            heappush(arrivals, (clock, -agent))
                    if (
                        t_kick == _INF
                        and t_arb == _INF
                        and t_retry == _INF
                        and pending_winner is None
                    ):
                        if tr > now and (fuse or not edge(now)):
                            kick_now = True
                        else:
                            t_kick = now + edge(now)
                else:
                    # Dropped out: swallow the expiry, remember it so
                    # rejoin restarts the generation loop (BusAgent).
                    woke[agent] = True
            elif t_kick == tmin or t_retry == tmin:
                # ARB_KICK / WATCHDOG-RETRY — competitor snapshot at the
                # instant's end.  The two share the calendar priority and
                # the same handler body (_arb_kick and _watchdog_retry
                # both land in _maybe_start_arbitration) and are never
                # pending together.
                if t_kick == tmin:
                    t_kick = _INF
                else:
                    t_retry = _INF
                if t_arb == _INF and pending_winner is None:
                    kick_now = True
            else:  # FAULT — the plan's next point fault or rejoin
                _, kind, fevent = fault_actions[fault_idx]
                fault_idx += 1
                t_fault = (
                    fault_actions[fault_idx][0]
                    if fault_idx < fault_count
                    else _INF
                )
                aid = fevent.agent_id
                on_bus = 0 < aid <= num_agents
                present = on_bus and buffers[aid] is not None
                if kind is FaultKind.DROPPED_BROADCAST:
                    # FaultInjector._drop_broadcast: the victim skips the
                    # next winner it would record.
                    if on_bus:
                        kernel.drop_winner_observations(aid)
                        injector.count_applied(kind)
                    else:
                        injector.count_skipped(kind)
                elif kind is FaultKind.COUNTER_UPSET:
                    # FaultInjector._upset_counter: only a pending
                    # request's counter can be hit.
                    kernel.pending = pending
                    if on_bus and kernel.glitch_counter(aid, fevent.value):
                        injector.count_applied(kind)
                    else:
                        injector.count_skipped(kind)
                elif kind is not None:  # AGENT_DROPOUT
                    if present and active[aid]:
                        # Asserted requests stay on the arbiter — the
                        # hardware cannot recall a request line; only
                        # new generation stops (BusAgent.drop_out).
                        active[aid] = False
                        injector.count_applied(kind)
                    else:
                        injector.count_skipped(kind)
                elif present and not active[aid]:
                    active[aid] = True
                    if woke[aid]:
                        # The think timer expired while absent: restart
                        # the generation loop with a fresh think period
                        # (BusAgent.rejoin).
                        woke[aid] = False
                        buffer = buffers[aid]
                        if not buffer:
                            tapes[aid].refill(buffer)
                        t_next = now + buffer.pop()
                        seq += 1
                        heappush(req_heap, (t_next, seq, aid))
                        if t_next < tr:
                            tr = t_next
            if kick_now:
                # An arbitration pass at ``now``.  Either a kick or retry
                # handler above fired, or a handler scheduled a kick "for
                # now" and proved no other event shares the timestamp
                # (the earliest request timer is strictly later, every
                # other timer infinite or a later-ranked fault timer),
                # so the kick's competitor snapshot is already final —
                # run it in this dispatch round instead of paying
                # another.  A synchronous run fuses only a kick that
                # falls on a clock edge.
                kick_now = False
                if not pending:
                    pass
                elif faulty and (watchdog.attempts or injector.line_fault_due(now)):
                    # Fault-domain pass: a line fault is due or a
                    # recovery episode is open.  Expose the applied keys,
                    # perturb them, and route anomalies through the
                    # watchdog — mirroring _maybe_start_arbitration.
                    kernel.pending = pending
                    winner, rounds, competitors, keys = kernel.arbitrate_keys()
                    settle = arbt * rounds
                    perturbed = injector.perturb(
                        ArbitrationOutcome(
                            winner=winner,
                            rounds=rounds,
                            competitors=frozenset(keys),
                            keys=keys,
                        ),
                        now,
                    )
                    anomaly = perturbed.anomaly
                    if anomaly is not None:
                        # Emit before consulting the watchdog: the
                        # event carries the episode's attempt count
                        # *before* this anomaly joined it.
                        if sinks:
                            event = ArbitrationEvent(
                                index=arb_index,
                                time=now,
                                competitors=_mask_ids(competitors),
                                winner=None,
                                rounds=rounds,
                                settle_time=settle,
                                anomaly=anomaly,
                                watchdog_attempt=watchdog.attempts,
                            )
                            arb_index += 1
                            for sink in sinks:
                                sink.emit(event)
                        delay = watchdog.on_anomaly(anomaly, now)
                        if delay is None:
                            # Retry budget exhausted: permanent
                            # failure ends the lane, as the event
                            # engine's stop rule would at the same
                            # instant.
                            break
                        t_retry = now + (settle + delay)
                    else:
                        winner = perturbed.winner
                        if perturbed.deviated:
                            collector.record_deviation()
                        if sinks:
                            event = ArbitrationEvent(
                                index=arb_index,
                                time=now,
                                competitors=_mask_ids(competitors),
                                winner=winner,
                                rounds=rounds,
                                settle_time=settle,
                                watchdog_attempt=watchdog.attempts,
                                fault_tags=("deviated",) if perturbed.deviated else (),
                            )
                            arb_index += 1
                            for sink in sinks:
                                sink.emit(event)
                        t_settled = now + settle
                        if busy and t_settled < t_rel:
                            # Same latch as the clean path: a clean
                            # (or deviated) outcome on a busy bus
                            # only latches the winner.
                            pending_winner = winner
                        else:
                            arb_winner = winner
                            t_arb = t_settled + edge(t_settled)
                else:
                    # A clean pass: perturb would hand the outcome back
                    # untouched, and with no open recovery episode the
                    # event carries no attempt count, so the key-free
                    # pass is exact.
                    if rr_impl:
                        # Implementation 3 settles twice when no agent is
                        # below the last winner; 2 and 3 report the gated set.
                        low = pending & ((1 << last_winner) - 1)
                        if low:
                            winner = last_winner = low.bit_length() - 1
                            rounds = 1
                        else:
                            winner = last_winner = pending.bit_length() - 1
                            rounds = empty_low_rounds
                        if sinks:
                            competitors = (low or pending) if gated else pending
                    elif heap_issue:
                        winner = -heappop(arrivals)[1]
                        if not aincr:
                            kernel.clock += 1
                        rounds = 1
                        competitors = pending
                    elif top_pick:
                        winner = pending.bit_length() - 1
                        rounds = 1
                        competitors = pending
                    else:
                        kernel.pending = pending
                        winner, rounds, competitors = kernel_arbitrate()
                    settle = arbt * rounds
                    if sinks:
                        event = ArbitrationEvent(
                            index=arb_index,
                            time=now,
                            competitors=_mask_ids(competitors),
                            winner=winner,
                            rounds=rounds,
                            settle_time=settle,
                        )
                        arb_index += 1
                        for sink in sinks:
                            sink.emit(event)
                    t_settled = now + settle
                    if busy and t_settled < t_rel:
                        # The current master still owns the bus when the
                        # lines settle, so the arbitration-complete
                        # event's only effect would be to latch the
                        # winner — fold it into this instant and save a
                        # dispatch round per saturated transaction.
                        # Strict `<`: at a settle/release tie the
                        # calendar fires the release first and the
                        # arbitration lands on an idle bus, a different
                        # handler.
                        pending_winner = winner
                    else:
                        # The lines settle on an idle bus; a clocked one
                        # hands over at the next edge.  The winner is
                        # not latched while it waits, so request
                        # absorption stays off until then.
                        arb_winner = winner
                        t_arb = t_settled + edge(t_settled) if clocked else t_settled

        collector.total_recorded = total
        if fast_record:
            # A lane the watchdog stopped may leave a batch open.
            collector.end_run(b_count, b_wait, b_wait_sq, b_queue, t_done, tally, seen)
        else:
            collector.end_run()
        for dist, cursor in self.restores:
            # The state the lane's own copy would have reached, drawing
            # the blocks the lane read.
            vars(dist).update(cursor.tape.states[cursor.pos])
        return cell.result(busy_time / now if now > 0.0 else 0.0, now)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def run_simulation_batch(
    scenario: ScenarioSpec,
    protocol: str,
    settings: "SimulationSettings",
) -> RunResult:
    """Run one (scenario, protocol) cell on the batch engine.

    Raises :class:`~repro.errors.ConfigurationError` when the cell is
    outside the batch domain; use :func:`batch_capable` first (or go
    through :func:`repro.experiments.runner.run_simulation`, which runs
    such a cell on the event engine).
    """
    return run_lanes([(scenario, protocol, settings)])[0]


def run_lanes(
    cells: Sequence[Tuple[ScenarioSpec, str, "SimulationSettings"]],
) -> List[RunResult]:
    """Run heterogeneous cells as lanes of the batch engine.

    ``cells`` may mix agent counts, loads, seeds, protocols and fault
    plans freely — every cell just has to be :func:`batch_capable` on
    its own; all are checked before any runs.  Each lane is built, run
    to completion and dropped before the next is built.  Lanes that
    share a think-time stream (same seed, agent id and distribution
    spec key) read one tape of it, and run one after another: the call
    runs its lanes grouped by their tape keys, and drops each tape
    after the last lane that reads it, so peak memory is one group's
    tapes plus one lane.  A lane copies only the stateful
    (trace-replay, MMPP) distributions of its scenario
    (:func:`~repro.workload.scenarios.fresh_scenario`), which must not
    be shared between lanes built from one scenario object; a shared
    tape draws from a copy of its own and sets each lane's copy to the
    state the lane's reads reached.

    Results are returned in ``cells`` order and are identical to
    independent :func:`run_simulation` calls — neither the order cells
    are handed in nor the company a cell keeps can influence any
    observable (a shared tape hands every lane the variates its own
    stream would draw).
    """
    paths = [
        cell[2].telemetry.jsonl_path
        for cell in cells
        if cell[2].telemetry is not None
        and cell[2].telemetry.jsonl_path is not None
    ]
    if len(paths) != len(set(paths)):
        raise ConfigurationError(
            "run_lanes cannot share one telemetry jsonl_path across lanes; "
            "give each lane its own path"
        )
    for scenario, protocol, settings in cells:
        capable, reason = batch_capable(scenario, protocol, settings)
        if not capable:
            raise ConfigurationError(
                f"batch engine cannot run {protocol!r} on scenario "
                f"{scenario.name!r}: {reason}"
            )
    shelf = _TapeShelf(cells)
    lane_keys = shelf.keys
    groups: Dict[Tuple[Optional[_TapeKey], ...], List[int]] = {}
    for index, keys in enumerate(lane_keys):
        groups.setdefault(tuple(keys), []).append(index)
    results: List[Optional[RunResult]] = [None] * len(cells)
    for index in [index for group in groups.values() for index in group]:
        scenario, protocol, settings = cells[index]
        lane = _Replication(
            fresh_scenario(scenario), protocol, settings, shelf, lane_keys[index]
        )
        try:
            results[index] = lane.run()
        finally:
            lane.cell.close()
        del lane  # its cursors, before the release drops their tapes
        shelf.release(lane_keys[index])
    return results  # type: ignore[return-value]  # every lane ran


def run_replications(
    scenario: ScenarioSpec,
    protocol: str,
    settings: "SimulationSettings",
    seeds: Sequence[int],
) -> List[RunResult]:
    """Run R replications of one cell, one per seed.

    A convenience wrapper over :func:`run_lanes` for the homogeneous
    special case; results are returned in ``seeds`` order and are
    identical to R independent :func:`run_simulation` calls.
    """
    return run_lanes(
        [(scenario, protocol, replace(settings, seed=seed)) for seed in seeds]
    )
