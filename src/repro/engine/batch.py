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
lane at a time, so a call's peak memory is one lane's.

Open-loop agents are in-domain at ``max_outstanding == 1``: such an
agent issues, blocks generation while its one request is in flight and
resumes with a fresh think draw at completion (``BusAgent``) — the
closed-loop cycle exactly, so the lane needs no arrival-clock timer.
Their runs add the per-flow metric series the event engine emits for
open-loop and priority-classed scenarios.

Two-class priority traffic (§2.4) is in-domain.  Every protocol
prepends one priority bit to its arbitration number, so the kernels
keep an ``urgent`` bitmask beside the pending one and the winner is
still one maximum over bitmasks.  A lane draws each request's class as
``BusAgent`` does: an agent with ``priority_fraction > 0`` draws its
think times one at a time and one uniform at every issue, so its
stream reads think, class, think, class...  Unclassed agents keep their
``sample_batch`` think buffers, and a lane with no classed agent runs
the class-blind kernel path, so classing costs it nothing.

Synchronous buses (``BusTiming.clock_period > 0``, §2.1) are
in-domain and need no timer class of their own.  The arbitration
kick is scheduled at ``now + delay_to_next_edge(now)``, the event
engine's own expression, instead of being fused into the current
instant.  A winner whose lines settle on an idle bus is granted at the
next edge: the lane arms ``t_arb`` at that edge instead of at the
settle time, taking the place of the event engine's ``GRANT`` event.
That is exact because the arbitration-complete in between only
latches the winner, and no release, grant or other arbitration can be
pending while the winner waits.

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
faulted lane is the clean, key-free kernel pass.

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
from collections import deque
from dataclasses import replace
from heapq import heapify, heappop, heappush
from math import inf as _INF
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.bus.agent import _THINK_BLOCK
from repro.bus.watchdog import BusWatchdog
from repro.core.base import ArbitrationOutcome, identity_bits
from repro.engine.rng import RandomStreams
from repro.errors import ConfigurationError, SimulationError, StatisticsError
from repro.faults.injector import FaultInjector
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultEvent, FaultKind
from repro.observability.events import ArbitrationEvent
from repro.observability.metrics import WAIT_BUCKETS, MetricsRegistry, MetricsSink
from repro.observability.sinks import InMemorySink, JsonlSink
from repro.protocols.registry import get_spec
from repro.stats.collector import CompletionCollector, check_run_length
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import SimulationSettings

__all__ = [
    "LANE_WIDTH",
    "batch_capable",
    "kernel_family",
    "run_lanes",
    "run_simulation_batch",
    "run_replications",
]

#: Completions one :meth:`_Replication.advance` call runs before it
#: returns.  A lane runs to completion through repeated calls, so the
#: value only sets how often the loop's locals are written back; results
#: do not depend on it.  Recorded in benchmark metadata as the lane width.
_ADVANCE_BLOCK = 64

#: Public alias of the advance block, for benchmark environment records.
LANE_WIDTH = _ADVANCE_BLOCK


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
        anomalous (never granted) pass still advances ``last_winner``,
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

    This kernel scans every pending requester on every pass.  It serves
    the lanes with a fault injector and ``fcfs-glitchable``, where the
    counters leave stamp order: an anomalous pass leaves its winner
    pending but un-aged, and a counter upset rewrites a counter.  A
    fault-free lane runs :class:`_FcfsGroupKernel` instead, which picks
    the winner from the oldest arrival group.  By §3.2 the counter of an
    unclassed request never wraps there: a request waits behind at most
    the N-1 other agents' requests, each served once before it (a later
    request is younger), so its counter stays at most N-1, and
    ``2**k > N-1``.
    """

    __slots__ = ("strategy", "modulus", "clock", "stamp", "last_pulse")

    def __init__(self, num_agents: int, strategy: int) -> None:
        super().__init__(num_agents)
        self.strategy = strategy
        self.modulus = 1 << self.bits
        self.clock = 0
        self.stamp = [0] * (num_agents + 1)
        self.last_pulse = -_INF

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
        self.stamp[agent_id] = self.clock

    @property
    def counter(self) -> List[int]:
        """Every agent's waiting counter, unwrapped; read it for the
        agents with a pending request."""
        clock = self.clock
        return [clock - stamp for stamp in self.stamp]

    def arbitrate(self) -> Tuple[int, int, int]:
        pending = self.pending
        winner = self._scan(pending)
        self._age_losers(winner)
        return winner, 1, pending

    def arbitrate_classed(self) -> Tuple[int, int, int]:
        """:meth:`arbitrate` with the priority bit prepended."""
        pending = self.pending
        winner = self._scan((self.urgent & pending) or pending)
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
        clock steps, and the winner's stamp with it)."""
        if self.strategy == 1:
            self.clock += 1
            self.stamp[winner] += 1


class _FcfsGroupKernel(_FcfsKernel):
    """FCFS on a fault-free lane: the winner comes from the oldest group.

    Requests that share a stamp share a counter, so they form an
    arrival group, and groups are created in stamp order.  While no
    counter has wrapped, the wired-OR maximum is the highest id of the
    oldest group, or of the oldest group holding an urgent request when
    one is pending.  ``groups`` maps each live stamp to the bitmask of
    its requesters and ``order`` holds the live stamps oldest first.  A
    request joins the group of the current clock; a pass takes its
    winner out of its group and drops the group once it is empty.  That
    is exact because a fault-free lane grants every pass's winner before
    the next pass.

    An urgent request waits only behind older urgent requests, so the
    bound of :class:`_FcfsKernel` holds for it and the urgent pick never
    wraps.  A normal request can wrap: urgent traffic can hold it back
    for ``2**k`` passes or more (``OVERFLOW`` ages it all the while).  A
    class-blind pass whose oldest group is that old falls back to the
    scan.
    """

    __slots__ = ("groups", "order")

    def __init__(self, num_agents: int, strategy: int) -> None:
        super().__init__(num_agents, strategy)
        self.groups: Dict[int, int] = {}
        self.order: Deque[int] = deque()

    def request(self, agent_id: int, now: float, urgent: bool = False) -> None:
        # The base request inlined, plus the group join: one call per
        # completion on the lane's hot path.
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
        stamp = self.stamp[agent_id] = self.clock
        group = self.groups.get(stamp)
        if group is None:
            self.groups[stamp] = bit
            self.order.append(stamp)
        else:
            self.groups[stamp] = group | bit

    def arbitrate(self) -> Tuple[int, int, int]:
        # The lane's hot path, with _leave and _age_losers inlined.
        pending = self.pending
        order = self.order
        oldest = order[0]
        clock = self.clock
        if clock - oldest < self.modulus:
            # The oldest group's highest id wins.
            groups = self.groups
            group = groups[oldest]
            winner = group.bit_length() - 1
            group ^= 1 << winner
            if group:
                groups[oldest] = group
            else:
                del groups[oldest]
                order.popleft()
        else:
            winner = self._scan(pending)
            self._leave(winner)
        if self.strategy == 1:
            self.clock = clock + 1
            self.stamp[winner] += 1
        return winner, 1, pending

    def arbitrate_classed(self) -> Tuple[int, int, int]:
        """:meth:`arbitrate` with the priority bit prepended."""
        pending = self.pending
        urgent = self.urgent & pending
        if not urgent:
            return self.arbitrate()
        groups = self.groups
        for stamp in self.order:
            group = groups[stamp] & urgent
            if group:
                break
        winner = group.bit_length() - 1
        self._leave(winner)
        self._age_losers(winner)
        return winner, 1, pending

    def _leave(self, agent: int) -> None:
        """Take ``agent`` out of its group, dropping the group once empty."""
        stamp = self.stamp[agent]
        group = self.groups[stamp] ^ (1 << agent)
        if group:
            self.groups[stamp] = group
            return
        del self.groups[stamp]
        if self.order[0] == stamp:
            self.order.popleft()
        else:
            self.order.remove(stamp)


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
        """Overwrite the agent's pending counter with ``value``.

        Returns ``False``, changing nothing, when the agent has no
        pending request (the upset hit an idle register).
        """
        if not self.pending >> agent_id & 1:
            return False
        self.stamp[agent_id] = self.clock - value % self.modulus
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
#: :data:`_KERNELS`' entry: every pass of such a lane is granted.
_FAULT_FREE_KERNELS = {
    "fcfs": lambda n: _FcfsGroupKernel(n, 1),
    "fcfs-aincr": lambda n: _FcfsGroupKernel(n, 2),
}

#: Kernel implementation family of each batch protocol; the planner
#: counts one batch group per family in a lane pack.
_KERNEL_FAMILY = {
    "rr": "rr",
    "rr-impl2": "rr",
    "rr-impl3": "rr",
    "fcfs": "fcfs",
    "fcfs-aincr": "fcfs",
    "fixed": "fixed",
    "rr-faulty-register": "rr",
    "fcfs-glitchable": "fcfs",
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


def kernel_family(protocol: str) -> str:
    """Kernel family a batch protocol's lanes are grouped under."""
    return _KERNEL_FAMILY[protocol]


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
    restriction (empty when capable).  Callers that want transparent
    behaviour fall back to the event-driven engine when not capable.

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
    """Think-time source of an agent that draws a class per request.

    Stands in for the agent's think buffer.  ``BusAgent`` draws such an
    agent's think times one at a time with ``sample``, because the class
    draw at each issue sits between two think draws on its stream.
    ``pop`` does the same.  The object is always truthy, so the lane's
    buffer refill never runs for it.
    """

    __slots__ = ("dist", "rng")

    def __init__(self, dist, rng) -> None:
        self.dist = dist
        self.rng = rng

    def pop(self) -> float:
        return self.dist.sample(self.rng)


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
    """

    __slots__ = (
        "scenario",
        "protocol",
        "settings",
        "num_agents",
        "kernel",
        "collector",
        "sinks",
        "memory",
        "jsonl",
        "metrics",
        "flow_metrics",
        "txn",
        "arbt",
        "rngs",
        "dists",
        "buffers",
        "fractions",
        "now",
        "t_rel",
        "t_arb",
        "t_kick",
        "t_retry",
        "t_fault",
        "req_heap",
        "seq",
        "arb_winner",
        "busy",
        "pending_winner",
        "master",
        "master_issue",
        "master_grant",
        "busy_time",
        "transactions",
        "arb_index",
        "active",
        "woke",
        "injector",
        "watchdog",
        "fault_actions",
        "fault_idx",
    )

    def __init__(
        self,
        scenario: ScenarioSpec,
        protocol: str,
        settings: "SimulationSettings",
    ) -> None:
        self.scenario = scenario
        self.protocol = protocol
        self.settings = settings
        num_agents = scenario.num_agents
        self.num_agents = num_agents
        self.collector = CompletionCollector(
            batches=settings.batches,
            batch_size=settings.batch_size,
            warmup=settings.warmup,
            keep_samples=settings.keep_samples,
            keep_order=settings.keep_order,
            keep_records=settings.keep_records,
        )
        self.memory = None
        self.jsonl = None
        self.metrics = None
        sinks: list = []
        telemetry = settings.telemetry
        if telemetry is not None:
            if telemetry.events:
                self.memory = InMemorySink()
                sinks.append(self.memory)
            if telemetry.jsonl_path is not None:
                self.jsonl = JsonlSink(telemetry.jsonl_path)
                sinks.append(self.jsonl)
            if telemetry.metrics:
                self.metrics = MetricsRegistry()
                sinks.append(MetricsSink(self.metrics))
        self.sinks = tuple(sinks)
        # The event engine's per-flow series, emitted only for scenarios
        # with open-loop agents or a priority class (BusSystem._flow_metrics).
        self.flow_metrics = self.metrics is not None and any(
            spec.open_loop or spec.priority_fraction > 0.0 for spec in scenario.agents
        )
        self.txn = settings.timing.transaction_time
        self.arbt = settings.timing.arbitration_time

        # Fault wiring, mirroring run_simulation's event path: a
        # non-empty plan implies a watchdog (settings.watchdog overrides
        # its policy); a policy alone still attaches one.
        plan = settings.fault_plan
        injector: Optional[FaultInjector] = None
        watchdog: Optional[BusWatchdog] = None
        if plan is not None and len(plan):
            injector = FaultInjector(plan)
            watchdog = BusWatchdog(settings.watchdog)
        elif settings.watchdog is not None:
            watchdog = BusWatchdog(settings.watchdog)
        if watchdog is not None:
            watchdog.bind(self.collector)
        self.injector = injector
        self.watchdog = watchdog
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
            for fevent in plan.events:
                if fevent.kind in _POINT_FAULTS:
                    actions.append((max(0.0, fevent.time), fevent.kind, fevent))
                if fevent.kind is FaultKind.AGENT_DROPOUT:
                    actions.append((max(0.0, fevent.end_time), None, fevent))
            actions.sort(key=lambda entry: entry[0])
        self.fault_actions = actions
        self.fault_idx = 0
        self.t_fault = actions[0][0] if actions else _INF
        self.t_retry = _INF

        streams = RandomStreams(settings.seed)
        self.rngs = [None] * (num_agents + 1)
        self.dists = [None] * (num_agents + 1)
        self.buffers: list = [[] for _ in range(num_agents + 1)]
        # Request-class probability per agent; 0.0 for unclassed agents.
        self.fractions = [0.0] * (num_agents + 1)
        self.active = [True] * (num_agents + 1)
        self.woke = [False] * (num_agents + 1)
        self.seq = 0
        heap: list = []
        # Start every agent with one think period, in declaration order —
        # the same order BusSystem.run() starts them, so the streams and
        # the request-timer tie-break sequence numbers line up.
        for spec in scenario.agents:
            agent = spec.agent_id
            rng = streams.agent_stream(agent)
            self.rngs[agent] = rng
            self.dists[agent] = spec.interrequest
            if spec.priority_fraction > 0.0:
                # A classed agent's class draw falls between two think
                # draws on its stream, so it draws them one at a time.
                self.fractions[agent] = spec.priority_fraction
                buffer = self.buffers[agent] = _ThinkEach(spec.interrequest, rng)
            else:
                buffer = self.buffers[agent]
                buffer.extend(spec.interrequest.sample_batch(rng, _THINK_BLOCK))
                buffer.reverse()
            t_first = 0.0 + buffer.pop()
            self.seq += 1
            heap.append((t_first, self.seq, agent))
        heapify(heap)
        self.req_heap = heap

        self.now = 0.0
        self.t_rel = _INF
        self.t_arb = _INF
        self.t_kick = _INF
        self.arb_winner = 0
        self.busy = False
        self.pending_winner: Optional[int] = None
        self.master = 0
        self.master_issue = 0.0
        self.master_grant = 0.0
        self.busy_time = 0.0
        self.transactions = 0
        self.arb_index = 0

    def advance(self, completions: int) -> bool:
        """Advance until ``completions`` more completions are recorded.

        Returns ``False`` once the lane is finished — the collector is
        satisfied, or the watchdog declared a permanent failure — and
        ``True`` while more work remains.

        The loop body keeps the whole machine state in locals (written
        back at every exit) and inlines the grant/kick handlers: this
        is the sweep bottleneck, and attribute traffic dominates once
        event objects are gone.
        """
        collector = self.collector
        record_completion = collector.record_completion
        needed = collector.needed
        warmup_n = collector.warmup
        batch_size_n = collector.batch_size
        agent_totals = collector.agent_totals
        # The flag-free accumulation path is inlined in the RELEASE
        # branch; anything that retains per-completion artefacts goes
        # through the reference implementation.
        fast_record = not (collector.keep_order or collector.keep_records)
        kernel = self.kernel
        # A lane picks its path once: only a lane with classed agents
        # draws request classes and arbitrates on the class bit.
        classed = any(self.fractions)
        if classed:
            kernel_request = self._classed_request
            kernel_arbitrate = kernel.arbitrate_classed
        else:
            kernel_request = kernel.request
            kernel_arbitrate = kernel.arbitrate
        # Every kernel's grant body is `pending &= ~bit; return issue`,
        # and the RR/fixed request body of a class-free lane is
        # `pending |= bit; issue = now` (FCFS adds stamp and group
        # bookkeeping) — both are inlined below; the method calls are
        # measurable at two calls per completion.
        kernel_issue = kernel.issue
        simple_request = not (classed or isinstance(kernel, _FcfsKernel))
        req_heap = self.req_heap
        buffers = self.buffers
        dists = self.dists
        rngs = self.rngs
        metrics = self.metrics
        flow_metrics = self.flow_metrics
        sinks = self.sinks
        txn = self.txn
        arbt = self.arbt
        num_agents = self.num_agents
        active = self.active
        woke = self.woke
        injector = self.injector
        watchdog = self.watchdog
        faulty = injector is not None or watchdog is not None
        # A synchronous bus samples the arbitration-start signal at the
        # next clock edge, so its kicks are scheduled, never fused.
        timing = self.settings.timing
        clocked = timing.synchronous
        edge = timing.delay_to_next_edge
        fuse = not (faulty or clocked)
        fault_actions = self.fault_actions
        fault_count = len(fault_actions)

        t_rel = self.t_rel
        t_arb = self.t_arb
        t_kick = self.t_kick
        t_retry = self.t_retry
        t_fault = self.t_fault
        fault_idx = self.fault_idx
        seq = self.seq
        arb_winner = self.arb_winner
        busy = self.busy
        pending_winner = self.pending_winner
        master = self.master
        master_issue = self.master_issue
        master_grant = self.master_grant
        busy_time = self.busy_time
        transactions = self.transactions
        arb_index = self.arb_index
        now = self.now
        recorded = 0
        # Earliest request timer, insertion order breaking time ties.
        # The heap peek is cached across iterations and only refreshed
        # at the points that can move it: a pop (re-peek) or a
        # push of an earlier timer (equal times keep the cached head —
        # pushes carry ever-larger sequence numbers, and smaller seq
        # wins the tie).
        tr = _INF
        ra = 0
        if req_heap:
            head = req_heap[0]
            tr = head[0]
            ra = head[2]
        kick_now = False
        fast_absorb = not faulty
        while True:
            if fast_absorb and pending_winner is not None:
                # The next master is already latched, so until the
                # release fires nothing can schedule an arbitration,
                # kick or retry — the only dispatchable events are
                # request expiries, and their handler (sans the
                # suppressed kick guard) can absorb them without a full
                # dispatch round.  Strictly earlier only: a request at
                # exactly t_rel fires after the release, as in the
                # calendar's priority order.  Fault-free lanes only, so
                # no agent is ever dropped out here.
                while tr < t_rel:
                    fire = tr
                    agent = ra
                    heappop(req_heap)
                    if req_heap:
                        head = req_heap[0]
                        tr = head[0]
                        ra = head[2]
                    else:
                        tr = _INF
                        ra = 0
                    if simple_request:
                        kernel.pending |= 1 << agent
                        kernel_issue[agent] = fire
                    else:
                        kernel_request(agent, fire)
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
                self.busy_time = busy_time
                self.transactions = transactions
                self.fault_idx = fault_idx
                self.now = now
                self._close_sinks()
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
                transactions += 1
                if fast_record:
                    # Inline of CompletionCollector.record_completion's
                    # flag-free path — that method is the reference
                    # implementation, and the cross-engine differential
                    # suite pins this copy to it.  The call (plus its
                    # self-attribute traffic) is the single largest
                    # per-completion cost once dispatch is lean.
                    index = collector.total_recorded
                    collector.total_recorded = index + 1
                    if index < warmup_n:
                        collector._last_boundary_time = now
                    elif index < needed:
                        batch = collector._current
                        if batch is None or batch.count == batch_size_n:
                            collector._open_batch(
                                (index - warmup_n) // batch_size_n
                            )
                            batch = collector._current
                        waiting = now - issue
                        batch.count += 1
                        batch.sum_waiting += waiting
                        batch.sum_waiting_sq += waiting * waiting
                        batch.sum_queueing += master_grant - issue
                        counts = batch.agent_counts
                        counts[agent] = counts.get(agent, 0) + 1
                        agent_totals[agent] = agent_totals.get(agent, 0) + 1
                        if batch.samples is not None:
                            batch.samples.append(waiting)
                        batch.end_time = now
                        if batch.count == batch_size_n:
                            collector._last_boundary_time = now
                else:
                    # The master's class bit is intact until its release.
                    record_completion(
                        agent, issue, master_grant, now, bool(kernel.urgent >> agent & 1)
                    )
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
                    buffer.extend(dists[agent].sample_batch(rngs[agent], _THINK_BLOCK))
                    buffer.reverse()
                t_next = now + buffer.pop()
                seq += 1
                heappush(req_heap, (t_next, seq, agent))
                if t_next < tr:
                    tr = t_next
                    ra = agent
                recorded += 1
                if collector.total_recorded >= needed:  # inlined satisfied()
                    # The event engine's post-event effects (inline grant
                    # of a pending winner, a same-instant kick) never run
                    # another event after the stop rule fires, so they
                    # are unobservable; the run ends here.
                    self.busy_time = busy_time
                    self.transactions = transactions
                    self.seq = seq
                    self.arb_index = arb_index
                    self.fault_idx = fault_idx
                    self.now = now
                    self._close_sinks()
                    return False
                if pending_winner is not None:
                    # inline grant of the already-arbitrated next master
                    kernel.pending &= ~(1 << pending_winner)
                    master_issue = kernel_issue[pending_winner]
                    if watchdog is not None:
                        watchdog.on_clean_grant(now)
                    busy = True
                    master = pending_winner
                    pending_winner = None
                    master_grant = now
                    t_rel = now + txn
                    if t_kick == _INF and t_arb == _INF and t_retry == _INF:
                        if fuse and tr > now:
                            kick_now = True
                        else:
                            t_kick = now + edge(now)
                elif t_kick == _INF and t_arb == _INF and t_retry == _INF:
                    if fuse and tr > now:
                        kick_now = True
                    else:
                        t_kick = now + edge(now)
            elif t_arb == tmin:  # ARBITRATION-COMPLETE or GRANT on an edge
                # Always an idle bus (see the class docstring): hand
                # over now, which is the next edge if clocked.
                t_arb = _INF
                kernel.pending &= ~(1 << arb_winner)
                master_issue = kernel_issue[arb_winner]
                if watchdog is not None:
                    watchdog.on_clean_grant(now)
                busy = True
                master = arb_winner
                master_grant = now
                t_rel = now + txn
                if t_kick == _INF and t_retry == _INF:
                    if fuse and tr > now:
                        kick_now = True
                    else:
                        t_kick = now + edge(now)
            elif tr == tmin:  # REQUEST — an agent's think timer expires
                agent = ra
                heappop(req_heap)
                if req_heap:
                    head = req_heap[0]
                    tr = head[0]
                    ra = head[2]
                else:
                    tr = _INF
                    ra = 0
                if active[agent]:
                    if simple_request:
                        kernel.pending |= 1 << agent
                        kernel_issue[agent] = now
                    else:
                        kernel_request(agent, now)
                    if (
                        t_kick == _INF
                        and t_arb == _INF
                        and t_retry == _INF
                        and pending_winner is None
                    ):
                        if fuse and tr > now:
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
                if t_arb == _INF and pending_winner is None and kernel.pending:
                    if injector is None or not (
                        watchdog.attempts or injector.line_fault_due(now)
                    ):
                        # A clean pass: perturb would hand the outcome
                        # back untouched, and with no open recovery
                        # episode the event carries no attempt count,
                        # so the key-free pass below is exact.
                        kick_now = True
                    else:
                        # Fault-domain pass: a line fault is due or a
                        # recovery episode is open.  Expose the applied
                        # keys, perturb them, and route anomalies through
                        # the watchdog — mirroring _maybe_start_arbitration.
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
                                # failure ends the lane, as run()'s stop
                                # rule would at the same instant.
                                self.busy_time = busy_time
                                self.transactions = transactions
                                self.seq = seq
                                self.arb_index = arb_index
                                self.fault_idx = fault_idx
                                self.now = now
                                self._close_sinks()
                                return False
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
                present = on_bus and rngs[aid] is not None
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
                            buffer.extend(
                                dists[aid].sample_batch(rngs[aid], _THINK_BLOCK)
                            )
                            buffer.reverse()
                        t_next = now + buffer.pop()
                        seq += 1
                        heappush(req_heap, (t_next, seq, aid))
                        if t_next < tr:
                            tr = t_next
                            ra = aid
            if kick_now:
                # A key-free arbitration pass at ``now``.  Either a kick
                # or retry handler above found the pass clean, or a
                # handler scheduled a kick "for now" and proved no other
                # event shares the timestamp (the earliest request timer
                # is strictly later, every other timer infinite), so the
                # kick's competitor snapshot is already final — run it
                # in this dispatch round instead of paying another.
                # Fault-domain runs never fuse, since their kick must
                # first check for a due line fault, and neither do
                # synchronous runs, whose kick waits for a clock edge.
                kick_now = False
                if kernel.pending:
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
            if recorded >= completions:
                break

        self.t_rel = t_rel
        self.t_arb = t_arb
        self.t_kick = t_kick
        self.t_retry = t_retry
        self.t_fault = t_fault
        self.fault_idx = fault_idx
        self.seq = seq
        self.arb_winner = arb_winner
        self.busy = busy
        self.pending_winner = pending_winner
        self.master = master
        self.master_issue = master_issue
        self.master_grant = master_grant
        self.busy_time = busy_time
        self.transactions = transactions
        self.arb_index = arb_index
        self.now = now
        return True

    def _classed_request(self, agent: int, now: float) -> None:
        """Issue a request with its class drawn as ``BusAgent`` does.

        One uniform per request of a classed agent, even at fraction
        1.0; an unclassed agent draws nothing.
        """
        fraction = self.fractions[agent]
        self.kernel.request(
            agent, now, fraction > 0.0 and self.rngs[agent].random() < fraction
        )

    def _close_sinks(self) -> None:
        if self.jsonl is not None:
            self.jsonl.close()
            self.jsonl = None

    def result(self) -> RunResult:
        utilization = self.busy_time / self.now if self.now > 0.0 else 0.0
        return RunResult(
            scenario=self.scenario,
            protocol=self.protocol,
            collector=self.collector,
            utilization=utilization,
            elapsed=self.now,
            seed=self.settings.seed,
            confidence=self.settings.confidence,
            failed=self.watchdog.gave_up if self.watchdog is not None else False,
            events=self.memory.events if self.memory is not None else None,
            metrics=self.metrics,
        )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _fresh_scenario(scenario: ScenarioSpec) -> ScenarioSpec:
    """A scenario safe to hand one lane exclusive use of.

    Renewal distributions are stateless (sampling is a pure function of
    the rng), so the shared object is already safe; only scenarios
    carrying stateful distributions — trace-replay cursors, MMPP
    phases — need a private deep copy, and the copy is expensive enough
    to matter at lane-pack setup.
    """
    if any(agent.interrequest.stateful for agent in scenario.agents):
        return copy.deepcopy(scenario)
    return scenario


def run_simulation_batch(
    scenario: ScenarioSpec,
    protocol: str,
    settings: "SimulationSettings",
) -> RunResult:
    """Run one (scenario, protocol) cell on the batch engine.

    Raises :class:`~repro.errors.ConfigurationError` when the cell is
    outside the batch domain; use :func:`batch_capable` first (or go
    through :func:`repro.experiments.runner.run_simulation`, which falls
    back to the event engine transparently).
    """
    return run_lanes([(scenario, protocol, settings)])[0]


def run_lanes(
    cells: Sequence[Tuple[ScenarioSpec, str, "SimulationSettings"]],
) -> List[RunResult]:
    """Run heterogeneous cells as lanes of the batch engine.

    ``cells`` may mix agent counts, loads, seeds, protocols and fault
    plans freely — every cell just has to be :func:`batch_capable` on
    its own; all are checked before any runs.  Each lane is built, run
    to completion and dropped before the next is built, so peak memory
    is one lane's RNGs and think buffers.  A lane deep-copies its
    scenario only when it carries stateful (trace-replay, MMPP)
    distributions, which must not be shared between lanes built from
    one scenario object.

    Results are returned in ``cells`` order and are identical to
    independent :func:`run_simulation` calls — the order cells are
    handed in cannot influence any observable (each lane owns all of
    its state; nothing is shared).
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
    results = []
    for scenario, protocol, settings in cells:
        lane = _Replication(_fresh_scenario(scenario), protocol, settings)
        try:
            while lane.advance(_ADVANCE_BLOCK):
                pass
        finally:
            lane._close_sinks()
        results.append(lane.result())
    return results


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
