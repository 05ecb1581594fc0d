"""The bus system: wires agents, an arbiter and the timing rules together.

Timing rules (§4.1 of the paper):

- one bus; one master at a time; a tenure lasts ``transaction_time``;
- an arbitration pass lasts ``arbitration_time`` per round and runs
  *concurrently* with the current tenure: it starts as soon as there is at
  least one eligible request and neither an arbitration nor an unclaimed
  arbitration result is outstanding — i.e. at the start of every tenure
  when requests are waiting (the paper's rule), and immediately on arrival
  when a request finds the bus without a pending arbitration;
- when an arbitration completes while the bus is busy, its winner takes
  over at the end of the tenure with zero gap (fully overlapped overhead);
  when it completes on an idle bus, the winner is granted immediately;
- the *next* arbitration begins only when the winner's tenure begins:
  arbitration results are not pipelined more than one ahead.

The event ordering at a tenure boundary is: release, grant, arbitration
start, new requests — encoded in :class:`~repro.engine.simulator.
EventPriority` so simultaneous events resolve the way the hardware would.

The bus and its agents schedule through
:meth:`~repro.engine.simulator.Simulator.post`, the one way onto the
simulator's calendar: a bare ``(time, priority, sequence, action)`` heap
entry at the clock plus a delay, with no event object, label or closure.
The actions are bound methods: at most one arbitration settles at a time
and at most one granted winner waits for its clock edge, so the winner
each one needs lives on the bus (``_settling_winner``,
``_pending_winner``).  A fault injector posts its point faults on the
same calendar.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bus.agent import BusAgent, first_think_blocks
from repro.bus.timing import BusTiming
from repro.bus.watchdog import BusWatchdog
from repro.core.base import Arbiter, Request
from repro.engine.rng import RandomStreams
from repro.engine.simulator import EventPriority, Simulator
from repro.errors import NoUniqueWinnerError, SimulationError
from repro.faults.injector import FaultInjector
from repro.observability.events import ArbitrationEvent
from repro.observability.metrics import WAIT_BUCKETS, MetricsRegistry, MetricsSink
from repro.observability.sinks import EventSink
from repro.stats.collector import CompletionCollector
from repro.workload.scenarios import ScenarioSpec

__all__ = ["BusSystem"]

# The bus's event priorities as plain ints, the form a heap entry holds.
_RELEASE = int(EventPriority.RELEASE)
_GRANT = int(EventPriority.GRANT)
_ARBITRATION = int(EventPriority.ARBITRATION)
_REQUEST = int(EventPriority.REQUEST)
_ARB_KICK = int(EventPriority.ARB_KICK)


class BusSystem:
    """One shared bus, its arbiter, and a population of agents.

    Parameters
    ----------
    scenario:
        The agent population (workloads, loop modes).
    arbiter:
        The arbitration protocol; must be sized for ``scenario.num_agents``.
    collector:
        Sink for completion records; also provides the run's stop rule.
    timing:
        Bus timing constants.
    seed:
        Master seed for the per-agent random streams.
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; its
        plan's point faults are scheduled on this system's calendar and
        its line faults perturb every arbitration outcome.
    watchdog:
        Optional :class:`~repro.bus.watchdog.BusWatchdog`; recovers
        anomalous arbitrations by bounded re-arbitration.  Without one,
        an anomaly raises :class:`~repro.errors.NoUniqueWinnerError`.
    sink:
        Optional :class:`~repro.observability.sinks.EventSink`; every
        arbitration pass (clean or anomalous) is emitted to it as a
        structured :class:`~repro.observability.events.
        ArbitrationEvent`.  ``None`` (the default) skips event
        construction entirely.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`;
        arbitration-level series are fed from the event stream and
        per-agent waiting times are observed at each transaction end.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        arbiter: Arbiter,
        collector: CompletionCollector,
        timing: Optional[BusTiming] = None,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
        watchdog: Optional[BusWatchdog] = None,
        sink: Optional[EventSink] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if arbiter.num_agents < scenario.num_agents:
            raise SimulationError(
                f"arbiter sized for {arbiter.num_agents} agents cannot serve "
                f"scenario with {scenario.num_agents}"
            )
        self.scenario = scenario
        self.arbiter = arbiter
        self.collector = collector
        # Built per call: a signature-level BusTiming() default would be a
        # single module-level instance shared across every BusSystem.
        self.timing = timing if timing is not None else BusTiming()
        self.simulator = Simulator()
        #: The one way the bus and its agents schedule: a bare action at
        #: an absolute time (the clock plus a non-negative delay).
        self._post = self.simulator.post
        #: The clock period when arbitration control is clock-aligned;
        #: 0.0 on a self-timed bus, which then never asks for the edge.
        self._clock_period = self.timing.clock_period
        self.streams = RandomStreams(seed)

        self.agents: Dict[int, BusAgent] = {}
        blocks = first_think_blocks(scenario.agents)
        for spec in scenario.agents:
            agent = BusAgent(
                spec,
                rng=self.streams.agent_stream(spec.agent_id),
                issue=self._on_request,
                schedule=self._schedule_agent_action,
                think_block=blocks[spec.agent_id],
            )
            self.agents[spec.agent_id] = agent

        self.injector = injector
        self.watchdog = watchdog
        if watchdog is not None:
            watchdog.bind(collector)
        if injector is not None:
            injector.attach(self)

        self.sink = sink
        self.metrics = metrics
        #: Per-class/per-flow series are only emitted for the scenario
        #: families that have flows to distinguish (open-loop arrivals or
        #: a priority class), so every pre-existing closed-loop run's
        #: registry — and the goldens pinning it — stays byte-identical.
        self._flow_metrics = metrics is not None and any(
            spec.open_loop or spec.priority_fraction > 0.0
            for spec in scenario.agents
        )
        targets = []
        if sink is not None:
            targets.append(sink)
        if metrics is not None:
            targets.append(MetricsSink(metrics))
        #: Emission fan-out; empty means telemetry is fully disabled and
        #: the hot path pays one truthiness check per arbitration.
        self._event_sinks = tuple(targets)
        self._arb_index = 0

        self._busy = False
        self._master: Optional[int] = None
        self._master_request: Optional[Request] = None
        self._master_grant_time = 0.0
        self._arbitration_running = False
        self._arb_kick_scheduled = False
        #: The winner of the arbitration now settling (valid while
        #: ``_arbitration_running``).
        self._settling_winner = 0
        self._retry_pending = False
        self._pending_winner: Optional[int] = None
        #: Time-weighted accounting for bus utilisation.
        self.busy_time = 0.0
        self.transactions = 0

    # -- agent-facing plumbing ----------------------------------------------

    def _schedule_agent_action(self, delay, action) -> None:
        self._post(self.simulator.now + delay, _REQUEST, action)

    def _on_request(self, agent_id: int, priority: bool) -> None:
        self.arbiter.request(agent_id, self.simulator.now, priority=priority)
        self._schedule_arb_kick()

    # -- arbitration / grant / release cycle ---------------------------------

    def _schedule_arb_kick(self) -> None:
        """Defer the arbitration start to the end of the current instant.

        Every trigger (request arrival, grant) schedules a zero-delay
        ``ARB_KICK`` event instead of starting the arbitration inline, so
        all requests issued at the same simulated instant are on the
        request line before the competitor snapshot is taken — exactly
        what the electrically-shared line does, and essential for the
        deterministic workloads of Table 4.5 where simultaneous requests
        are the norm rather than a measure-zero coincidence.
        """
        if (
            self._arb_kick_scheduled
            or self._arbitration_running
            or self._retry_pending
            or self._pending_winner is not None
        ):
            return
        self._arb_kick_scheduled = True
        # On a synchronous bus the arbitration-start control signal is
        # sampled at the next clock edge (§2.1); self-timed buses start
        # at the end of the current instant.
        time = self.simulator.now
        if self._clock_period:
            time += self.timing.delay_to_next_edge(time)
        self._post(time, _ARB_KICK, self._arb_kick)

    def _arb_kick(self) -> None:
        self._arb_kick_scheduled = False
        self._maybe_start_arbitration()

    def _maybe_start_arbitration(self) -> None:
        """Start an arbitration if one can usefully run now.

        Blocked while an arbitration is settling or an unclaimed winner
        exists (the hardware decides one master ahead, no further).
        """
        if (
            self._arbitration_running
            or self._retry_pending
            or self._pending_winner is not None
        ):
            return
        if not self.arbiter.has_waiting():
            return
        try:
            outcome = self.arbiter.start_arbitration(self.simulator.now)
        except NoUniqueWinnerError:
            # The protocol itself detected the collision (rotating-rr
            # with desynchronised replicas, a wired-OR duplicate).  One
            # settle period was burned finding out.  The competitor
            # snapshot was never returned; the waiting set is the best
            # observable approximation of what was on the lines.
            if self.watchdog is None:
                raise
            waiting = getattr(self.arbiter, "waiting_agents", None)
            self._on_arbitration_anomaly(
                "duplicate-winner",
                self.timing.arbitration_time,
                competitors=waiting() if waiting is not None else (),
            )
            return
        settle = self.timing.arbitration_time * outcome.rounds
        winner = outcome.winner
        deviated = False
        if self.injector is not None:
            perturbed = self.injector.perturb(outcome, self.simulator.now)
            if perturbed.anomaly is not None:
                if self.watchdog is None:
                    raise NoUniqueWinnerError(
                        f"line faults left the arbitration with "
                        f"{perturbed.anomaly} and no watchdog is attached"
                    )
                self._on_arbitration_anomaly(
                    perturbed.anomaly,
                    settle,
                    competitors=outcome.competitors,
                    rounds=outcome.rounds,
                )
                return
            if perturbed.deviated:
                deviated = True
                self.collector.record_deviation()
            winner = perturbed.winner
        if self._event_sinks:
            self._emit_arbitration(
                competitors=outcome.competitors,
                winner=winner,
                rounds=outcome.rounds,
                settle=settle,
                fault_tags=("deviated",) if deviated else (),
            )
        self._arbitration_running = True
        self._settling_winner = winner
        self._post(self.simulator.now + settle, _ARBITRATION, self._arbitration_complete)

    def _emit_arbitration(
        self,
        competitors,
        winner: Optional[int],
        rounds: int,
        settle: float,
        anomaly: Optional[str] = None,
        fault_tags=(),
    ) -> None:
        """Build one :class:`ArbitrationEvent` and fan it out.

        ``watchdog_attempt`` is the anomaly count of the *open* episode
        before this pass resolved, so it is nonzero exactly on the
        passes the watchdog scheduled as retries — the invariant the
        telemetry property tests assert.  Callers on the anomaly path
        must emit *before* handing the anomaly to the watchdog.
        """
        event = ArbitrationEvent(
            index=self._arb_index,
            time=self.simulator.now,
            competitors=tuple(sorted(competitors)),
            winner=winner,
            rounds=rounds,
            settle_time=settle,
            anomaly=anomaly,
            watchdog_attempt=(
                self.watchdog.attempts if self.watchdog is not None else 0
            ),
            fault_tags=tuple(fault_tags),
        )
        self._arb_index += 1
        for sink in self._event_sinks:
            sink.emit(event)

    def _on_arbitration_anomaly(
        self, kind: str, settle: float, competitors=(), rounds: int = 1
    ) -> None:
        """Hand an anomalous arbitration to the watchdog.

        The settle time was spent regardless; the retry (if the budget
        allows one) runs after the watchdog's backed-off delay on top.
        Pending requests are untouched — the agents keep their request
        lines asserted, exactly as the hardware would.
        """
        if self._event_sinks:
            self._emit_arbitration(
                competitors=competitors,
                winner=None,
                rounds=rounds,
                settle=settle,
                anomaly=kind,
            )
        delay = self.watchdog.on_anomaly(kind, self.simulator.now)
        if delay is not None:
            self._retry_pending = True
            self._post(
                self.simulator.now + (settle + delay), _ARB_KICK, self._watchdog_retry
            )
        else:
            # Retry budget exhausted: permanent failure.  No further
            # arbitration runs, and nothing is left of this event: the
            # simulation ends here.
            self.simulator.stop()

    def _watchdog_retry(self) -> None:
        self._retry_pending = False
        self._maybe_start_arbitration()

    def _arbitration_complete(self) -> None:
        self._arbitration_running = False
        winner = self._pending_winner = self._settling_winner
        if self._busy:
            return
        # Idle bus: hand over now (self-timed) or at the next clock edge
        # (synchronous).  Nothing else can seize the bus meanwhile — an
        # unclaimed winner blocks further arbitrations.
        if self._clock_period:
            now = self.simulator.now
            delay = self.timing.delay_to_next_edge(now)
            if delay != 0.0:
                self._post(now + delay, _GRANT, self._grant_on_edge)
                return
        self._grant(winner)

    def _grant_on_edge(self) -> None:
        self._grant(self._pending_winner)

    def _grant(self, agent_id: int) -> None:
        now = self.simulator.now
        if self._busy:
            raise SimulationError(f"granting agent {agent_id} while bus is busy")
        self._pending_winner = None
        request = self.arbiter.grant(agent_id, now)
        if self.watchdog is not None:
            self.watchdog.on_clean_grant(now)
        self._busy = True
        self._master = agent_id
        self._master_request = request
        self._master_grant_time = now
        self._post(now + self.timing.transaction_time, _RELEASE, self._transaction_end)
        # Arbitration for the next master starts at the beginning of this
        # tenure whenever requests are waiting (§4.1).
        self._schedule_arb_kick()

    def _transaction_end(self) -> None:
        now = self.simulator.now
        agent_id = self._master
        request = self._master_request
        if agent_id is None or request is None:
            raise SimulationError("transaction ended with no master")
        self._busy = False
        self._master = None
        self._master_request = None
        self.busy_time += self.timing.transaction_time
        self.transactions += 1
        self.arbiter.release(agent_id, now)
        self.collector.record_completion(
            agent_id, request.issue_time, self._master_grant_time, now, request.priority
        )
        if self.metrics is not None:
            self.metrics.counter("completions").increment()
            self.metrics.histogram(f"wait.agent.{agent_id}", WAIT_BUCKETS).observe(
                now - request.issue_time
            )
            if self._flow_metrics:
                label = "urgent" if request.priority else "normal"
                self.metrics.counter(
                    f"flow.share.agent.{agent_id}.{label}"
                ).increment()
                self.metrics.histogram(f"wait.class.{label}", WAIT_BUCKETS).observe(
                    now - request.issue_time
                )
        self.agents[agent_id].on_completion(now)
        if self._pending_winner is not None:
            self._grant(self._pending_winner)
        else:
            # Covers a request that arrived while the previous arbitration
            # was still settling past the tenure end (bus briefly idle).
            self._schedule_arb_kick()
        # A completion is the only event that can satisfy the collector,
        # so the stop rule is tested here, at the end of the event.
        if self.collector.satisfied():
            self.simulator.stop()

    # -- running --------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> None:
        """Start all agents and run until the collector has what it needs.

        With a watchdog attached, a permanent arbitration failure also
        ends the run — gracefully, with whatever statistics were
        gathered before the bus died (the robustness grid reports the
        failure itself, not a crash).
        """
        for agent in self.agents.values():
            agent.start()
        self.simulator.run(max_events=max_events)
        if not self.collector.satisfied() and not (
            self.watchdog is not None and self.watchdog.gave_up
        ):
            raise SimulationError(
                "simulation drained its event calendar before the collector "
                "was satisfied; the scenario generates too few requests"
            )
        self.collector.end_run()

    def utilization(self) -> float:
        """Fraction of elapsed time the bus spent transferring data."""
        if self.simulator.now <= 0.0:
            return 0.0
        return self.busy_time / self.simulator.now
