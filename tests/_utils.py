"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import Arbiter
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.workload.scenarios import ScenarioSpec


def quick_settings(**overrides) -> SimulationSettings:
    """Small-but-meaningful run lengths for integration tests."""
    defaults = dict(batches=4, batch_size=400, warmup=100, seed=20260705)
    defaults.update(overrides)
    return SimulationSettings(**defaults)


def grant_sequence(
    scenario: ScenarioSpec,
    protocol: str,
    completions: int = 600,
    seed: int = 1,
) -> List[int]:
    """The exact order in which agents are served, from the first grant."""
    settings = SimulationSettings(
        batches=2,
        batch_size=completions // 2,
        warmup=0,
        seed=seed,
        keep_order=True,
    )
    result = run_simulation(scenario, protocol, settings)
    return result.collector.completion_order[:completions]


def completion_records(
    scenario: ScenarioSpec,
    protocol: str,
    completions: int = 600,
    seed: int = 1,
):
    """Full completion records, in service order."""
    from repro.bus.model import BusSystem
    from repro.experiments.runner import make_arbiter
    from repro.stats.collector import CompletionCollector

    collector = CompletionCollector(
        batches=2, batch_size=completions // 2, warmup=0, keep_records=True
    )
    capacity = max(spec.max_outstanding for spec in scenario.agents)
    system = BusSystem(
        scenario,
        make_arbiter(protocol, scenario.num_agents, capacity),
        collector,
        seed=seed,
    )
    system.run()
    return collector.records[:completions]


def drive_arbiter(
    arbiter: Arbiter,
    arrivals: Sequence[Tuple[float, int]],
    priorities: Optional[Dict[int, bool]] = None,
) -> List[int]:
    """Serve a fixed request script through an arbiter, logically.

    ``arrivals`` is a list of (time, agent_id) pairs, time-sorted; each
    agent appears while it has no pending request.  Service is immediate:
    one request is granted per arbitration, service takes one time unit,
    and arbitrations happen back to back starting at the latest arrival
    seen so far.  Returns the order in which agents are served.
    """
    priorities = priorities or {}
    pending = sorted(arrivals)
    served: List[int] = []
    now = 0.0
    index = 0
    while index < len(pending) or arbiter.has_waiting():
        while index < len(pending) and pending[index][0] <= now:
            time, agent = pending[index]
            arbiter.request(agent, time, priority=priorities.get(agent, False))
            index += 1
        if not arbiter.has_waiting():
            now = pending[index][0]
            continue
        outcome = arbiter.start_arbitration(now)
        arbiter.grant(outcome.winner, now)
        served.append(outcome.winner)
        now += 1.0
        arbiter.release(outcome.winner, now)
    return served


def run_results(session, requests) -> list:
    """The results of one ``run_requests`` batch, in request order."""
    return [outcome.result for outcome in session.run_requests(requests)]
