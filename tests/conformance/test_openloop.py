"""Conformance: the §3 protocols under open-loop arrival processes.

The closed-loop conformance suites pin the paper's scheduling claims
under think-time populations; this suite re-states them under the
arrival layer's open-loop workloads — free-running Poisson clocks and
on-off bursty (MMPP) sources — where the arrival epochs are independent
of service.  The claims have to be phrased carefully:

- RR implementations 1 and 2 have identical arbitration timing, so
  their winner sequences match *everywhere*, as does the central
  round-robin oracle (§1's identity claim).
- Implementation 3's occasional extra settling round shifts arbitration
  instants against the free-running arrival clock, so below saturation
  it may legitimately reorder near-simultaneous arrivals (the same
  caveat ``test_protocol_equivalence.py`` documents for low closed-loop
  load, and open-loop stability *requires* load < 1).  What survives at
  any load is the round-robin discipline itself: no agent is granted
  twice while a continuously-pending competitor goes unserved — checked
  here for all three implementations straight from the event stream.
- FCFS strategy 2 is exact FCFS: with multiple outstanding requests per
  agent (the §3.2 r > 1 extension, only reachable through open-loop
  sources) its grant stream has no issue-time inversions at all, and at
  r = 1 it matches the central FCFS oracle grant for grant.
- Determinism: an open-loop cell is a pure function of (scenario,
  protocol, settings) — serial sweep, 4-worker parallel sweep, and
  session-gathered runs all emit bit-identical telemetry.
"""

import pytest

from repro.experiments.runner import SimulationSettings, run_simulation
from repro.observability.events import TelemetrySettings
from repro.observability.metrics import merge_metrics
from repro.session import RunRequest, Session
from repro.workload.arrivals import bursty_equal_load
from repro.workload.scenarios import open_loop_equal_load

from _utils import completion_records, grant_sequence, run_results

SEEDS = [2, 11, 23, 47, 101]

#: The two open-loop arrival families under test: a free-running
#: Poisson clock and on-off bursty MMPP sources at the same long-run
#: load.  Fresh scenario per call — MMPP distributions carry phase
#: state, so sharing one spec across runs would couple them.
ARRIVALS = {
    "poisson": lambda: open_loop_equal_load(8, 0.9, max_outstanding=1),
    "bursty": lambda: bursty_equal_load(8, 0.9),
}


def clean_events(scenario, protocol, seed, completions=400):
    """One run's non-anomalous arbitration events, in emission order."""
    settings = SimulationSettings(
        batches=2,
        batch_size=completions // 2,
        warmup=0,
        seed=seed,
        telemetry=TelemetrySettings(events=True),
    )
    result = run_simulation(scenario, protocol, settings)
    assert result.events is not None
    return [event for event in result.events if event.anomaly is None]


def round_robin_violations(events):
    """Grants that skipped a continuously-pending competitor.

    Between two consecutive wins by agent *i*, every agent that was a
    competitor in every arbitration of the span must have won at least
    once — the defining round-robin property, independent of arrival
    timing.
    """
    violations = 0
    last_win = {}
    for index, event in enumerate(events):
        winner = event.winner
        if winner in last_win:
            start = last_win[winner]
            continuously = set(events[start + 1].competitors)
            for between in range(start + 1, index + 1):
                continuously &= set(events[between].competitors)
            continuously.discard(winner)
            served = {events[between].winner for between in range(start + 1, index)}
            if continuously - served:
                violations += 1
        last_win[winner] = index
    return violations


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
class TestRRUnderOpenLoopArrivals:
    def test_impl_1_and_2_winner_sequences_identical(self, arrival, seed):
        build = ARRIVALS[arrival]
        base = [event.winner for event in clean_events(build(), "rr", seed)]
        mirror = [event.winner for event in clean_events(build(), "rr-impl2", seed)]
        assert mirror == base, f"rr-impl2 diverged from rr at seed {seed}"

    def test_matches_central_round_robin_oracle(self, arrival, seed):
        build = ARRIVALS[arrival]
        base = [event.winner for event in clean_events(build(), "rr", seed)]
        oracle = [event.winner for event in clean_events(build(), "central-rr", seed)]
        assert base == oracle

    def test_all_implementations_keep_the_rr_discipline(self, arrival, seed):
        build = ARRIVALS[arrival]
        for protocol in ("rr", "rr-impl2", "rr-impl3"):
            events = clean_events(build(), protocol, seed)
            assert round_robin_violations(events) == 0, (
                f"{protocol} skipped a continuously-pending agent "
                f"under {arrival} arrivals at seed {seed}"
            )

    def test_impl_3_pays_only_extra_rounds(self, arrival, seed):
        build = ARRIVALS[arrival]
        for exact in ("rr", "rr-impl2"):
            assert all(
                event.rounds == 1 for event in clean_events(build(), exact, seed)
            )
        rounds = [event.rounds for event in clean_events(build(), "rr-impl3", seed)]
        assert all(count >= 1 for count in rounds)


@pytest.mark.parametrize("seed", SEEDS)
class TestFCFSStrategy2ExactArrivalOrder:
    def test_no_issue_time_inversions_with_outstanding_requests(self, seed):
        # r = 3 outstanding per agent: the §3.2 extension regime.  Exact
        # FCFS means the completion stream is sorted by issue time even
        # when agents pipeline several requests.
        scenario = open_loop_equal_load(10, 0.9, max_outstanding=3)
        records = completion_records(scenario, "fcfs-aincr", completions=400, seed=seed)
        issue_times = [record.issue_time for record in records]
        assert issue_times == sorted(issue_times)

    def test_matches_central_fcfs_oracle_at_r_1(self, seed):
        # The central oracle only models one outstanding request per
        # agent, so the grant-for-grant comparison lives at r = 1.
        scenario = open_loop_equal_load(10, 0.9, max_outstanding=1)
        assert grant_sequence(scenario, "fcfs-aincr", 400, seed) == grant_sequence(
            scenario, "central-fcfs", 400, seed
        )


def test_bursty_pipelining_actually_reaches_the_outstanding_cap():
    # Witness for the r > 1 assertions above: under on-off bursts an
    # agent really does stack requests to the declared cap, so the
    # no-inversion test is not passing vacuously at depth one.
    scenario = bursty_equal_load(6, 0.8, max_outstanding=4)
    records = completion_records(scenario, "fcfs-aincr", completions=400, seed=7)
    outstanding = {}
    deepest = 0
    marks = [(record.issue_time, 1, record.agent_id) for record in records]
    marks += [(record.completion_time, -1, record.agent_id) for record in records]
    for _, delta, agent_id in sorted(marks):
        outstanding[agent_id] = outstanding.get(agent_id, 0) + delta
        deepest = max(deepest, outstanding[agent_id])
    assert deepest == 4
    issue_times = [record.issue_time for record in records]
    assert issue_times == sorted(issue_times)


class TestOpenLoopDeterminism:
    SETTINGS = SimulationSettings(
        batches=2,
        batch_size=100,
        warmup=0,
        seed=77,
        telemetry=TelemetrySettings(events=True, metrics=True),
    )

    def cells(self):
        return [
            RunRequest(build(), protocol, self.SETTINGS)
            for _, build in sorted(ARRIVALS.items())
            for protocol in ("rr", "fcfs", "fcfs-aincr")
        ]

    def test_same_seed_twice_identical_telemetry(self):
        for arrival, build in sorted(ARRIVALS.items()):
            first = run_simulation(build(), "rr", self.SETTINGS)
            second = run_simulation(build(), "rr", self.SETTINGS)
            assert first.events == second.events, f"{arrival} events diverged"
            assert first.metrics == second.metrics, f"{arrival} metrics diverged"

    def test_serial_parallel_and_session_runs_identical(self):
        cells = self.cells()
        serial = run_results(Session(jobs=1), cells)
        parallel = run_results(Session(jobs=4), cells)
        session = Session(jobs=1)
        for cell in self.cells():
            session.submit(cell.scenario, cell.protocol, cell.settings)
        gathered = [outcome.result for outcome in session.gather()]
        assert len(gathered) == len(cells)
        for cell, left, right, third in zip(cells, serial, parallel, gathered):
            label = f"{cell.scenario.name}/{cell.protocol}"
            assert left.events == right.events, f"{label} parallel events diverged"
            assert left.metrics == right.metrics, f"{label} parallel metrics diverged"
            assert left.events == third.events, f"{label} session events diverged"
            assert left.metrics == third.metrics, f"{label} session metrics diverged"
        assert merge_metrics(r.metrics for r in serial) == merge_metrics(
            r.metrics for r in parallel
        )
