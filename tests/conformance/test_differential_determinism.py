"""Differential determinism: every protocol's event stream is replayable.

The whole observability layer leans on the engine's common-random-
numbers discipline: a run's arbitration-event stream is a pure function
of (scenario, protocol, settings).  This suite checks that claim
differentially, for *every* registered protocol —

- the same cell run twice produces identical ``ArbitrationEvent``
  streams, element for element;
- a serial sweep and a 4-worker parallel sweep over the same grid
  produce identical streams and identical merged metrics, so worker
  placement and completion order are unobservable.

A protocol whose arbiter consulted any ambient state (wall clock,
global RNG, dict iteration order across processes) would fail here
before it could corrupt a golden trace or a conformance result.
"""

import pytest

from repro.experiments.runner import SimulationSettings, run_simulation
from repro.observability.events import TelemetrySettings
from repro.observability.metrics import merge_metrics
from repro.protocols.registry import protocol_names
from repro.session import RunRequest, Session
from repro.workload.scenarios import equal_load

from _utils import run_results

SETTINGS = SimulationSettings(
    batches=2,
    batch_size=100,
    warmup=0,
    seed=77,
    telemetry=TelemetrySettings(events=True, metrics=True),
)


def run_cell(protocol):
    return run_simulation(equal_load(6, 2.0), protocol, SETTINGS)


@pytest.mark.parametrize("protocol", protocol_names())
def test_same_seed_twice_identical_event_stream(protocol):
    first = run_cell(protocol)
    second = run_cell(protocol)
    assert first.events == second.events
    assert first.metrics == second.metrics


def test_serial_and_parallel_sweeps_emit_identical_streams():
    # One grid over several protocols, run through a serial executor and
    # a 4-worker pool: telemetry must be bit-identical in cell order.
    cells = [
        RunRequest(equal_load(6, 2.0), protocol, SETTINGS)
        for protocol in ("rr", "rr-impl3", "fcfs", "fcfs-aincr", "fixed", "aap1")
    ]
    serial = run_results(Session(jobs=1), cells)
    parallel = run_results(Session(jobs=4), cells)
    for cell, left, right in zip(cells, serial, parallel):
        assert left.events == right.events, f"{cell.protocol} events diverged"
        assert left.metrics == right.metrics, f"{cell.protocol} metrics diverged"
    merged = merge_metrics(result.metrics for result in serial)
    assert merged == merge_metrics(result.metrics for result in parallel)
