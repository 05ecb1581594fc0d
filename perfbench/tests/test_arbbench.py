"""Tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from arbbench.hostspeed import calibrated
from arbbench.loadgen import latencies_from_due, run_closed_loop, run_open_loop
from arbbench.measure import outputs_sha256, percentile, tail_percentile
from arbbench.spans import Span, Tracer, covered, layer_self_seconds, self_times

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- percentiles --------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="p99"):
        percentile(list(range(999)), 99)
    assert percentile([float(v) for v in range(1, 1001)], 99) == 990.0


def test_p50_needs_twenty_samples():
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(1, 21)), 50) == 10


def test_percentile_is_nearest_rank_of_unsorted_input():
    values = [float(v) for v in range(2000, 0, -1)]
    assert percentile(values, 99) == 1980.0
    assert percentile(values, 50) == 1000.0


def test_tail_percentile_is_the_highest_with_ten_samples_beyond_it():
    assert tail_percentile([float(v) for v in range(1, 1001)]) == (99, 990.0)
    assert tail_percentile([float(v) for v in range(1, 201)]) == (95, 190.0)
    assert tail_percentile([float(v) for v in range(1, 41)]) == (75, 30.0)
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)))


# -- host calibration ---------------------------------------------------------


def test_each_duration_is_divided_by_the_slowdown_around_it():
    # Twice as slow around the second unit: it reads as fast as the first.
    assert calibrated([1.0, 2.0], [1.0, 1.0, 3.0]) == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        calibrated([1.0, 2.0], [1.0, 1.0])


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    root = Span("pass", 0.0, 10.0)
    first = Span("planner", 1.0, 4.0, parent=root)
    second = Span("execute", 3.0, 6.0, parent=root)  # overlaps ``first``
    leaf = Span("cache.get", 2.0, 3.0, parent=first)
    own = self_times([root, first, second, leaf])
    assert own[id(root)] == pytest.approx(10.0 - 5.0)
    assert own[id(first)] == pytest.approx(3.0 - 1.0)
    assert own[id(second)] == pytest.approx(3.0)
    assert own[id(leaf)] == pytest.approx(1.0)
    totals = layer_self_seconds([root, first, second, leaf])
    # Non-overlapping layers: self times add up to the root's wall time.
    assert sum(totals.values()) == pytest.approx(10.0 + 1.0)


def test_children_outside_the_parent_are_clipped():
    assert covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0), (6.0, 7.0)]) == pytest.approx(2.0)
    assert covered(2.0, 5.0, []) == 0.0


def test_tracer_links_parents_per_nesting(tmp_path):
    tracer = Tracer(enabled=True)
    outer = tracer.begin("session", ident="pass-1")
    tracer.call("request.hash", lambda: None)
    tracer.end(outer)
    inner, = [span for span in tracer.spans if span.name == "request.hash"]
    assert inner.parent is outer and outer.parent is None
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["request.hash", "session"]
    assert lines[0]["parent"] == 1 and lines[1]["ident"] == "pass-1"


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.call("lanes", lambda x: x + 1, 1) == 2
    assert tracer.spans == []


# -- load generation ----------------------------------------------------------


def test_lateness_is_measured_from_due_times():
    clock = FakeClock()
    sent = []

    def send(index, due):
        sent.append((index, due))
        if index == 1:
            clock.now += 0.35  # a slow send delays the jobs due after it

    lateness = run_open_loop([0.1, 0.2, 0.3, 0.7], send, clock=clock, sleep=clock.sleep)
    assert [due - 100.0 for __, due in sent] == pytest.approx([0.1, 0.2, 0.3, 0.7])
    assert lateness == pytest.approx([0.0, 0.0, 0.25, 0.0])
    finishes = [due + 0.01 for __, due in sent[:3]] + [None]
    latencies = latencies_from_due([due for __, due in sent], finishes)
    assert latencies[:3] == pytest.approx([0.01] * 3)
    assert latencies[3] == float("inf")


def test_closed_loop_counts_only_completions_inside_the_window():
    clock = FakeClock()

    def wait(job):
        clock.now += 0.1  # every job takes 0.1 s of the loop's time
        return job

    completed, elapsed = run_closed_loop(2, 0.55, lambda index: index, wait, clock=clock)
    assert completed == [0, 1, 2, 3, 4]
    assert elapsed == pytest.approx(0.5)


# -- output digests -----------------------------------------------------------


def _small_grid(seed):
    from repro.experiments.runner import SimulationSettings
    from repro.session import RunRequest
    from repro.workload.scenarios import equal_load

    settings = SimulationSettings(batches=2, batch_size=20, warmup=5, seed=seed)
    return [
        RunRequest(equal_load(n, 2.0), protocol, replace(settings, seed=seed + offset))
        for n in (4, 10)
        for protocol in ("rr", "fcfs")
        for offset in range(2)
    ]


def test_digest_is_stable_across_two_in_process_computations():
    from repro.session import Session

    first = [o.result for o in Session(jobs=1).run_requests(_small_grid(7))]
    second = [o.result for o in Session(jobs=1, engine="event").run_requests(_small_grid(7))]
    other = [o.result for o in Session(jobs=1).run_requests(_small_grid(8))]
    assert outputs_sha256(first) == outputs_sha256(second)
    assert outputs_sha256(first) != outputs_sha256(other)


# -- the benchmark definition -------------------------------------------------


def test_every_metric_is_defined_and_has_a_target():
    from arbbench.workloads import LAYER_METRICS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((ROOT / "perfbench" / "targets.json").read_text())
    per_layer = [entry["name"] for entry in spec["per_layer"]]
    assert per_layer == list(LAYER_METRICS)
    assert set(targets["per_layer"]) == set(per_layer)
    workloads = {entry["name"] for entry in spec["workloads"]}
    assert workloads == set(WORKLOADS)
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    for target in targets["per_layer"].values():
        assert target["moves"] in end_to_end | {"none"}
        assert target["workload"] in workloads
    assert targets["held_out_seed"] not in range(10)
