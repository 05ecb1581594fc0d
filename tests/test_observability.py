"""Unit tests for the observability layer: events, sinks, metrics, wiring."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import cache_key
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.observability import (
    ArbitrationEvent,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    MetricsSink,
    NullSink,
    ROUNDS_BUCKETS,
    TeeSink,
    TelemetrySettings,
    event_from_dict,
    merge_metrics,
    render_metrics,
)
from repro.session import RunRequest, Session
from repro.workload.scenarios import equal_load

from _utils import quick_settings, run_results


EVENT = ArbitrationEvent(
    index=3,
    time=12.5,
    competitors=(1, 4, 7),
    winner=7,
    rounds=2,
    settle_time=1.0,
    anomaly=None,
    watchdog_attempt=1,
    fault_tags=("deviated",),
)


class TestArbitrationEvent:
    def test_json_round_trip_is_exact(self):
        line = EVENT.to_json()
        assert event_from_dict(json.loads(line)) == EVENT
        assert event_from_dict(json.loads(line)).to_json() == line

    def test_canonical_encoding_has_fixed_field_order(self):
        payload = EVENT.to_json()
        assert payload.startswith('{"index":3,"time":12.5,"competitors":[1,4,7],')
        assert " " not in payload

    def test_unknown_fields_rejected(self):
        payload = EVENT.to_dict()
        payload["extra"] = 1
        with pytest.raises(ConfigurationError, match="unknown ArbitrationEvent"):
            event_from_dict(payload)

    def test_optional_fields_default(self):
        minimal = {
            "index": 0,
            "time": 0.0,
            "competitors": [2],
            "winner": 2,
            "rounds": 1,
            "settle_time": 0.5,
        }
        event = event_from_dict(minimal)
        assert event.anomaly is None
        assert event.watchdog_attempt == 0
        assert event.fault_tags == ()


class TestTelemetrySettings:
    def test_all_off_is_rejected(self):
        with pytest.raises(ConfigurationError, match="records nothing"):
            TelemetrySettings()

    def test_spec_key_distinguishes_knobs(self):
        keys = {
            tuple(TelemetrySettings(events=True).spec_key()),
            tuple(TelemetrySettings(metrics=True).spec_key()),
            tuple(TelemetrySettings(events=True, metrics=True).spec_key()),
            tuple(TelemetrySettings(jsonl_path="t.jsonl").spec_key()),
        }
        assert len(keys) == 4


class TestSinks:
    def test_in_memory_sink_retains_order(self):
        sink = InMemorySink()
        events = [
            ArbitrationEvent(i, float(i), (1,), 1, 1, 0.5) for i in range(5)
        ]
        for event in events:
            sink.emit(event)
        assert list(sink) == events
        assert len(sink) == 5

    def test_null_sink_discards(self):
        sink = NullSink()
        sink.emit(EVENT)
        sink.close()

    def test_jsonl_sink_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(EVENT)
        sink.close()
        assert sink.emitted == 1
        assert path.read_text(encoding="utf-8") == EVENT.to_json() + "\n"

    def test_jsonl_sink_does_not_close_borrowed_handles(self, tmp_path):
        with (tmp_path / "trace.jsonl").open("w", encoding="utf-8") as handle:
            sink = JsonlSink(handle)
            sink.emit(EVENT)
            sink.close()
            assert not handle.closed

    def test_tee_fans_out_in_order(self):
        first, second = InMemorySink(), InMemorySink()
        tee = TeeSink(first, second)
        tee.emit(EVENT)
        tee.close()
        assert first.events == [EVENT] == second.events


class TestMetricsRegistry:
    def test_histogram_buckets_are_inclusive_with_overflow(self):
        histogram = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 9.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(16.0 / 5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram("h", (2.0, 1.0))

    def test_histogram_merge_requires_identical_bounds(self):
        left = Histogram("h", (1.0, 2.0))
        right = Histogram("h", (1.0, 3.0))
        with pytest.raises(ConfigurationError, match="identical buckets"):
            left.merge(right)

    def test_registry_bounds_mismatch_on_reuse(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.histogram("h", (1.0, 3.0))

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            registry.counter("c").increment(-1)

    def test_merge_is_associative_and_none_tolerant(self):
        def build(value):
            registry = MetricsRegistry()
            registry.counter("c").increment(value)
            registry.histogram("h", ROUNDS_BUCKETS).observe(float(value))
            return registry

        left, mid, right = build(1), build(2), build(3)
        one_way = merge_metrics([left, None, mid, right])
        other = merge_metrics([merge_metrics([left, mid]), right])
        assert one_way == other
        assert one_way.counter("c").value == 6

    def test_metrics_sink_separates_grants_from_anomalies(self):
        registry = MetricsRegistry()
        sink = MetricsSink(registry)
        sink.emit(ArbitrationEvent(0, 0.0, (1, 2), 2, 1, 0.5))
        sink.emit(
            ArbitrationEvent(
                1, 1.0, (1, 2), None, 1, 0.5, anomaly="no-winner"
            )
        )
        sink.emit(
            ArbitrationEvent(2, 2.0, (1, 2), 1, 1, 0.5, watchdog_attempt=1)
        )
        counters = {name: c.value for name, c in registry.counters().items()}
        assert counters["arbitrations"] == 3
        assert counters["grants"] == 2
        assert counters["anomaly.no-winner"] == 1
        assert counters["watchdog_retries"] == 1
        assert registry.histogram("rounds_per_grant", ROUNDS_BUCKETS).count == 2

    def test_render_metrics_lists_everything(self):
        registry = MetricsRegistry()
        registry.counter("grants").increment(4)
        registry.histogram("h", (1.0, 2.0)).observe(1.5)
        text = render_metrics(registry)
        assert "grants" in text and "4" in text
        assert "≤2:1" in text
        assert render_metrics(MetricsRegistry()) == "(empty registry)"


class TestRunnerWiring:
    def test_default_settings_record_nothing(self):
        result = run_simulation(equal_load(4, 1.0), "rr", quick_settings())
        assert result.events is None
        assert result.metrics is None

    def test_events_and_metrics_populate_run_result(self):
        settings = quick_settings(
            telemetry=TelemetrySettings(events=True, metrics=True)
        )
        result = run_simulation(equal_load(4, 2.0), "rr", settings)
        assert result.events
        assert result.metrics is not None
        grants = result.metrics.counter("grants").value
        clean = sum(1 for event in result.events if event.anomaly is None)
        assert grants == clean

    def test_jsonl_path_streams_the_same_events(self, tmp_path):
        streams = []
        for engine in ("batch", "event"):
            path = tmp_path / f"{engine}.jsonl"
            settings = quick_settings(
                engine=engine,
                telemetry=TelemetrySettings(events=True, jsonl_path=str(path)),
            )
            result = run_simulation(equal_load(4, 2.0), "rr", settings)
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines == [event.to_json() for event in result.events]
            streams.append(lines)
        assert streams[0] == streams[1]

    def test_telemetry_changes_the_cache_key(self):
        scenario = equal_load(4, 1.0)
        plain = quick_settings()
        tele = quick_settings(telemetry=TelemetrySettings(events=True))
        assert cache_key(scenario, "rr", plain) != cache_key(scenario, "rr", tele)

    def test_telemetry_does_not_perturb_results(self):
        # The acceptance bar for the whole layer: identical metrics with
        # telemetry on and off, same seed.
        scenario = equal_load(6, 2.0)
        plain = run_simulation(scenario, "rr", quick_settings(keep_order=True))
        observed = run_simulation(
            scenario,
            "rr",
            quick_settings(
                keep_order=True,
                telemetry=TelemetrySettings(events=True, metrics=True),
            ),
        )
        assert plain.collector.completion_order == observed.collector.completion_order
        assert plain.system_throughput().mean == observed.system_throughput().mean
        assert plain.mean_waiting().mean == observed.mean_waiting().mean


class TestSweepMetrics:
    def test_merge_metrics_across_cells(self):
        settings = quick_settings(telemetry=TelemetrySettings(metrics=True))
        cells = [
            RunRequest(equal_load(4, 2.0), protocol, settings)
            for protocol in ("rr", "fcfs")
        ]
        results = run_results(Session(jobs=1), cells)
        merged = merge_metrics(result.metrics for result in results)
        total = sum(result.metrics.counter("grants").value for result in results)
        assert merged.counter("grants").value == total

    def test_merge_metrics_skips_untelemetried_cells(self):
        plain = RunRequest(equal_load(4, 2.0), "rr", quick_settings())
        observed = RunRequest(
            equal_load(4, 2.0),
            "rr",
            quick_settings(telemetry=TelemetrySettings(metrics=True)),
        )
        results = run_results(Session(jobs=1), [plain, observed])
        merged = merge_metrics(result.metrics for result in results)
        assert merged.counter("grants").value == results[1].metrics.counter(
            "grants"
        ).value
