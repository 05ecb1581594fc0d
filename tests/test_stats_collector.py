"""Tests for the streaming completion collector."""

import pickle
import random

import pytest

from repro.bus.records import CompletionRecord
from repro.errors import StatisticsError
from repro.stats.collector import CompletionCollector


def _record(agent=1, issue=0.0, grant=0.5, done=1.5):
    return CompletionRecord(
        agent_id=agent, issue_time=issue, grant_time=grant, completion_time=done
    )


def _fill(collector, count, start_time=0.0, agent=1):
    time = start_time
    for _ in range(count):
        collector.record(
            _record(agent=agent, issue=time, grant=time + 0.5, done=time + 1.5)
        )
        time += 1.0
    return time


class TestWarmupAndBatching:
    def test_warmup_discarded(self):
        collector = CompletionCollector(batches=2, batch_size=3, warmup=4)
        _fill(collector, 10)
        assert sum(batch.count for batch in collector.batch_stats) == 6

    def test_satisfied_after_needed(self):
        collector = CompletionCollector(batches=2, batch_size=3, warmup=4)
        assert collector.needed == 10
        _fill(collector, 9)
        assert not collector.satisfied()
        _fill(collector, 1, start_time=9.0)
        assert collector.satisfied()

    def test_batch_indices_sequential(self):
        collector = CompletionCollector(batches=3, batch_size=2, warmup=0)
        _fill(collector, 6)
        assert [batch.index for batch in collector.batch_stats] == [0, 1, 2]

    def test_records_beyond_needed_ignored(self):
        collector = CompletionCollector(batches=2, batch_size=2, warmup=0)
        _fill(collector, 8)
        assert sum(batch.count for batch in collector.batch_stats) == 4

    def test_completed_batches_filters_partial(self):
        collector = CompletionCollector(batches=3, batch_size=4, warmup=0)
        _fill(collector, 9)  # 2 full batches + 1 partial
        assert len(collector.completed_batches()) == 2

    def test_validation(self):
        with pytest.raises(StatisticsError):
            CompletionCollector(batches=1)
        with pytest.raises(StatisticsError):
            CompletionCollector(batch_size=0)
        with pytest.raises(StatisticsError):
            CompletionCollector(warmup=-1)


class TestBatchStatistics:
    def test_waiting_moments(self):
        collector = CompletionCollector(batches=2, batch_size=2, warmup=0)
        collector.record(_record(issue=0.0, done=2.0))   # W = 2
        collector.record(_record(issue=1.0, done=5.0))   # W = 4
        batch = collector.batch_stats[0]
        assert batch.mean_waiting == pytest.approx(3.0)
        assert batch.std_waiting == pytest.approx(1.0)

    def test_queueing_delay_tracked(self):
        collector = CompletionCollector(batches=2, batch_size=1, warmup=0)
        collector.record(_record(issue=0.0, grant=0.75, done=1.75))
        assert collector.batch_stats[0].mean_queueing == pytest.approx(0.75)

    def test_batch_duration_spans_boundaries(self):
        collector = CompletionCollector(batches=2, batch_size=3, warmup=2)
        _fill(collector, 8)
        # Warmup ends at the 2nd completion (t = 2.5); first batch ends at
        # the 5th (t = 5.5): duration 3.0.
        assert collector.batch_stats[0].duration == pytest.approx(3.0)

    def test_throughput(self):
        collector = CompletionCollector(batches=2, batch_size=4, warmup=0)
        _fill(collector, 8)
        batch = collector.batch_stats[1]
        assert batch.throughput() == pytest.approx(4.0 / batch.duration)

    def test_agent_counts(self):
        collector = CompletionCollector(batches=2, batch_size=2, warmup=0)
        collector.record(_record(agent=1))
        collector.record(_record(agent=2))
        collector.record(_record(agent=2))
        collector.record(_record(agent=2))
        assert collector.batch_stats[0].agent_counts == {1: 1, 2: 1}
        # Totals are summed from the batches when the run ends.
        assert collector.agent_totals == {}
        collector.end_run()
        assert collector.agent_totals == {1: 1, 2: 3}

    def test_empty_batch_moments_raise(self):
        from repro.stats.collector import BatchStats

        empty = BatchStats(index=0)
        with pytest.raises(StatisticsError):
            _ = empty.mean_waiting
        with pytest.raises(StatisticsError):
            _ = empty.std_waiting
        with pytest.raises(StatisticsError):
            empty.throughput()


class TestSampleRetention:
    def test_samples_per_batch_when_enabled(self):
        collector = CompletionCollector(
            batches=2, batch_size=2, warmup=1, keep_samples=True
        )
        _fill(collector, 5)
        assert all(len(batch.samples) == 2 for batch in collector.batch_stats)

    def test_all_samples_concatenates(self):
        collector = CompletionCollector(
            batches=2, batch_size=2, warmup=0, keep_samples=True
        )
        _fill(collector, 4)
        assert len(collector.all_samples()) == 4

    def test_all_samples_requires_flag(self):
        collector = CompletionCollector(batches=2, batch_size=2, warmup=0)
        _fill(collector, 4)
        with pytest.raises(StatisticsError):
            collector.all_samples()

    def test_order_retention(self):
        collector = CompletionCollector(
            batches=2, batch_size=1, warmup=1, keep_order=True
        )
        for agent in (3, 1, 2):
            collector.record(_record(agent=agent))
        # Order includes warmup completions: it is the grant sequence.
        assert collector.completion_order == [3, 1, 2]

    def test_record_retention(self):
        collector = CompletionCollector(
            batches=2, batch_size=1, warmup=0, keep_records=True
        )
        collector.record(_record(agent=5))
        assert collector.records[0].agent_id == 5


def _accumulated(collector, completions):
    """Feed ``(agent, issue, grant, done)`` completions through
    begin_batch/end_batch/end_run, keeping the open batch's sums and
    per-agent tally outside the collector, as the lane engine does."""
    count, sum_w, sum_w_sq, sum_q, last = 0, 0.0, 0.0, 0.0, 0.0
    tally = [0] * 8
    seen = []
    samples = None
    for index, (agent, issue, grant, done) in enumerate(completions):
        if index >= collector.warmup:
            if not count:
                samples = collector.begin_batch(index, last).samples
            waiting = done - issue
            count += 1
            sum_w += waiting
            sum_w_sq += waiting * waiting
            sum_q += grant - issue
            if not tally[agent]:
                seen.append(agent)
            tally[agent] += 1
            if samples is not None:
                samples.append(waiting)
            if count == collector.batch_size:
                collector.end_batch(count, sum_w, sum_w_sq, sum_q, done, tally, seen)
                count, sum_w, sum_w_sq, sum_q = 0, 0.0, 0.0, 0.0
        last = done
    collector.total_recorded = len(completions)
    collector.end_run(count, sum_w, sum_w_sq, sum_q, last, tally, seen)


class TestCallerAccumulatedBatches:
    """begin_batch/end_batch/end_run leave the collector as
    record_completion does, field for field and in dict order."""

    @pytest.mark.parametrize("keep_samples", [False, True])
    @pytest.mark.parametrize("stop", [0, 3, 4, 7, 9, 12, 15, 19])
    def test_equals_record_completion(self, stop, keep_samples):
        rng = random.Random(stop)
        time = 0.0
        completions = []
        for _ in range(stop):
            issue = time + rng.random()
            grant = issue + rng.random()
            time = grant + 1.0
            completions.append((rng.randrange(1, 8), issue, grant, time))
        reference = CompletionCollector(
            batches=3, batch_size=5, warmup=4, keep_samples=keep_samples
        )
        for completion in completions:
            reference.record_completion(*completion)
        reference.end_run()
        collector = CompletionCollector(
            batches=3, batch_size=5, warmup=4, keep_samples=keep_samples
        )
        _accumulated(collector, completions)
        assert list(collector.agent_totals) == list(reference.agent_totals)
        assert pickle.dumps(collector) == pickle.dumps(reference)
