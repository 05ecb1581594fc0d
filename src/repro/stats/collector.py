"""Streaming collection of completion records into batch statistics.

The collector implements the paper's output-analysis protocol: a warmup
prefix is discarded, then completions are divided into ``batches``
consecutive batches of ``batch_size`` samples each.  Every per-batch
quantity needed by the tables is accumulated on the fly (counts per
agent, waiting-time moments, batch wall-clock durations); raw waiting
samples are retained per batch only when ``keep_samples`` is set (needed
for CDFs and the overlap experiment of §4.3).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bus.records import CompletionRecord
from repro.errors import StatisticsError

__all__ = [
    "CompletionCollector",
    "BatchStats",
    "check_run_length",
    "service_order_deviation",
]


def service_order_deviation(reference: List[int], observed: List[int]) -> float:
    """Fraction of positions where two grant sequences disagree.

    Compares the common prefix of a fault-free reference order and an
    observed (possibly perturbed) order, position by position — the
    robustness grid's measure of how far line faults push service away
    from the protocol's intended schedule.  Two empty sequences deviate
    by 0.0.
    """
    length = min(len(reference), len(observed))
    if length == 0:
        return 0.0
    mismatches = sum(
        1 for ref, obs in zip(reference[:length], observed[:length]) if ref != obs
    )
    return mismatches / length


def check_run_length(batches: int, batch_size: int, warmup: int) -> None:
    """Raise :class:`StatisticsError` unless the run length is usable:
    at least two batches of at least one completion, and a non-negative
    warmup."""
    if batches < 2:
        raise StatisticsError(f"need >= 2 batches for batch means, got {batches}")
    if batch_size < 1:
        raise StatisticsError(f"batch_size must be >= 1, got {batch_size}")
    if warmup < 0:
        raise StatisticsError(f"warmup must be >= 0, got {warmup}")


# ``slots`` lands in dataclasses at 3.10; on 3.9 the class simply keeps
# its __dict__ — same behaviour, slightly slower field access.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class BatchStats:
    """Accumulated statistics of one batch.

    ``waiting`` refers to the paper's W: request issue to transaction
    completion.  Slotted (3.10+): :meth:`CompletionCollector.record_completion`,
    the event engine's path, updates seven of these fields per
    completion.  The lane engine's flag-free path keeps the open
    batch's count, sums and per-agent counts in locals and writes them
    here once, when the batch fills or the run ends.
    """

    index: int
    count: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    sum_waiting: float = 0.0
    sum_waiting_sq: float = 0.0
    sum_queueing: float = 0.0
    agent_counts: Dict[int, int] = field(default_factory=dict)
    samples: Optional[List[float]] = None

    @property
    def duration(self) -> float:
        """Wall-clock span of the batch (simulated time)."""
        return self.end_time - self.start_time

    @property
    def mean_waiting(self) -> float:
        """Mean W within this batch."""
        if self.count == 0:
            raise StatisticsError(f"batch {self.index} is empty")
        return self.sum_waiting / self.count

    @property
    def std_waiting(self) -> float:
        """Standard deviation of W within this batch."""
        if self.count == 0:
            raise StatisticsError(f"batch {self.index} is empty")
        mean = self.mean_waiting
        variance = max(0.0, self.sum_waiting_sq / self.count - mean * mean)
        return variance**0.5

    @property
    def mean_queueing(self) -> float:
        """Mean issue-to-grant delay within this batch."""
        if self.count == 0:
            raise StatisticsError(f"batch {self.index} is empty")
        return self.sum_queueing / self.count

    def throughput(self) -> float:
        """Completions per unit time in this batch (= bus utilisation
        when the transaction time is the unit of time)."""
        if self.duration <= 0.0:
            raise StatisticsError(f"batch {self.index} has no duration")
        return self.count / self.duration

    def agent_throughput(self, agent_id: int) -> float:
        """One agent's completions per unit time in this batch."""
        if self.duration <= 0.0:
            raise StatisticsError(f"batch {self.index} has no duration")
        return self.agent_counts.get(agent_id, 0) / self.duration


class CompletionCollector:
    """Sink for :class:`~repro.bus.records.CompletionRecord`.

    Parameters
    ----------
    batches:
        Number of batches (the paper uses 10).
    batch_size:
        Completions per batch (the paper uses 8000).
    warmup:
        Completions discarded before batching starts, to wash out the
        empty-and-idle initial transient.
    keep_samples:
        Retain each batch's raw waiting-time samples.
    """

    def __init__(
        self,
        batches: int = 10,
        batch_size: int = 8000,
        warmup: int = 1000,
        keep_samples: bool = False,
        keep_order: bool = False,
        keep_records: bool = False,
    ) -> None:
        check_run_length(batches, batch_size, warmup)
        self.batches = batches
        self.batch_size = batch_size
        self.warmup = warmup
        self.keep_samples = keep_samples
        self.keep_order = keep_order
        #: Agent ids in completion order (every completion, including
        #: warmup) when ``keep_order`` is set — the grant *sequence*, used
        #: by the protocol-equivalence tests.
        self.completion_order: List[int] = []
        self.keep_records = keep_records
        #: Full completion records (every completion, including warmup)
        #: when ``keep_records`` is set.
        self.records: List[CompletionRecord] = []
        self.needed = warmup + batches * batch_size
        self.total_recorded = 0
        self.batch_stats: List[BatchStats] = []
        self._current: Optional[BatchStats] = None
        self._last_boundary_time = 0.0
        #: Total per-agent completions after warmup (all batches),
        #: summed by :meth:`end_run` when the run ends.
        self.agent_totals: Dict[int, int] = {}
        #: Arbitration anomalies seen by the watchdog, per kind
        #: ("no-winner" / "duplicate-winner").
        self.anomalies: Dict[str, int] = {}
        #: Simulated-time spans from first anomaly of an episode to the
        #: next clean grant, one entry per recovered episode.
        self.recovery_latencies: List[float] = []
        #: Arbitrations whose winner was silently changed by a line
        #: fault (service-order deviation without an anomaly).
        self.deviations = 0
        #: Set when the watchdog exhausted its retry budget.
        self.permanent_failure = False

    def satisfied(self) -> bool:
        """Stop rule for the simulation run."""
        return self.total_recorded >= self.needed

    def record(self, record: CompletionRecord) -> None:
        """Accumulate one completion."""
        self.record_completion(
            record.agent_id,
            record.issue_time,
            record.grant_time,
            record.completion_time,
            record.priority,
            _record=record,
        )

    def record_completion(
        self,
        agent_id: int,
        issue_time: float,
        grant_time: float,
        completion_time: float,
        priority: bool = False,
        _record: Optional[CompletionRecord] = None,
    ) -> None:
        """Accumulate one completion from its bare timing fields.

        Identical arithmetic to :meth:`record` without allocating a
        :class:`CompletionRecord` unless the collector actually retains
        records.  The lane engine calls it when the collector keeps the
        completion order or records; its flag-free path is an inlined
        copy that the cross-engine differential suite pins to this one.
        """
        index = self.total_recorded
        self.total_recorded = index + 1
        if self.keep_order:
            self.completion_order.append(agent_id)
        if self.keep_records:
            if _record is None:
                _record = CompletionRecord(
                    agent_id=agent_id,
                    issue_time=issue_time,
                    grant_time=grant_time,
                    completion_time=completion_time,
                    priority=priority,
                )
            self.records.append(_record)
        if index < self.warmup:
            self._last_boundary_time = completion_time
            return
        if index >= self.needed:
            return  # events already queued past the stop rule
        batch = self._current
        if batch is None or batch.count == self.batch_size:
            # Completions arrive sequentially, so a boundary is exactly
            # "the current batch is full" — the division only runs once
            # per batch, not once per completion.
            self._open_batch((index - self.warmup) // self.batch_size)
            batch = self._current
        assert batch is not None
        waiting = completion_time - issue_time
        batch.count += 1
        batch.sum_waiting += waiting
        batch.sum_waiting_sq += waiting * waiting
        batch.sum_queueing += grant_time - issue_time
        counts = batch.agent_counts
        counts[agent_id] = counts.get(agent_id, 0) + 1
        if batch.samples is not None:
            batch.samples.append(waiting)
        batch.end_time = completion_time
        if batch.count == self.batch_size:
            self._last_boundary_time = completion_time

    # -- batches accumulated by the caller ------------------------------------
    #
    # The lane engine's flag-free path keeps the open batch's count,
    # sums and per-agent counts itself and hands them over here, so the
    # results equal record_completion's field for field.

    def begin_batch(self, index: int, start_time: float) -> BatchStats:
        """Open and return the batch that completion ``index`` (counted
        from the first, warmup included) starts; ``start_time`` is the
        previous completion's time."""
        self._last_boundary_time = start_time
        self._open_batch((index - self.warmup) // self.batch_size)
        assert self._current is not None
        return self._current

    def end_batch(
        self,
        count: int,
        sum_waiting: float,
        sum_waiting_sq: float,
        sum_queueing: float,
        end_time: float,
        tally: List[int],
        seen: List[int],
    ) -> None:
        """Write the caller's accumulators into the open batch.

        ``seen`` lists the batch's agents in first-completion order, the
        order :meth:`record_completion` inserts them into
        ``agent_counts``; their counts move from ``tally`` (indexed by
        agent id), which is left zeroed, and ``seen`` is cleared, for
        the next batch.
        """
        batch = self._current
        assert batch is not None
        batch.count = count
        batch.sum_waiting = sum_waiting
        batch.sum_waiting_sq = sum_waiting_sq
        batch.sum_queueing = sum_queueing
        batch.end_time = end_time
        counts = batch.agent_counts
        for agent in seen:
            counts[agent] = tally[agent]
            tally[agent] = 0
        seen.clear()

    def end_run(
        self,
        count: int = 0,
        sum_waiting: float = 0.0,
        sum_waiting_sq: float = 0.0,
        sum_queueing: float = 0.0,
        end_time: Optional[float] = None,
        tally: Sequence[int] = (),
        seen: Sequence[int] = (),
    ) -> None:
        """Finish a run: sum ``agent_totals`` from the batches.

        Every run ends here once.  A run recorded through
        :meth:`record_completion` passes nothing.  A caller that
        accumulated its batches itself passes :meth:`end_batch`'s
        arguments for the batch still open (``count`` 0 if none is:
        then ``end_time``, the last completion's time, is the next batch
        boundary).  The totals are summed from the batches'
        ``agent_counts`` in batch order, which gives every agent its
        first completion's place in the dict order.
        """
        if count:
            self.end_batch(
                count, sum_waiting, sum_waiting_sq, sum_queueing, end_time, tally, seen
            )
        elif end_time is not None:
            self._last_boundary_time = end_time
        totals = self.agent_totals
        for batch in self.batch_stats:
            for agent, agent_count in batch.agent_counts.items():
                totals[agent] = totals.get(agent, 0) + agent_count

    # -- watchdog / fault-injection records -----------------------------------

    def record_anomaly(self, kind: str) -> None:
        """Count one anomalous arbitration outcome of the given kind."""
        self.anomalies[kind] = self.anomalies.get(kind, 0) + 1

    def record_recovery(self, latency: float) -> None:
        """Record one closed anomaly episode's recovery latency."""
        self.recovery_latencies.append(latency)

    def record_deviation(self) -> None:
        """Count one silently-deviated arbitration winner."""
        self.deviations += 1

    def record_permanent_failure(self) -> None:
        """The watchdog gave up: the bus is permanently failed."""
        self.permanent_failure = True

    def _open_batch(self, batch_index: int) -> None:
        batch = BatchStats(
            index=batch_index,
            start_time=self._last_boundary_time,
            samples=[] if self.keep_samples else None,
        )
        self.batch_stats.append(batch)
        self._current = batch

    # -- post-run access ------------------------------------------------------

    def completed_batches(self) -> List[BatchStats]:
        """Batches that reached their full size."""
        return [batch for batch in self.batch_stats if batch.count == self.batch_size]

    def all_samples(self) -> List[float]:
        """Every retained waiting-time sample, in completion order."""
        if not self.keep_samples:
            raise StatisticsError(
                "collector was built with keep_samples=False; no samples retained"
            )
        samples: List[float] = []
        for batch in self.batch_stats:
            if batch.samples:
                samples.extend(batch.samples)
        return samples
