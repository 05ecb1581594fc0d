"""Metrics registry: counters and fixed-bucket histograms.

The registry is the aggregate face of the telemetry layer: where the
event stream answers *what happened, in order*, the registry answers
*how much of it happened* — arbitration counts, rounds-per-grant and
settle-round distributions, per-agent waiting times, watchdog retry
totals.  It is designed around a parallel sweep's determinism
contract:

- every structure is pure Python and picklable, so a registry rides a
  :class:`~repro.stats.summary.RunResult` across process boundaries
  and through the result cache unchanged;
- histograms use *fixed* bucket bounds declared at first use, so two
  registries built from the same events are identical whatever order
  cells executed in, and :func:`merge_metrics` over cells in grid
  order is deterministic;
- merging is associative: per-cell registries from a parallel sweep
  merge to the same totals the serial sweep produces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.observability.events import ArbitrationEvent
from repro.observability.sinks import EventSink

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "ROUNDS_BUCKETS",
    "COMPETITOR_BUCKETS",
    "WAIT_BUCKETS",
    "merge_metrics",
    "render_metrics",
]

#: Rounds per granted arbitration: 1 everywhere except RR impl 3's
#: occasional second pass, so the tail buckets witness §3.1's cost.
ROUNDS_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)

#: Competitors per arbitration pass (N is rarely above a few dozen).
COMPETITOR_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Waiting times in transaction-time units (the paper's W is ≥ 1).
WAIT_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Counter)
            and other.name == self.name
            and other.value == self.value
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket histogram: counts of observations per bound.

    Parameters
    ----------
    name:
        Registry key.
    bounds:
        Strictly increasing inclusive upper bounds.  Observations above
        the last bound land in an implicit overflow bucket, so
        ``counts`` has ``len(bounds) + 1`` entries and every
        observation is counted exactly once.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name!r} needs strictly increasing bounds, got {bounds}"
            )
        self.name = name
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Count one observation into its bucket."""
        for slot, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[slot] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> Optional[float]:
        """Mean of all observations, or ``None`` when empty."""
        if self.count == 0:
            return None
        return self.total / self.count

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the q-quantile observation.

        A bucketed quantile is an upper bound, not an estimate: the
        true order statistic is <= the returned bound (``inf`` when it
        falls in the overflow bucket).  Coarse but merge-safe — the
        per-class latency percentiles of merged grid registries come
        from here.  ``None`` when the histogram is empty.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for slot, bound in enumerate(self.bounds):
            cumulative += self.counts[slot]
            if cumulative >= rank:
                return bound
        return float("inf")

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's counts into this one."""
        if other.bounds != self.bounds:
            raise ConfigurationError(
                f"histogram {self.name!r} bounds {self.bounds} do not match "
                f"{other.bounds}; merging needs identical buckets"
            )
        for slot, count in enumerate(other.counts):
            self.counts[slot] += count
        self.count += other.count
        self.total += other.total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Histogram)
            and other.name == self.name
            and other.bounds == self.bounds
            and other.counts == self.counts
            and other.total == self.total
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """A named set of counters and histograms with get-or-create access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access ---------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name``, created at zero if new."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str, bounds: Tuple[float, ...]) -> Histogram:
        """The histogram under ``name``; bounds must match on reuse."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        elif histogram.bounds != tuple(float(bound) for bound in bounds):
            raise ConfigurationError(
                f"histogram {name!r} already registered with bounds "
                f"{histogram.bounds}, requested {tuple(bounds)}"
            )
        return histogram

    def counters(self) -> Dict[str, Counter]:
        """Name-sorted snapshot of the counters."""
        return {name: self._counters[name] for name in sorted(self._counters)}

    def histograms(self) -> Dict[str, Histogram]:
        """Name-sorted snapshot of the histograms."""
        return {name: self._histograms[name] for name in sorted(self._histograms)}

    # -- aggregation ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (union of names)."""
        for name in sorted(other._counters):
            self.counter(name).increment(other._counters[name].value)
        for name in sorted(other._histograms):
            theirs = other._histograms[name]
            self.histogram(name, theirs.bounds).merge(theirs)

    def as_dict(self) -> dict:
        """Deterministic plain-data snapshot (sorted names)."""
        return {
            "counters": {
                name: counter.value for name, counter in self.counters().items()
            },
            "histograms": {
                name: {
                    "bounds": list(histogram.bounds),
                    "counts": list(histogram.counts),
                    "count": histogram.count,
                    "total": histogram.total,
                }
                for name, histogram in self.histograms().items()
            },
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MetricsRegistry) and other.as_dict() == self.as_dict()

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )


def merge_metrics(
    registries: Iterable[Optional[MetricsRegistry]],
) -> MetricsRegistry:
    """Merge per-cell registries, in iteration order, skipping ``None``.

    Iteration order affects nothing observable, since counter addition
    and bucket-count addition commute; taking cells in grid order keeps
    the reduction reproducible by construction anyway.
    """
    merged = MetricsRegistry()
    for registry in registries:
        if registry is not None:
            merged.merge(registry)
    return merged


class MetricsSink(EventSink):
    """Feeds a registry from the arbitration-event stream.

    The bus-level series (per-agent waiting times, completions) are fed
    directly by :class:`~repro.bus.model.BusSystem` at transaction end;
    this sink owns everything derivable from events alone.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def emit(self, event: ArbitrationEvent) -> None:
        registry = self.registry
        registry.counter("arbitrations").increment()
        registry.counter("settle_rounds").increment(event.rounds)
        registry.histogram("competitors", COMPETITOR_BUCKETS).observe(
            len(event.competitors)
        )
        if event.watchdog_attempt > 0:
            registry.counter("watchdog_retries").increment()
        if "deviated" in event.fault_tags:
            registry.counter("deviations").increment()
        if event.anomaly is not None:
            registry.counter(f"anomaly.{event.anomaly}").increment()
            return
        registry.counter("grants").increment()
        registry.histogram("rounds_per_grant", ROUNDS_BUCKETS).observe(event.rounds)


def render_metrics(registry: MetricsRegistry) -> str:
    """A readable fixed-width dump of a registry (the CLI's output)."""
    lines: List[str] = []
    counters = registry.counters()
    histograms = registry.histograms()
    if counters:
        lines.append("counters")
        width = max(len(name) for name in counters)
        for name, counter in counters.items():
            lines.append(f"  {name:<{width}s}  {counter.value}")
    if histograms:
        if lines:
            lines.append("")
        lines.append("histograms")
        for name, histogram in histograms.items():
            mean = histogram.mean
            mean_text = "—" if mean is None else f"{mean:.3f}"
            lines.append(f"  {name}  count={histogram.count}  mean={mean_text}")
            buckets = [
                f"≤{bound:g}:{count}"
                for bound, count in zip(histogram.bounds, histogram.counts)
            ]
            buckets.append(f">{histogram.bounds[-1]:g}:{histogram.counts[-1]}")
            lines.append("    " + "  ".join(buckets))
    if not lines:
        return "(empty registry)"
    return "\n".join(lines)
