"""The structured telemetry schema: one record per arbitration pass.

An :class:`ArbitrationEvent` captures exactly what a logic analyser on
the backplane would see of one arbitration: when it started, who had
their arbitration numbers on the lines, how many settle rounds were
burned, who won (or which anomaly prevented a winner), and whether the
bus watchdog or the fault injector had a hand in it.  The schema is
flat and JSON-serialisable so streams can be diffed byte-for-byte —
the golden-trace suite in ``tests/golden/`` relies on that.

:class:`TelemetrySettings` is the declarative knob block embedded in
:class:`~repro.experiments.runner.SimulationSettings`; it is frozen,
picklable and cache-keyable, so telemetry-enabled cells flow through
a parallel session and the result cache like any other cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["ArbitrationEvent", "TelemetrySettings", "event_from_dict"]

#: Field order of the canonical JSON encoding (stable across runs and
#: platforms; ``repr``-based float formatting is exact round-trip).
_FIELDS = (
    "index",
    "time",
    "competitors",
    "winner",
    "rounds",
    "settle_time",
    "anomaly",
    "watchdog_attempt",
    "fault_tags",
)


@dataclass(frozen=True)
class ArbitrationEvent:
    """One arbitration pass, as observed on the bus.

    Attributes
    ----------
    index:
        0-based sequence number of the arbitration within the run
        (anomalous passes count — they spent a settle period).
    time:
        Simulated time at which the arbitration started.
    competitors:
        Static identities whose arbitration numbers were on the lines,
        ascending.
    winner:
        The agent the lines identified, or ``None`` when the pass ended
        in an anomaly.
    rounds:
        Full arbitration passes consumed — 1 for every protocol except
        RR implementation 3's occasional immediate second pass (§3.1).
    settle_time:
        Simulated time the arbitration spent settling
        (``rounds × arbitration_time``).
    anomaly:
        ``None`` for a clean pass, else ``"no-winner"`` or
        ``"duplicate-winner"`` — the two classes the watchdog recovers.
    watchdog_attempt:
        The watchdog's open-episode anomaly count when this pass ran:
        0 outside any episode; for a retry (clean or not) it names
        which attempt this was.
    fault_tags:
        Effects the fault injector had on this pass (``"deviated"``
        when line faults silently changed the winner), sorted.
    """

    index: int
    time: float
    competitors: Tuple[int, ...]
    winner: Optional[int]
    rounds: int
    settle_time: float
    anomaly: Optional[str] = None
    watchdog_attempt: int = 0
    fault_tags: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-data form, fields in canonical order."""
        return {
            "index": self.index,
            "time": self.time,
            "competitors": list(self.competitors),
            "winner": self.winner,
            "rounds": self.rounds,
            "settle_time": self.settle_time,
            "anomaly": self.anomaly,
            "watchdog_attempt": self.watchdog_attempt,
            "fault_tags": list(self.fault_tags),
        }

    def to_json(self) -> str:
        """One canonical JSON line (no spaces, fixed field order)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))


def event_from_dict(payload: Mapping) -> ArbitrationEvent:
    """Rebuild an event from :meth:`ArbitrationEvent.to_dict` output.

    Unknown keys are rejected so schema drift in a recorded stream is
    caught where it is diagnosable, not downstream.
    """
    unknown = sorted(set(payload) - set(_FIELDS))
    if unknown:
        raise ConfigurationError(
            f"unknown ArbitrationEvent fields {unknown}; expected {sorted(_FIELDS)}"
        )
    return ArbitrationEvent(
        index=payload["index"],
        time=payload["time"],
        competitors=tuple(payload["competitors"]),
        winner=payload["winner"],
        rounds=payload["rounds"],
        settle_time=payload["settle_time"],
        anomaly=payload.get("anomaly"),
        watchdog_attempt=payload.get("watchdog_attempt", 0),
        fault_tags=tuple(payload.get("fault_tags", ())),
    )


@dataclass(frozen=True)
class TelemetrySettings:
    """What one run should record; embedded in ``SimulationSettings``.

    All three knobs default off; any of them being on changes what a
    :class:`~repro.stats.summary.RunResult` carries, so the block is
    part of the run's cache identity (:func:`spec_key`).

    Attributes
    ----------
    events:
        Retain the full :class:`ArbitrationEvent` stream on
        ``RunResult.events`` (in-memory; sized like the run).
    metrics:
        Accumulate a :class:`~repro.observability.metrics.
        MetricsRegistry` on ``RunResult.metrics``.
    jsonl_path:
        Stream every event to this JSONL file as the run executes.
    """

    events: bool = False
    metrics: bool = False
    jsonl_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not (self.events or self.metrics or self.jsonl_path):
            raise ConfigurationError(
                "TelemetrySettings with every knob off records nothing; "
                "leave SimulationSettings.telemetry as None instead"
            )

    def spec_key(self) -> list:
        """Canonical JSON-serialisable description, for cache keying."""
        return [self.events, self.metrics, self.jsonl_path]

