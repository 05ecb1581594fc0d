"""The declarative unit of orchestration: one requested simulation.

A :class:`RunRequest` is everything needed to (re)produce one run —
scenario, protocol, settings (including telemetry, fault plan, watchdog
and engine preference) plus a free-form tag — and is JSON-round-trippable
so it can cross a process or wire boundary intact (the future
arbitration-as-a-service front end speaks this format).

The codec is total over the library's own workload vocabulary: every
:class:`~repro.workload.distributions.Distribution` the builders emit
(deterministic, exponential, Erlang, hyperexponential, MMPP/on-off and
trace replay),
fault plans, watchdog policies, bus timing and telemetry blocks.
``from_dict(to_dict(request))`` reconstructs a request whose epoch-6
cache key is byte-identical to the original's — the invariance the
round-trip property suite pins down.  Floats survive exactly: JSON
carries their shortest ``repr``, which CPython parses back to the same
IEEE-754 double.

A request hashes itself once: :meth:`RunRequest.cache_key` keeps its
digest on the object, and :meth:`RunRequest.resolved` hands it on, so a
popular request pays for SHA-256 the first time only.
:meth:`RunRequest.from_json` interns what it decodes in a bounded table
keyed by the exact payload, so the same wire text decodes to the same
object (and the same memoized key) without re-parsing.  Requests whose
scenario carries a stateful distribution (MMPP phase, trace-replay
cursor) are neither memoized nor interned: their key follows their
state.  :meth:`RunRequest.from_dict` does not intern; it builds a fresh
request on every call.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.workload.arrivals import MarkovModulatedPoisson
from repro.workload.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
)
from repro.workload.scenarios import AgentSpec, ScenarioSpec
from repro.workload.traces import TraceDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    # SimulationSettings lives in repro.experiments.runner, which the
    # session package must not import at module level (the experiments
    # package imports session right back); runtime references resolve
    # lazily inside the codec functions instead.
    from repro.experiments.runner import SimulationSettings
    from repro.stats.summary import RunResult  # noqa: F401

__all__ = ["RunRequest", "clear_interned"]

#: Wire-format version; bump on incompatible codec changes.
FORMAT_VERSION = 1

#: Most decoded requests :meth:`RunRequest.from_json` keeps interned.
INTERN_LIMIT = 256

#: ``(cls, payload) -> request``, least recently used first.  Keyed on
#: the class too, so a subclass's ``from_json`` yields its own instances.
_interned: "OrderedDict[Tuple[type, str], RunRequest]" = OrderedDict()
_intern_lock = threading.Lock()


def clear_interned() -> None:
    """Empty :meth:`RunRequest.from_json`'s intern table."""
    with _intern_lock:
        _interned.clear()


def _distribution_to_dict(dist: Distribution) -> Dict[str, Any]:
    if isinstance(dist, Deterministic):
        return {"type": "deterministic", "value": dist.mean}
    if isinstance(dist, Exponential):
        return {"type": "exponential", "mean": dist.mean}
    if isinstance(dist, Erlang):
        return {"type": "erlang", "mean": dist.mean, "shape": dist.shape}
    if isinstance(dist, Hyperexponential):
        return {"type": "hyperexponential", "mean": dist.mean, "cv": dist.cv}
    if isinstance(dist, MarkovModulatedPoisson):
        # Serialise the *current* modulating phase, so a request captured
        # mid-burst resumes in the same phase.
        return {
            "type": "mmpp",
            "rates": list(dist.rates),
            "switch_rates": list(dist.switch_rates),
            "phase": dist.phase,
        }
    if isinstance(dist, TraceDistribution):
        # Serialise the *current* replay position, so a request captured
        # mid-trace resumes where it stood.
        return {
            "type": "trace",
            "samples": list(dist._samples),
            "offset": dist._index,
            "cycle": dist._cycle,
        }
    raise ConfigurationError(
        f"cannot serialise distribution type {type(dist).__name__!r}; "
        "the RunRequest wire format covers the library's own workload "
        "vocabulary only"
    )


def _distribution_from_dict(doc: Dict[str, Any]) -> Distribution:
    kind = doc.get("type")
    if kind == "deterministic":
        return Deterministic(doc["value"])
    if kind == "exponential":
        return Exponential(doc["mean"])
    if kind == "erlang":
        return Erlang(doc["mean"], doc["shape"])
    if kind == "hyperexponential":
        return Hyperexponential(doc["mean"], doc["cv"])
    if kind == "mmpp":
        return MarkovModulatedPoisson(
            rates=tuple(doc["rates"]),
            switch_rates=tuple(doc["switch_rates"]),
            phase=doc.get("phase", 0),
        )
    if kind == "trace":
        return TraceDistribution(
            doc["samples"], offset=doc.get("offset", 0), cycle=doc.get("cycle", True)
        )
    raise ConfigurationError(f"unknown distribution type {kind!r} in request")


def _scenario_to_dict(scenario: ScenarioSpec) -> Dict[str, Any]:
    return {
        "name": scenario.name,
        "notes": scenario.notes,
        "agents": [
            {
                "agent_id": agent.agent_id,
                "interrequest": _distribution_to_dict(agent.interrequest),
                "priority_fraction": agent.priority_fraction,
                "open_loop": agent.open_loop,
                "max_outstanding": agent.max_outstanding,
            }
            for agent in scenario.agents
        ],
    }


def _scenario_from_dict(doc: Dict[str, Any]) -> ScenarioSpec:
    return ScenarioSpec(
        name=doc["name"],
        notes=doc.get("notes", ""),
        agents=tuple(
            AgentSpec(
                agent_id=agent["agent_id"],
                interrequest=_distribution_from_dict(agent["interrequest"]),
                priority_fraction=agent.get("priority_fraction", 0.0),
                open_loop=agent.get("open_loop", False),
                max_outstanding=agent.get("max_outstanding", 1),
            )
            for agent in doc["agents"]
        ),
    )


def _fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    return {
        "events": [
            {
                "time": event.time,
                "kind": event.kind.value,
                "agent_id": event.agent_id,
                "line": event.line,
                "stuck_value": event.stuck_value,
                "duration": event.duration,
                "value": event.value,
            }
            for event in plan.events
        ]
    }


def _fault_plan_from_dict(doc: Dict[str, Any]) -> FaultPlan:
    return FaultPlan(
        events=tuple(
            FaultEvent(
                time=event["time"],
                kind=FaultKind(event["kind"]),
                agent_id=event.get("agent_id"),
                line=event.get("line", 0),
                stuck_value=event.get("stuck_value", 1),
                duration=event.get("duration", 0.0),
                value=event.get("value", 0),
            )
            for event in doc["events"]
        )
    )


def _settings_to_dict(settings: "SimulationSettings") -> Dict[str, Any]:
    doc: Dict[str, Any] = {}
    for spec in fields(settings):
        value = getattr(settings, spec.name)
        if spec.name == "timing":
            value = {
                "transaction_time": value.transaction_time,
                "arbitration_time": value.arbitration_time,
                "clock_period": value.clock_period,
            }
        elif spec.name == "fault_plan":
            value = None if value is None else _fault_plan_to_dict(value)
        elif spec.name == "watchdog":
            value = None if value is None else {
                "max_attempts": value.max_attempts,
                "timeout": value.timeout,
                "backoff": value.backoff,
            }
        elif spec.name == "telemetry":
            value = None if value is None else {
                "events": value.events,
                "metrics": value.metrics,
                "jsonl_path": value.jsonl_path,
            }
        doc[spec.name] = value
    return doc


def _settings_from_dict(doc: Dict[str, Any]) -> "SimulationSettings":
    from repro.experiments.runner import SimulationSettings

    known = {spec.name for spec in fields(SimulationSettings)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown settings field(s) in request: {', '.join(unknown)}"
        )
    kwargs = dict(doc)
    if "timing" in kwargs:
        kwargs["timing"] = BusTiming(**kwargs["timing"])
    if kwargs.get("fault_plan") is not None:
        kwargs["fault_plan"] = _fault_plan_from_dict(kwargs["fault_plan"])
    if kwargs.get("watchdog") is not None:
        kwargs["watchdog"] = WatchdogPolicy(**kwargs["watchdog"])
    if kwargs.get("telemetry") is not None:
        kwargs["telemetry"] = TelemetrySettings(**kwargs["telemetry"])
    return SimulationSettings(**kwargs)


@dataclass(frozen=True)
class RunRequest:
    """One requested simulation: the session layer's unit of work.

    ``settings`` defaults to a fresh
    :class:`~repro.experiments.runner.SimulationSettings` at resolution
    time (see :func:`resolved`) rather than at construction, mirroring
    :func:`~repro.experiments.runner.run_simulation`'s own default.
    """

    scenario: ScenarioSpec
    protocol: str
    settings: Optional["SimulationSettings"] = None
    #: Caller's label (e.g. ``"load=1.50/rr"``); carried through
    #: untouched for diagnostics.
    tag: Optional[str] = None

    def resolved(self, engine: Optional[str] = None) -> "RunRequest":
        """This request with defaults filled and ``engine`` applied.

        ``engine`` overrides the settings' own declaration (the CLI's
        ``--engine`` reaches grids that build settings internally this
        way); ``None`` leaves it alone.  The override never changes
        cache keys — the engine selector is not part of a cell's
        identity (epoch 6).
        """
        settings = self.settings
        if settings is None:
            from repro.experiments.runner import SimulationSettings

            settings = SimulationSettings()
        if engine is not None and settings.engine != engine:
            settings = replace(settings, engine=engine)
        if settings is self.settings:
            return self
        resolved = replace(self, settings=settings)
        key = self.__dict__.get("_key")
        if key is not None:
            object.__setattr__(resolved, "_key", key)
        return resolved

    @property
    def stateful(self) -> bool:
        """True when a distribution of the scenario carries sampling state."""
        return any(agent.interrequest.stateful for agent in self.scenario.agents)

    def cache_key(self) -> str:
        """The request's epoch-6 content hash (engine-independent).

        Computed once per request object and kept on it, unless the
        request is :attr:`stateful` (its key follows the state).
        """
        key = self.__dict__.get("_key")
        if key is None:
            from repro.experiments.cache import cache_key

            key = cache_key(*self.resolved().as_cell())
            if not self.stateful:
                object.__setattr__(self, "_key", key)
        return key

    def as_cell(self) -> Tuple[ScenarioSpec, str, "SimulationSettings"]:
        """The ``(scenario, protocol, settings)`` tuple engines consume."""
        return (self.scenario, self.protocol, self.settings)

    # -- wire format ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe description of this request (resolved settings)."""
        resolved = self.resolved()
        return {
            "format": FORMAT_VERSION,
            "protocol": resolved.protocol,
            "tag": resolved.tag,
            "scenario": _scenario_to_dict(resolved.scenario),
            "settings": _settings_to_dict(resolved.settings),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunRequest":
        """Rebuild a request from :meth:`to_dict`'s output."""
        version = doc.get("format")
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported RunRequest format {version!r} "
                f"(this build speaks {FORMAT_VERSION})"
            )
        return cls(
            scenario=_scenario_from_dict(doc["scenario"]),
            protocol=doc["protocol"],
            settings=_settings_from_dict(doc["settings"]),
            tag=doc.get("tag"),
        )

    def to_json(self) -> str:
        """This request as one canonical JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "RunRequest":
        """Rebuild a request from :meth:`to_json`'s output.

        Decoded requests are interned (see the module docstring): the
        same payload returns the same object while it stays among the
        :data:`INTERN_LIMIT` most recently decoded.  A payload that
        fails to decode, or decodes to a :attr:`stateful` request, is
        never stored.
        """
        entry = (cls, payload)
        with _intern_lock:
            request = _interned.get(entry)
            if request is not None:
                _interned.move_to_end(entry)
                return request
        request = cls._decode_json(payload)
        if not request.stateful:
            with _intern_lock:
                _interned[entry] = request
                if len(_interned) > INTERN_LIMIT:
                    _interned.popitem(last=False)
        return request

    @classmethod
    def _decode_json(cls, payload: str) -> "RunRequest":
        try:
            doc = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed RunRequest JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"RunRequest JSON must be an object, got {type(doc).__name__}"
            )
        return cls.from_dict(doc)
