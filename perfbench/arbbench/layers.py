"""Timed wrappers around the program's layers, for the traced run.

Each wrapper calls the layer's public function inside a span and
otherwise behaves exactly like it:

- :func:`traced_request_type`: a ``RunRequest`` subclass whose
  ``cache_key`` (``request.hash``) and ``from_json``
  (``request.codec``) are timed.  ``dataclasses.replace`` keeps the
  subclass, so the hashing the planner, the session's dedup and the
  service's dispatcher do on these requests is timed wherever it runs;
- :class:`TracedCache`: a ``ResultCache`` whose ``get``/``put`` are
  timed (``cache.get`` / ``cache.put``);
- :class:`TracedExecutor`: the executor behind ``Session``.  It plans
  with ``plan_runs`` (``planner``) and runs the plan with
  ``execute_plan`` (``execute``), handing it timed lane and direct
  runners (``lanes`` around ``run_lanes``, ``event`` around
  ``run_cell``) exactly as ``SweepExecutor``'s serial path does.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import List, Sequence

from repro.engine.batch import run_lanes
from repro.experiments.cache import ResultCache
from repro.session import RunRequest, SessionStats, execute_plan, plan_runs, run_cell

from arbbench.spans import Tracer


def traced_request_type(tracer: Tracer) -> type:
    """A ``RunRequest`` subclass reporting hashing and decoding to ``tracer``."""

    class TracedRunRequest(RunRequest):
        def cache_key(self) -> str:
            return tracer.call("request.hash", super().cache_key)

        @classmethod
        def from_json(cls, payload: str) -> RunRequest:
            return tracer.call("request.codec", super().from_json, payload)

    return TracedRunRequest


class TracedCache(ResultCache):
    """A ``ResultCache`` whose reads and writes are spans."""

    def __init__(self, directory, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def get(self, key):
        return self.tracer.call("cache.get", super().get, key)

    def put(self, key, result) -> None:
        self.tracer.call("cache.put", super().put, key, result)


class TracedExecutor:
    """``SweepExecutor(jobs=1)``'s plan-and-execute path, stage by stage.

    Satisfies the executor duck type ``Session`` accepts
    (``engine``, ``stats``, ``run_requests``) and counts what each
    stage did: planned routes, lane calls and cells, direct cells and
    the simulated completions each engine produced.
    """

    engine = None

    def __init__(self, tracer: Tracer, cache=None) -> None:
        self.tracer = tracer
        self.cache = cache
        self.stats = SessionStats()
        self.routes: Counter = Counter()
        self.lane_calls = 0
        self.lane_cells = 0
        self.lane_completions = 0
        self.direct_cells = 0
        self.direct_completions = 0

    def run_requests(self, requests: Sequence[RunRequest], control=None):
        plan = self.tracer.call("planner", plan_runs, requests, self.cache)
        for run in plan.runs:
            self.routes[run.route] += 1
        return self.tracer.call(
            "execute", execute_plan, plan, self.cache, self.stats, self._lanes, self._direct
        )

    def _lanes(self, cells):
        results = self.tracer.call("lanes", run_lanes, cells)
        self.lane_calls += 1
        self.lane_cells += len(cells)
        self.lane_completions += sum(result.collector.total_recorded for result in results)
        return results

    def _direct(self, requests: Sequence[RunRequest]) -> List:
        results = []
        for request in requests:
            # A private scenario copy, as SweepExecutor's serial path takes.
            scenario = copy.deepcopy(request.scenario)
            result = self.tracer.call(
                "event", run_cell, scenario, request.protocol, request.settings
            )
            self.direct_cells += 1
            self.direct_completions += result.collector.total_recorded
            results.append(result)
        return results
