"""The benchmark's workloads: two cold grids and a mixed service stream.

Each workload builds its inputs from the seed before any timing, hands
the program only ``RunRequest``\\ s, measures end-to-end metrics with
tracing off, and checks every output.  With tracing on it runs the same
work through the timed wrappers of :mod:`arbbench.layers` and reports
per-layer metrics instead.

- ``grid-lanes``: a cold paper grid (the six lane protocols x N in
  {10, 30, 64} x total load in {0.5, 2.0, 7.5} x two seeds) through
  ``Session(jobs=1)`` with a fresh, empty ``ResultCache`` per pass.
  Every cell routes to lanes.
- ``grid-event``: the event-only domain at N in {10, 30} (open-loop
  Poisson, bursty MMPP, two-class priority, a synchronous bus and
  fault-injected protocols) through a cacheless ``Session(jobs=1)``.
  Every cell routes to the direct path.
- ``service-mixed``: an open-loop Poisson job stream into an in-process
  ``ArbitrationService`` with a one-shard, one-worker pool over a warmed
  cache, then a closed-loop saturation phase.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import pickle
import random
import shutil
import statistics
import tempfile
import time
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bus.timing import BusTiming
from repro.experiments.cache import ResultCache
from repro.experiments.reference import LOADS, waiting_anchor
from repro.experiments.robustness import fault_plan_for
from repro.experiments.runner import SimulationSettings
from repro.experiments.scale import Scale
from repro.service import ArbitrationService, ServiceConfig
from repro.session import RunRequest, Session, run_cell
from repro.workload.arrivals import bursty_equal_load, two_class_priority_load
from repro.workload.scenarios import equal_load, open_loop_equal_load

from arbbench.hostspeed import calibrated, slowdown
from arbbench.layers import TracedCache, TracedExecutor, traced_request_type
from arbbench.loadgen import latencies_from_due, poisson_offsets, run_closed_loop, run_open_loop
from arbbench.measure import (
    mean_waiting,
    outputs_sha256,
    percentile,
    pin_cpus,
    result_line,
    sha256_lines,
    tail_percentile,
)
from arbbench.spans import Tracer, durations, layer_self_seconds

#: The lane engine's protocols, one per kernel (both FCFS counter
#: strategies included).
LANE_PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")

#: Fixed seeds of cells whose W is compared with the paper's (the
#: library's default seed and the next).
PAPER_SEEDS = (12345, 12346)

#: Open-loop jobs per run: 1000 put ten samples beyond p99.
MIN_LATENCY_SAMPLES = 1000

#: Grid passes per run at least: 20 put ten samples beyond the median.
MIN_PASSES = 20

#: Layers timed by the traced run; their self times should cover the
#: traced wall time.
NAMED_LAYERS = (
    "session",
    "request.hash",
    "request.codec",
    "planner",
    "cache.get",
    "cache.put",
    "execute",
    "lanes",
    "event",
)

#: Every per-layer metric, zero where a workload never reaches the layer.
LAYER_METRICS = (
    "request.hash_us",
    "request.codec_us",
    "planner.self_s",
    "planner.cells_lanes",
    "planner.cells_direct",
    "planner.cells_cache",
    "cache.get_s",
    "cache.put_s",
    "cache.gets",
    "cache.puts",
    "cache.hit_ratio",
    "lanes.busy_s",
    "lanes.calls",
    "lanes.cells_per_call",
    "lanes.us_per_completion",
    "event.busy_s",
    "event.cells",
    "event.us_per_completion",
    "execute.self_s",
    "session.self_s",
    "session.dedup_cells",
    "service.queue_wait_ms_p50",
    "service.queue_wait_ms_p99",
    "service.run_ms_p50",
    "service.run_ms_p99",
    "service.exec_ms_p50",
    "service.cache_hits",
    "service.executed",
    "service.deduplicated",
    "service.rejected",
    "loadgen.late_ms_p99",
    "trace.wall_s",
    "other_s",
    "trace.overhead_frac",
)


#: Grid layer metrics that add up over passes, reported per traced pass
#: so they compare across runs that fit different numbers of passes.
PER_PASS_METRICS = (
    "planner.self_s",
    "planner.cells_lanes",
    "planner.cells_direct",
    "planner.cells_cache",
    "cache.get_s",
    "cache.put_s",
    "cache.gets",
    "cache.puts",
    "lanes.busy_s",
    "lanes.calls",
    "event.busy_s",
    "event.cells",
    "execute.self_s",
    "session.self_s",
    "session.dedup_cells",
    "trace.wall_s",
    "other_s",
)


class Report:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        self.problems: List[str] = []
        #: Human-readable lines printed before the result line.
        self.notes: List[str] = []
        #: Every host slowdown sample taken while measuring.
        self.slowdowns: List[float] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def w_error(results: Sequence, anchors: Sequence[Optional[Tuple[int, float]]]) -> float:
    """Mean relative error of simulated W against the paper's Table 4.2."""
    errors = []
    for result, anchor in zip(results, anchors):
        if anchor is None:
            continue
        paper = waiting_anchor(*anchor)
        if paper is not None:
            errors.append(abs(mean_waiting(result) - paper) / paper)
    return _mean(errors)


def latency_tail_note(latencies_ms: Sequence[float], unit: str) -> str:
    """The highest tail percentile with ten samples beyond it, as a text line.

    The tail is printed but not gated: it is made of the host's brief
    stalls as much as of the program (over 20 runs its spread between
    quartiles reached half its median), which calibration between units
    of work cannot cancel.
    """
    pct, value = tail_percentile(latencies_ms)
    return f"job_latency_ms_p{pct:g} {value:.6g} ms (n={len(latencies_ms)} {unit}, ungated)"


def _completions(results: Sequence) -> int:
    return sum(result.collector.total_recorded for result in results)


def _span_layer_metrics(spans, wall: float) -> Dict[str, float]:
    """Per-layer times from the recorded spans (counts are filled by callers)."""
    own = layer_self_seconds(spans)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics["request.hash_us"] = _mean(durations(spans, "request.hash")) * 1e6
    metrics["request.codec_us"] = _mean(durations(spans, "request.codec")) * 1e6
    metrics["planner.self_s"] = own.get("planner", 0.0)
    metrics["cache.get_s"] = own.get("cache.get", 0.0)
    metrics["cache.put_s"] = own.get("cache.put", 0.0)
    metrics["cache.gets"] = float(len(durations(spans, "cache.get")))
    metrics["cache.puts"] = float(len(durations(spans, "cache.put")))
    metrics["lanes.busy_s"] = own.get("lanes", 0.0)
    metrics["event.busy_s"] = own.get("event", 0.0)
    metrics["execute.self_s"] = own.get("execute", 0.0)
    metrics["session.self_s"] = own.get("session", 0.0)
    metrics["trace.wall_s"] = wall
    metrics["other_s"] = wall - sum(own.get(name, 0.0) for name in NAMED_LAYERS)
    return metrics


# -- grids --------------------------------------------------------------------


class GridWorkload:
    """A cold grid, one ``Session.run_requests`` gather per pass.

    A pass is one job per cell, all due when the pass starts (the
    previous pass has returned: a closed loop of one researcher).  Every
    cell's result is delivered when the gather returns, so job latency
    is a pass's duration, one sample per pass.  Pass times are taken at
    the reference host speed (:mod:`arbbench.hostspeed`).
    """

    name = ""
    #: A fresh, empty ``ResultCache`` per pass (cold cache writes), or none.
    uses_cache = False
    #: Cross-check one cell per (protocol, N) against the event engine.
    cross_check = False

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path, tracer: Tracer):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer = tracer
        self.requests: List[RunRequest] = []
        self.anchors: List[Optional[Tuple[int, float]]] = []
        self.reference = ""
        self.w_err = 0.0
        self.setup_report = Report()
        self._passes = 0

    def build(self) -> List[Tuple[RunRequest, Optional[Tuple[int, float]]]]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _cache_dir(self) -> Path:
        """A not-yet-created directory; the cache makes it on first store."""
        self._passes += 1
        return self.workdir / f"{self.name}-pass-{self._passes}"

    def _plain_pass(self, cache_dir: Optional[Path]) -> List:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        outcomes = Session(jobs=1, cache=cache).run_requests(self.requests)
        return [outcome.result for outcome in outcomes]

    def setup(self) -> None:
        built = self.build()
        self.requests = [request for request, __ in built]
        self.anchors = [anchor for __, anchor in built]
        self.setup_report = Report()
        cache_dir = self._cache_dir() if self.uses_cache else None
        results = self._plain_pass(cache_dir)
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.reference = outputs_sha256(results)
        self.w_err = w_error(results, self.anchors)
        if self.cross_check:
            self._cross_check(results)

    def _cross_check(self, results: Sequence) -> None:
        """One cell per (protocol, N) rerun on the event engine must agree."""
        seen = set()
        for request, result in zip(self.requests, results):
            group = (request.protocol, request.scenario.num_agents)
            if group in seen:
                continue
            seen.add(group)
            self.setup_report.attempted += 1
            event = run_cell(
                request.scenario, request.protocol, replace(request.settings, engine="event")
            )
            if result_line(event) != result_line(result):
                self.setup_report.fail(1, f"lanes != event engine for {request.protocol} {group}")

    def run(self) -> Report:
        pin_cpus()
        report = Report()
        report.attempted += self.setup_report.attempted
        report.failed += self.setup_report.failed
        report.problems.extend(self.setup_report.problems)
        report.digest = self.reference
        tracer = self.tracer
        tracer.enabled = self.trace
        executor = TracedExecutor(tracer)
        session = Session(executor=executor)
        traced_type = traced_request_type(tracer)
        traced_requests = [
            traced_type(r.scenario, r.protocol, r.settings, tag=r.tag) for r in self.requests
        ]
        cells = len(self.requests)
        times: List[float] = []
        completions: List[int] = []
        # The host is sampled before the first pass and after each one;
        # every pass is timed at the reference speed (arbbench.hostspeed).
        host = [slowdown()]
        hits = gets = 0
        start = time.monotonic()
        index = 0
        while time.monotonic() - start < self.seconds or index < MIN_PASSES:
            traced = self.trace and index % 2 == 1
            index += 1
            cache_dir = self._cache_dir() if self.uses_cache else None
            due = time.monotonic()
            if traced:
                span = tracer.begin("pass", ident=f"pass-{index}")
                cache = TracedCache(cache_dir, tracer) if cache_dir is not None else None
                executor.cache = cache
                outcomes = tracer.call("session", session.run_requests, traced_requests)
                tracer.end(span)
                results = [outcome.result for outcome in outcomes]
                if cache is not None:
                    hits += cache.hits
                    gets += cache.hits + cache.misses
            else:
                results = self._plain_pass(cache_dir)
            times.append(time.monotonic() - due)
            completions.append(_completions(results))
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
            report.attempted += cells
            digest = outputs_sha256(results)
            if digest != self.reference:
                report.fail(cells, f"pass {index} digest {digest} != {self.reference}")
            host.append(slowdown())
        report.slowdowns = host
        scaled = calibrated(times, host)
        rates = [n / t for n, t in zip(completions, scaled)]
        plain_times = scaled[0::2] if self.trace else scaled
        plain_cps = rates[0::2] if self.trace else rates
        if self.trace:
            passes = len(scaled[1::2])
            report.metrics = self._layer_metrics(executor, passes, hits, gets)
            speed_ratio = statistics.median(rates[1::2]) / statistics.median(plain_cps)
            report.metrics["trace.overhead_frac"] = 1.0 - speed_ratio
        else:
            report.metrics = {
                "completions_per_s": statistics.median(plain_cps),
                "capacity_jobs_per_s": statistics.median([cells / t for t in plain_times]),
                "w_err_vs_paper": self.w_err,
                "job_latency_ms_p50": percentile([t * 1e3 for t in plain_times], 50),
            }
            report.notes.append(latency_tail_note([t * 1e3 for t in plain_times], "passes"))
        return report

    def _layer_metrics(
        self, executor: TracedExecutor, passes: int, hits: int, gets: int
    ) -> Dict[str, float]:
        """Per-layer metrics; sums of time and work are per traced pass."""
        spans = self.tracer.spans
        wall = sum(durations(spans, "pass"))
        metrics = _span_layer_metrics(spans, wall)
        metrics["planner.cells_lanes"] = float(executor.routes["lanes"])
        metrics["planner.cells_direct"] = float(executor.routes["direct"])
        metrics["planner.cells_cache"] = float(executor.routes["cache"])
        metrics["cache.hit_ratio"] = hits / gets if gets else 0.0
        metrics["lanes.calls"] = float(executor.lane_calls)
        if executor.lane_calls:
            metrics["lanes.cells_per_call"] = executor.lane_cells / executor.lane_calls
            metrics["lanes.us_per_completion"] = (
                metrics["lanes.busy_s"] / executor.lane_completions * 1e6
            )
        metrics["event.cells"] = float(executor.direct_cells)
        if executor.direct_cells:
            metrics["event.us_per_completion"] = (
                metrics["event.busy_s"] / executor.direct_completions * 1e6
            )
        metrics["session.dedup_cells"] = float(executor.stats.deduplicated)
        for name in PER_PASS_METRICS:
            metrics[name] /= passes
        return metrics


class GridLanes(GridWorkload):
    name = "grid-lanes"
    uses_cache = True
    cross_check = True
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50)

    def build(self):
        base = self.seed * 100
        return [
            (
                RunRequest(
                    equal_load(n, load), protocol, replace(self.settings, seed=base + offset)
                ),
                (n, load),
            )
            for n in (10, 30, 64)
            for load in (0.5, 2.0, 7.5)
            for protocol in LANE_PROTOCOLS
            for offset in range(2)
        ]


class GridEvent(GridWorkload):
    name = "grid-event"
    settings = SimulationSettings(batches=2, batch_size=100, warmup=50)
    #: Protocols for the open-loop, bursty, priority and synchronous cells.
    protocols = ("rr", "fcfs", "fcfs-aincr")
    #: Protocols that model an injectable fault, with the robustness
    #: grid's plans.
    faulty = ("rr-faulty-register", "fcfs-glitchable")
    fault_rate = 0.01

    def build(self):
        base = self.seed * 100
        length = self.settings
        scale = Scale("bench", length.batches, length.batch_size, length.warmup)
        cells = []
        for n in (10, 30):
            for seeded, paper_seed in zip((base, base + 1), PAPER_SEEDS):
                # Open-loop cells follow the benchmark seed; the closed-loop
                # cells anchored to the paper's W run at fixed seeds, so
                # w_err_vs_paper does not swing with a 250-completion sample.
                settings = replace(self.settings, seed=seeded)
                anchored = replace(self.settings, seed=paper_seed)
                synchronous = replace(anchored, timing=BusTiming(clock_period=0.25))
                for protocol in self.protocols:
                    cells += [
                        (open_loop_equal_load(n, 0.9, max_outstanding=1), protocol, settings, None),
                        (bursty_equal_load(n, 0.9), protocol, settings, None),
                        (
                            two_class_priority_load(n, 2.0, urgent_fraction=0.2),
                            protocol,
                            anchored,
                            (n, 2.0),
                        ),
                        (equal_load(n, 2.0), protocol, synchronous, (n, 2.0)),
                    ]
                for protocol in self.faulty:
                    plan = fault_plan_for(protocol, self.fault_rate, scale, paper_seed)
                    faulted = replace(anchored, fault_plan=plan)
                    cells.append((equal_load(n, 2.0), protocol, faulted, (n, 2.0)))
        return [
            (RunRequest(scenario, protocol, settings), anchor)
            for scenario, protocol, settings, anchor in cells
        ]


# -- service ------------------------------------------------------------------


class ServiceMixed:
    """An open-loop job stream into an in-process arbitration service.

    The catalog holds paper cells: N in {10, 30, 64} x the eight paper
    loads x RR/FCFS x :data:`PAPER_SEEDS`, the same for every client and
    every benchmark seed (the seed decides who asks for what, and when).
    It is warmed through the service itself, so the first pool job and
    the cache writes happen before timing.  Jobs carry 1-4 requests:
    catalog cells by Zipf popularity, or (one request in five) a fresh
    seed, which misses the first time, runs as a small lane pack in the
    pool worker, is written back and then hits.
    """

    name = "service-mixed"
    settings = SimulationSettings(batches=2, batch_size=200, warmup=50)
    #: Offered rate of the open-loop phase, jobs per reference second
    #: (:mod:`arbbench.hostspeed`): each window of the schedule is
    #: stretched by the host's slowdown sampled before it, so the service
    #: runs at the same utilisation on a slow host and a fast one.  Fixed, so a
    #: faster service shows as lower latency at the same load.  The rate
    #: sits near a third of the closed-loop capacity on a 2-CPU x86-64
    #: container; at half, queueing amplified every speed swing into
    #: the median latency.
    rate = 120.0
    #: Share of ``--seconds`` spent in the open-loop phase.
    open_share = 0.5
    #: Jobs kept in flight by the closed-loop phase.
    clients = 8
    #: Both phases run in segments of this many seconds (of the schedule,
    #: in the open loop) with a host sample between them.  The closed
    #: loop's rates are medians over segments, and a traced run traces
    #: every other closed-loop segment to measure the overhead.
    segment_seconds = 1.0
    #: Share of requests for fresh seeds, and the share of those that
    #: introduce a new seed (a miss); the rest repeat an earlier fresh
    #: seed (a hit), so misses arrive at a steady rate all run long.
    fresh_share = 0.2
    fresh_new = 0.25
    zipf_exponent = 1.1
    #: Closed-loop jobs pre-generated per second of the phase.
    closed_jobs_per_s = 1000
    #: A job not finished within this many seconds counts as failed.
    job_timeout = 60.0
    #: Fresh cells re-run per direct session by the output check.
    check_chunk = 64

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path, tracer: Tracer):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer = tracer
        self.service: Optional[ArbitrationService] = None
        self.cache: Optional[ResultCache] = None
        self.catalog: List[RunRequest] = []
        self.anchors: List[Tuple[int, float]] = []
        #: Fresh requests by cache key, kept as wire JSON: strings add
        #: nothing to the heap the garbage collector walks.
        self.fresh: Dict[str, str] = {}
        self.reference: Dict[str, str] = {}
        self.w_err = 0.0
        self.open_jobs: List[List[str]] = []
        self.closed_jobs: List[List[str]] = []
        self.offsets: List[float] = []

    @property
    def open_count(self) -> int:
        return max(MIN_LATENCY_SAMPLES, round(self.rate * self.open_share * self.seconds))

    def _windows(self) -> List[Tuple[int, int]]:
        """The open-loop jobs as (first, end) index ranges of ``segment_seconds`` each."""
        count = math.ceil(self.offsets[-1] / self.segment_seconds)
        edges = [bisect.bisect_left(self.offsets, k * self.segment_seconds) for k in range(count)]
        edges.append(len(self.offsets))
        return [(first, last) for first, last in zip(edges, edges[1:]) if first < last]

    @property
    def closed_segments(self) -> int:
        closed_seconds = self.seconds - self.open_count / self.rate
        return max(4, round(closed_seconds / self.segment_seconds))

    def build(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        entries = [
            (RunRequest(equal_load(n, load), protocol, replace(self.settings, seed=seed)), n, load)
            for n in (10, 30, 64)
            for load in LOADS
            for protocol in ("rr", "fcfs")
            for seed in PAPER_SEEDS
        ]
        self.catalog = [request for request, __, __ in entries]
        self.anchors = [(n, load) for __, n, load in entries]
        # Popularity ranks go round-robin over N (each N's cells shuffled
        # by the seed), so every seed gives each bus width the same share
        # of requests and the per-job cost does not depend on which cell
        # happens to rank first.
        groups = [
            [index for index, (__, n, __) in enumerate(entries) if n == width]
            for width in (10, 30, 64)
        ]
        for group in groups:
            rng.shuffle(group)
        order = [index for ranks in zip(*groups) for index in ranks]
        weights = [0.0] * len(order)
        for rank, position in enumerate(order):
            weights[position] = 1.0 / (rank + 1) ** self.zipf_exponent
        catalog_wire = [request.to_json() for request in self.catalog]
        templates = [request for request, n, __ in entries if n == 10]
        fresh_wire: List[str] = []
        self.fresh = {}

        def fresh_request() -> str:
            if fresh_wire and rng.random() >= self.fresh_new:
                return fresh_wire[rng.randrange(len(fresh_wire))]
            template = rng.choice(templates)
            seed = self.seed * 100_000 + len(fresh_wire)
            request = RunRequest(
                template.scenario, template.protocol, replace(template.settings, seed=seed)
            )
            fresh_wire.append(request.to_json())
            self.fresh[request.cache_key()] = fresh_wire[-1]
            return fresh_wire[-1]

        def draw_job() -> List[str]:
            return [
                fresh_request()
                if rng.random() < self.fresh_share
                else rng.choices(catalog_wire, weights)[0]
                for __ in range(rng.randint(1, 4))
            ]

        self.open_jobs = [draw_job() for __ in range(self.open_count)]
        self.offsets = poisson_offsets(self.rate, self.open_count, rng)
        closed = math.ceil(
            self.closed_segments * self.segment_seconds * self.closed_jobs_per_s
        )
        self.closed_jobs = [draw_job() for __ in range(closed)]

    def setup(self) -> None:
        self.close()
        self.tracer.enabled = False
        self.build()
        direct = Session(jobs=1).run_requests(self.catalog)
        self.reference = {
            outcome.request.cache_key(): pickle_digest(outcome.result) for outcome in direct
        }
        self.w_err = w_error([outcome.result for outcome in direct], self.anchors)
        cache_dir = Path(tempfile.mkdtemp(prefix="service-cache-", dir=self.workdir))
        self.cache = TracedCache(cache_dir, self.tracer) if self.trace else ResultCache(cache_dir)
        # One shard, one worker: pickling across the pool is in the path
        # and at most two processes are busy, both on one CPU (see
        # pin_cpus).  The queue is deep enough
        # that a backlog behind a stall waits instead of being refused.
        # The registry keeps 64 finished jobs instead of the default 1024:
        # 1024 jobs' result objects make every full garbage collection a
        # 0.2-0.3 s stall of all threads, and the latency tail would then
        # read the length of one collection.
        self.service = ArbitrationService(
            cache=self.cache,
            config=ServiceConfig(shards=1, workers=1, queue_limit=4096, job_retention=64),
        )
        self.service.start()
        # The warm pass: the whole catalog through the service (pool
        # start, lane packs, cache writes), four requests per job.
        warm = [
            self.service.submit(self.catalog[i : i + 4]) for i in range(0, len(self.catalog), 4)
        ]
        for job in warm:
            job.wait(self.job_timeout)
            if job.state != "done":
                raise RuntimeError(f"warm-up job {job.job_id} finished {job.state}: {job.error}")

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.cache is not None:
            shutil.rmtree(self.cache.directory, ignore_errors=True)
            self.cache = None

    def run(self) -> Report:
        pin_cpus()
        report = Report()
        service = self.service
        tracer = self.tracer
        decode = (traced_request_type(tracer) if self.trace else RunRequest).from_json
        tracer.enabled = self.trace
        before = service.stats_snapshot()["counters"]
        cache_before = (self.cache.hits, self.cache.misses, self.cache.stores)

        # Finished jobs are settled into digests of their results' pickles
        # as they complete, so the benchmark holds no result objects: a
        # client that kept every result would grow the heap (and peak
        # memory with the service's speed) and stall all threads in
        # collection.
        inflight: deque = deque()
        opened: List[Tuple[float, Served]] = []

        def settle_finished() -> None:
            while inflight and inflight[0][1].terminal:
                due, job = inflight.popleft()
                opened.append((due, Served(job)))

        def send_open(index: int, due: float) -> None:
            wires = self.open_jobs[index]
            inflight.append((due, service.submit([decode(wire) for wire in wires])))
            settle_finished()

        # The schedule runs in windows of ``segment_seconds`` with a host
        # sample between them, once the window's jobs have finished.  A
        # window's schedule is stretched by the slowdown sampled before
        # it, so the offered load is fixed in reference time, and its
        # jobs' latencies are divided by the mean of the samples around it.
        host = [slowdown()]
        latencies_ms: List[float] = []
        lateness: List[float] = []
        window_start = time.monotonic()
        for first, last in self._windows():
            origin = self.offsets[first - 1] if first else 0.0
            stretch = host[-1]
            lateness += run_open_loop(
                [(offset - origin) * stretch for offset in self.offsets[first:last]],
                lambda index, due: send_open(first + index, due),
            )
            while inflight:
                due, job = inflight.popleft()
                job.wait(self.job_timeout)
                opened.append((due, Served(job)))
            host.append(slowdown())
            window = opened[first:last]
            factor = (host[-2] + host[-1]) / 2.0
            latencies_ms += [
                latency * 1e3 / factor
                for latency in latencies_from_due(
                    [due for due, __ in window],
                    [served.finished if served.state == "done" else None for __, served in window],
                )
            ]
        closed_start = time.monotonic()
        first_closed = len(host) - 1

        # Per-layer metrics cover the open-loop phase; the closed-loop
        # phase traces every other segment to measure the overhead.  The
        # host is sampled after each segment, once its jobs have drained.
        mid = service.stats_snapshot()["counters"]
        cache_mid = (self.cache.hits, self.cache.misses, self.cache.stores)
        closed: List[Served] = []
        sent = itertools.count()

        def send_closed(__: int):
            wires = self.closed_jobs[next(sent) % len(self.closed_jobs)]
            return service.submit([decode(wire) for wire in wires])

        def wait_closed(job) -> Served:
            job.wait(self.job_timeout)
            closed.append(Served(job))
            return closed[-1]

        jobs: List[int] = []
        completions: List[int] = []
        times: List[float] = []
        for segment in range(self.closed_segments):
            tracer.enabled = self.trace and segment % 2 == 1
            completed, elapsed = run_closed_loop(
                self.clients, self.segment_seconds, send_closed, wait_closed
            )
            tracer.enabled = False
            host.append(slowdown())
            jobs.append(len(completed))
            completions.append(sum(served.completions for served in completed))
            times.append(elapsed)
        report.slowdowns = host
        scaled = calibrated(times, host[first_closed:])
        job_rates = [n / t if t > 0 else 0.0 for n, t in zip(jobs, scaled)]
        completion_rates = [n / t if t > 0 else 0.0 for n, t in zip(completions, scaled)]

        served_open = [served for __, served in opened]
        report.attempted = len(served_open) + len(closed)
        self._check(served_open + closed, report)
        report.digest = sha256_lines(
            digest for served in served_open for __, digest, __ in served.outcomes
        )
        if self.trace:
            spans = [span for span in tracer.spans if span.end <= closed_start]
            report.metrics = self._layer_metrics(
                spans,
                served_open,
                lateness,
                (before, mid),
                (cache_before, cache_mid),
                closed_start - window_start,
            )
            speed_ratio = statistics.median(job_rates[1::2]) / statistics.median(job_rates[0::2])
            report.metrics["trace.overhead_frac"] = 1.0 - speed_ratio
        else:
            report.metrics = {
                "completions_per_s": statistics.median(completion_rates),
                "capacity_jobs_per_s": statistics.median(job_rates),
                "w_err_vs_paper": self.w_err,
                "job_latency_ms_p50": percentile(latencies_ms, 50),
            }
            report.notes.append(latency_tail_note(latencies_ms, "jobs"))
        return report

    def _check(self, served: Sequence["Served"], report: Report) -> None:
        """Every result must pickle-equal the direct, cacheless session's.

        Results are compared by the SHA-256 of their pickles.
        """
        fresh_keys = {
            key for job in served for key, __, __ in job.outcomes if key not in self.reference
        }
        unknown = fresh_keys - set(self.fresh)
        if unknown:
            report.fail(len(unknown), f"{len(unknown)} served keys match no generated request")
        fresh_requests = [
            RunRequest.from_json(self.fresh[key]) for key in sorted(fresh_keys - unknown)
        ]
        expected = dict(self.reference)
        # In chunks, so peak memory does not grow with the number of fresh
        # cells a fast service got through.
        for start in range(0, len(fresh_requests), self.check_chunk):
            chunk = fresh_requests[start : start + self.check_chunk]
            for outcome in Session(jobs=1).run_requests(chunk):
                expected[outcome.request.cache_key()] = pickle_digest(outcome.result)
        for job in served:
            if job.state != "done":
                report.fail(1, f"{job.job_id} finished {job.state}: {job.error}")
            elif any(expected.get(key) != digest for key, digest, __ in job.outcomes):
                report.fail(1, f"{job.job_id}: a result differs from the direct session's")

    def _layer_metrics(self, spans, served, lateness, counters, cache_counters, window):
        """Per-layer metrics of the open-loop phase (``window`` seconds).

        ``counters`` and ``cache_counters`` are (start, end) snapshots of
        the service's counters and of the cache's hits, misses and stores.
        """
        before, after = counters
        metrics = _span_layer_metrics(spans, window)
        done = [job for job in served if job.state == "done"]
        queue_wait = [(job.started - job.submitted) * 1e3 for job in done]
        run = [(job.finished - job.started) * 1e3 for job in done]
        cache_spans = sorted(
            (span.start, span.end) for span in spans if span.name in ("cache.get", "cache.put")
        )
        exec_ms = [
            run_ms - _overlap(cache_spans, job.started, job.finished) * 1e3
            for job, run_ms in zip(done, run)
        ]
        metrics["service.queue_wait_ms_p50"] = percentile(queue_wait, 50)
        metrics["service.queue_wait_ms_p99"] = percentile(queue_wait, 99)
        metrics["service.run_ms_p50"] = percentile(run, 50)
        metrics["service.run_ms_p99"] = percentile(run, 99)
        metrics["service.exec_ms_p50"] = percentile(exec_ms, 50)
        for name in ("cache_hits", "executed", "deduplicated", "rejected"):
            key = f"service.{name}"
            metrics[key] = float(after.get(key, 0) - before.get(key, 0))
        hits, misses, stores = (end - start for start, end in zip(*cache_counters))
        metrics["cache.gets"] = float(hits + misses)
        metrics["cache.puts"] = float(stores)
        metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["loadgen.late_ms_p99"] = percentile(lateness, 99) * 1e3
        return metrics


class Served:
    """A finished job reduced to what the checks and metrics need.

    Each outcome keeps its cache key, the SHA-256 of the result's pickle
    and its simulated completions: a few dozen bytes, invisible to the
    garbage collector, in place of a result object.
    """

    __slots__ = ("job_id", "state", "error", "submitted", "started", "finished", "outcomes")

    def __init__(self, job) -> None:
        self.job_id = job.job_id
        self.state = job.state
        self.error = job.error
        self.submitted = job.submitted_at
        self.started = job.started_at
        self.finished = job.finished_at
        self.outcomes = [
            (
                outcome.cache_key,
                pickle_digest(outcome.result),
                outcome.result.collector.total_recorded,
            )
            for outcome in (job.outcomes or ())
        ]

    @property
    def completions(self) -> int:
        return sum(completions for __, __, completions in self.outcomes)


def pickle_digest(result) -> str:
    """SHA-256 of ``result``'s pickle: equal digests mean pickle-equal results."""
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def _overlap(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Total length of sorted, disjoint ``intervals`` inside ``[start, end]``."""
    total = 0.0
    index = max(0, bisect.bisect_left(intervals, (start, start)) - 1)
    while index < len(intervals) and intervals[index][0] < end:
        lo, hi = intervals[index]
        total += max(0.0, min(hi, end) - max(lo, start))
        index += 1
    return total


WORKLOADS = {cls.name: cls for cls in (GridLanes, GridEvent, ServiceMixed)}
