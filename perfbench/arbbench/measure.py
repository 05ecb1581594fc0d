"""Summary statistics, output digests, memory and CPU placement for the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import resource
from pathlib import Path
from typing import Iterable, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one outlier cannot be the whole tail.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile ``pct`` (0-100) of ``values``.

    Raises :class:`ValueError` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond the requested rank (p99 needs 1000 samples, p50
    needs 20).
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = len(values)
    beyond = count * (100.0 - pct) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{count} samples leave {beyond:.1f}"
        )
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * count)
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """The highest of p99, p95, p90, p75 and p50 that :func:`percentile`
    can report for ``values``, and its value."""
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES:
            return pct, percentile(values, pct)
    raise ValueError(f"{len(values)} samples leave no percentile with {MIN_TAIL_SAMPLES} beyond it")


def result_line(result) -> str:
    """The digest-relevant content of one ``RunResult`` as one JSON line.

    Agent totals, completions, and each batch's mean waiting time W and
    throughput (the run's W and throughput are their means); floats
    travel as ``repr`` so every digit counts.
    """
    batches = result.collector.completed_batches()
    record = [
        result.protocol,
        result.scenario.name,
        result.seed,
        sorted(result.collector.agent_totals.items()),
        result.collector.total_recorded,
        [repr(batch.mean_waiting) for batch in batches],
        [repr(batch.throughput()) for batch in batches],
    ]
    return json.dumps(record, separators=(",", ":"))


def sha256_lines(lines: Iterable[str]) -> str:
    """SHA-256 over ``lines``, each newline-terminated, in order."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def outputs_sha256(results: Iterable) -> str:
    """The ``outputs_sha256`` digest: every result's :func:`result_line`, in order."""
    return sha256_lines(result_line(result) for result in results)


def mean_waiting(result) -> float:
    """The run's W: the mean of its batch means (no confidence interval)."""
    batches = result.collector.completed_batches()
    return sum(batch.mean_waiting for batch in batches) / len(batches)


def pin_cpus() -> None:
    """Pin every thread of this process, and its child processes, to one CPU.

    On a shared host each CPU's speed changes on its own, from one
    second to the next, with the load of other tenants.  With all the
    benchmark's work on one CPU, the host samples the main thread takes
    (:mod:`arbbench.hostspeed`) time the CPU that did the work; a pool
    worker on a second CPU made the service's capacity depend on a speed
    no sample saw.  Does nothing where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpu = min(os.sched_getaffinity(0))
    tasks = Path("/proc/self/task")
    pids = [int(tid) for tid in os.listdir(tasks)] if tasks.is_dir() else [0]
    pids += [child.pid for child in multiprocessing.active_children()]
    for pid in pids:
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:  # the thread or child exited meanwhile
            pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children.

    ``RUSAGE_CHILDREN`` covers worker processes that have exited and
    been waited for, so call this after the pool is shut down.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0
