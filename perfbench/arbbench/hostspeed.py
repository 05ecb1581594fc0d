"""Host-speed calibration: times expressed at a fixed reference speed.

The benchmark runs on shared hosts whose speed changes with the load of
their other tenants: on a 2-vCPU x86-64 container each CPU flipped
between a fast state and one ~1.7x slower, for seconds to minutes at a
time.  A run that happens to fall in a slow spell would read as a
regression of the program.  So the benchmark times a fixed reference
task next to each unit of measured work and divides that unit's
duration by the host's *slowdown* at that moment: the reference task's
time over :data:`REFERENCE_SECONDS`.  The result is the duration the
work would have taken on a host that runs the reference task in exactly
:data:`REFERENCE_SECONDS`.

The reference task is the simulator's own instruction mix in miniature
(a timer heap, dictionary counters and float arithmetic in pure Python:
both engines run their timer heaps in the interpreter), and it lives in
the benchmark, so a change to the program cannot move it.  A faster
program therefore still reads faster; only the host's drift cancels.
It cancels most of it, not all: in the slow state the lane and event
engines slowed 1.6x where the reference task slowed 1.73x, and file
system calls, which the service makes on every cache read and write,
slowed only ~1.35x.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List, Sequence

#: The reference task's duration at the reference speed: about its time
#: on an idle 2-vCPU x86-64 container.  Any constant works; this one
#: keeps calibrated figures near the raw ones on such a host.
REFERENCE_SECONDS = 0.010


def reference_task() -> float:
    """A fixed piece of interpreter work, ~10 ms on the reference host."""
    rng = random.Random(7)
    heap: List = []
    counts = {}
    total = 0.0
    for step in range(15_000):
        heapq.heappush(heap, (rng.random(), step))
        key = step & 63
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            stamp, __ = heapq.heappop(heap)
            total += stamp * 1.5
    return total


def slowdown(repeats: int = 3) -> float:
    """The host's current slowdown: the median of ``repeats`` reference runs
    over :data:`REFERENCE_SECONDS` (1.0 at the reference speed).

    The median, not the fastest: one interrupted run does not count, and
    while the host flips between a fast and a slow state the samples are
    not biased to the fast one the measured work only partly ran in.
    """
    times = []
    for __ in range(repeats):
        started = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / REFERENCE_SECONDS


def calibrated(durations: Sequence[float], slowdowns: Sequence[float]) -> List[float]:
    """Each duration at the reference speed.

    ``slowdowns`` holds one more sample than ``durations``: the host was
    sampled before the first unit of work and after each one, and a
    unit is divided by the mean of the samples on either side of it.
    """
    if len(slowdowns) != len(durations) + 1:
        raise ValueError(f"{len(durations)} durations need {len(durations) + 1} slowdowns")
    return [
        duration * 2.0 / (before + after)
        for duration, before, after in zip(durations, slowdowns, slowdowns[1:])
    ]
