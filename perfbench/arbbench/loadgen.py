"""Load generation: an open-loop job generator and a closed-loop saturation loop.

The open loop sends each job when it is due, whatever the system is
doing, so a stall shows as queueing on later jobs; latency is counted
from the due time.  When the generator itself runs late (decoding, a
busy interpreter), the lag is recorded as lateness rather than silently
lowering the offered load.

The closed loop keeps a fixed number of jobs in flight and sends the
next one only when the oldest finishes; its completion rate is the
capacity figure.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple


def poisson_offsets(rate: float, count: int, rng: random.Random) -> List[float]:
    """Due times (seconds from the start) of ``count`` Poisson arrivals."""
    offsets = []
    now = 0.0
    for __ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int, float], None],
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> List[float]:
    """Call ``send(i, due)`` at ``due = start + offsets[i]``, from this thread.

    Returns each job's lateness: send time minus due time, never negative.
    """
    start = clock()
    lateness: List[float] = []
    for index, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        lateness.append(max(0.0, now - due))
        send(index, due)
    return lateness


def latencies_from_due(
    dues: Sequence[float], finishes: Sequence[Optional[float]]
) -> List[float]:
    """Per-job latency from due time to finish (``inf`` if never finished)."""
    return [
        finish - due if finish is not None else float("inf")
        for due, finish in zip(dues, finishes)
    ]


def run_closed_loop(
    clients: int,
    duration: float,
    send: Callable[[int], object],
    wait: Callable[[object], object],
    clock: Callable[[], float] = time.monotonic,
) -> Tuple[List[object], float]:
    """Keep ``clients`` jobs in flight for ``duration`` seconds.

    Each completion of the oldest job releases the next send.  Returns
    what ``wait`` returned for each job that completed inside the window,
    and the window's length (start to the last completion counted).
    Jobs still in flight at the end are waited for but not counted.
    """
    start = clock()
    inflight: deque = deque()
    completed: List[object] = []
    sent = 0
    last = start
    while True:
        while len(inflight) < clients:
            inflight.append(send(sent))
            sent += 1
        finished = wait(inflight.popleft())
        now = clock()
        if now - start > duration:
            break
        completed.append(finished)
        last = now
    for job in inflight:
        wait(job)
    return completed, last - start
