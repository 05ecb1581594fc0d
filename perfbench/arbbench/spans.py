"""In-memory span recorder and self-time arithmetic.

A span is one timed call into a layer: name, start, end, the span that
caused it (its parent on the same thread) and an optional job or
request id.  Spans stay in memory while the benchmark runs and are
written out once at the end.  A layer's *self time* is its spans'
duration minus the part of each interval its child spans cover, so the
self times of nested layers add up to the wall time they cover.

All times are host time from :func:`time.monotonic`, the clock the
service's job timestamps use.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "ident")

    def __init__(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        parent: Optional["Span"] = None,
        ident: Optional[str] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.ident = ident

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while :attr:`enabled`; a disabled tracer records nothing.

    Parents are tracked per thread, so spans opened on the service's
    dispatcher thread never nest under the load generator's.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ident: Optional[str] = None) -> Span:
        stack = self._stack()
        span = Span(name, time.monotonic(), parent=stack[-1] if stack else None, ident=ident)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        # Pop through the span even if an inner span leaked (an exception
        # between begin and end), so parents stay consistent.
        while stack:
            if stack.pop() is span:
                break
        self.spans.append(span)

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span when enabled, a plain call otherwise."""
        if not self.enabled:
            return fn(*args)
        span = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(span)

    def write_jsonl(self, path) -> None:
        """Write every recorded span, parents as line ids, in one pass."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent is not None else None
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": parent,
                            "ident": span.ident,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo: Optional[float] = None
    run_hi = 0.0
    for lo, hi in clipped:
        if run_lo is None or lo > run_hi:
            if run_lo is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        elif hi > run_hi:
            run_hi = hi
    if run_lo is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's self time, keyed by ``id(span)``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return {
        id(span): span.duration - covered(span.start, span.end, children.get(id(span), ()))
        for span in spans
    }


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[id(span)]
    return totals


def durations(spans: Sequence[Span], name: str) -> List[float]:
    """Durations of every span called ``name``, in record order."""
    return [span.duration for span in spans if span.name == name]
