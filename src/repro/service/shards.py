"""Sharded process-pool back end: the one crash ladder every caller shares.

The compute layer is a small fleet of independent
:class:`~concurrent.futures.ProcessPoolExecutor` shards.  Work routes
to a shard by the cell's epoch-6 content hash, so one crashing payload
can only take down the futures of its own shard — the blast radius the
paper's distributed arbiters get from per-agent state replication, here
applied to the execution layer.  The service runs its lane packs and
per-cell misses here; a parallel sweep runs its per-cell misses on a
one-shard pool; and an in-process pool (:meth:`ShardPool.in_process`)
is the serial path of both, so every caller gets the same failure
policy.

Failure ladder (each rung strictly contains the one above):

1. a worker crash breaks one shard; the shard is **respawned** once per
   pool generation after a deterministic jittered backoff delay, and the
   payloads it was running are **replayed** — at most ``max_replays``
   times each, then the payload runs in-process instead;
2. repeated crashes exhaust ``max_respawns`` — or the platform cannot
   host process pools at all — and the whole pool **degrades** to
   serial in-process execution: slower, but every payload still runs;
3. a cell that *raises* (rather than crashing its worker) gets one
   in-process **retry** after the backoff delay, and then becomes a
   :class:`~repro.session.outcome.CellFailure` for the caller.

Payloads executed in-process strip the test-only crash arming, so a
replay can never re-trigger the fault that killed its worker.  The
``arm_kills`` hook is the deterministic fault-injection seam the soak
suite uses: the next *n* payloads submitted to worker processes
``os._exit`` before touching their cell, which is indistinguishable
from a real mid-job worker loss (OOM kill, segfault) at the
``BrokenProcessPool`` boundary the ladder recovers across.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.service.backoff import BackoffPolicy
from repro.session.outcome import CellFailure, SessionStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.session.control import RunControl
    from repro.session.request import RunRequest
    from repro.stats.summary import RunResult

__all__ = ["ShardPool", "PAYLOAD_CELL", "PAYLOAD_LANES"]

#: Payload kinds: one simulation request, or one lane pack.
PAYLOAD_CELL = "cell"
PAYLOAD_LANES = "lanes"

#: One unit of shard work: (shard, kind, data).
_Payload = Tuple[int, str, object]


def _run_payload(kind: str, data):
    """Execute one payload in this process."""
    if kind == PAYLOAD_LANES:
        from repro.engine.batch import run_lanes

        return list(run_lanes(data))
    from repro.session.single import run_request

    return run_request(data)


def _execute_payload(kind: str, kill: bool, data):
    """Worker entry point: module-level so it pickles by reference.

    ``kill`` is the soak suite's crash seam — the worker exits hard
    *before* touching the cell, modelling an OOM-killed or segfaulted
    worker whose shard must be respawned and whose work replayed.
    """
    if kill:
        os._exit(13)
    return _run_payload(kind, data)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class ShardPool:
    """A fixed set of process-pool shards with crash recovery.

    Parameters
    ----------
    shards:
        Number of independent pools; cells route by content hash.
    workers:
        Worker processes per shard.
    backoff:
        Respawn and retry pacing (shared :class:`BackoffPolicy`
        vocabulary); respawn attempt numbers count *cumulative* respawns
        so repeated crashes wait progressively longer.
    max_respawns:
        Cumulative respawns across shards before the pool declares
        itself irrecoverable and degrades to serial execution.
    max_replays:
        Times one payload may be replayed after worker crashes before
        it runs in-process instead.
    """

    def __init__(
        self,
        shards: int = 2,
        workers: int = 1,
        backoff: Optional[BackoffPolicy] = None,
        max_respawns: int = 4,
        max_replays: int = 1,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.shards = shards
        self.workers = workers
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.max_respawns = max_respawns
        self.max_replays = max_replays
        self._pools: List[Optional[ProcessPoolExecutor]] = [None] * shards
        #: Per-shard pool identity, bumped on every respawn: payloads
        #: remember the generation they were submitted under, so one
        #: crash (which breaks every queued future of its shard at
        #: once) triggers exactly one respawn — stale-generation
        #: failures replay on the replacement pool instead of
        #: respawning again.
        self._generations: List[int] = [0] * shards
        self._lock = threading.Lock()
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.crashes = 0
        self.respawns = 0
        self.replays = 0
        self._kill_budget = 0
        self._closed = False

    @classmethod
    def in_process(cls, backoff: Optional[BackoffPolicy] = None) -> "ShardPool":
        """A pool that never starts a process: every payload runs serially."""
        pool = cls(shards=1, backoff=backoff)
        pool.degrade("in-process execution")
        return pool

    # -- routing --------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """The shard an epoch-6 content key (SHA-256 hex) routes to."""
        return int(key[:8], 16) % self.shards

    def generation(self, shard: int) -> int:
        """The shard's current pool generation (see ``_generations``)."""
        with self._lock:
            return self._generations[shard]

    # -- fault injection (tests) ----------------------------------------------

    def arm_kills(self, count: int = 1) -> None:
        """Make the next ``count`` worker payloads crash their process."""
        with self._lock:
            self._kill_budget += count

    def _take_kill(self) -> bool:
        with self._lock:
            if self._kill_budget > 0:
                self._kill_budget -= 1
                return True
            return False

    # -- pool management ------------------------------------------------------

    def _pool(self, shard: int) -> ProcessPoolExecutor:
        """The shard's executor, building it on first use.

        Raises whatever the platform raises when process pools are
        unavailable; the ladder degrades.
        """
        pool = self._pools[shard]
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pools[shard] = pool
        return pool

    def submit(self, shard: int, kind: str, data) -> Future:
        """Submit one payload to ``shard``; consumes any armed kill."""
        kill = self._take_kill()
        return self._pool(shard).submit(_execute_payload, kind, kill, data)

    def note_crash(self) -> None:
        """Record one observed worker crash (``BrokenProcessPool``)."""
        with self._lock:
            self.crashes += 1

    def respawn(self, shard: int, token: str = "") -> bool:
        """Replace a broken shard after the backoff delay.

        Returns False — without raising — once the respawn budget is
        exhausted or the platform refuses a new pool; the ladder then
        degrades.  The attempt number fed to the backoff is the
        cumulative respawn count, so a crash storm waits progressively
        longer instead of spinning.
        """
        with self._lock:
            if self.respawns >= self.max_respawns:
                return False
            attempt = self.respawns
            self.respawns += 1
            self._generations[shard] += 1
        broken = self._pools[shard]
        self._pools[shard] = None
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        self.backoff.sleep(attempt, token=token or f"shard{shard}")
        try:
            self._pool(shard)
        except Exception:
            return False
        return True

    def degrade(self, reason: str) -> None:
        """Declare the pool irrecoverable; execution turns serial."""
        self.degraded = True
        self.degraded_reason = reason
        for shard, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                self._pools[shard] = None

    # -- execution ------------------------------------------------------------

    def run_lanes(
        self,
        cells: Sequence[tuple],
        keys: Sequence[str],
        control: Optional["RunControl"] = None,
    ) -> List["RunResult"]:
        """Run lane cells as one lane pack per shard; results in order.

        ``keys`` route the cells (same-shard misses pack together, so
        content-addressed routing and the lane engine compose).  A
        pack that raises re-raises here for the caller to demote.
        """
        by_shard: Dict[int, List[int]] = {}
        for index, key in enumerate(keys):
            by_shard.setdefault(self.shard_for(key), []).append(index)
        groups = sorted(by_shard.items())
        outs = self._run(
            [
                (shard, PAYLOAD_LANES, tuple(cells[i] for i in indices))
                for shard, indices in groups
            ],
            control,
        )
        results: List[Optional["RunResult"]] = [None] * len(cells)
        for (_, indices), out in zip(groups, outs):
            if isinstance(out, Exception):
                raise out
            for index, result in zip(indices, out):
                results[index] = result
        return results  # type: ignore[return-value]  # every index filled

    def run_cells(
        self,
        requests: Sequence["RunRequest"],
        keys: Optional[Sequence[str]] = None,
        stats: Optional[SessionStats] = None,
        control: Optional["RunControl"] = None,
    ) -> List[Union["RunResult", CellFailure]]:
        """Run each request on the shard its key routes to; results in order.

        A request that raises gets one in-process retry after the
        backoff delay (counted in ``stats.retries``); one that raises
        again comes back as its :class:`CellFailure` instead of a
        result.  ``keys`` default to shard 0 for every request.
        """
        stats = stats if stats is not None else SessionStats()
        shards = [0] * len(requests) if keys is None else [self.shard_for(k) for k in keys]
        outs = self._run(
            [(shard, PAYLOAD_CELL, request) for shard, request in zip(shards, requests)],
            control,
            stats,
        )
        for index, (request, out) in enumerate(zip(requests, outs)):
            if isinstance(out, Exception):
                outs[index] = self._retry(index, request, out, stats)
        return outs

    def _retry(
        self, index: int, request: "RunRequest", exc: Exception, stats: SessionStats
    ) -> Union["RunResult", CellFailure]:
        """One in-process retry of a raising cell, paced by the backoff.

        The retry runs serially whatever backend failed, and the cell's
        determinism means it either reproduces a genuine error or heals
        a transient one.  The delay is deterministic for a given cell
        tag/index, so the same failing batch always paces the same way.
        """
        stats.retries += 1
        self.backoff.sleep(0, token=request.tag if request.tag is not None else str(index))
        try:
            return _run_payload(PAYLOAD_CELL, request)
        except Exception as again:
            return CellFailure(
                index=index,
                tag=request.tag,
                protocol=request.protocol,
                scenario=request.scenario.name,
                error=_describe(again),
                first_error=_describe(exc),
            )

    def _run(
        self,
        payloads: Sequence[_Payload],
        control: Optional["RunControl"],
        stats: Optional[SessionStats] = None,
    ) -> list:
        """Each payload's result, or the exception it raised, in order.

        Pooled payloads go through the crash ladder; whatever it hands
        back (or everything, once degraded) runs in-process, where
        ``control`` is checked before every payload.
        """
        outs: list = [None] * len(payloads)
        serial = list(range(len(payloads)))
        if not self.degraded:
            serial = self._run_on_shards(payloads, outs, control)
            if stats is not None and len(serial) < len(payloads):
                stats.parallel_batches += 1
        if serial and stats is not None:
            stats.serial_batches += 1
        for index in sorted(serial):
            if control is not None:
                control.check()
            _, kind, data = payloads[index]
            try:
                outs[index] = _run_payload(kind, data)
            except Exception as exc:
                outs[index] = exc
        return outs

    def _run_on_shards(
        self,
        payloads: Sequence[_Payload],
        outs: list,
        control: Optional["RunControl"],
    ) -> List[int]:
        """The crash ladder; returns the payload indices left to run in-process.

        A tripped ``control`` cancels every queued future and raises out;
        the wait wakes at the control's deadline, so an expired batch
        stops without polling.
        """
        pending: Dict[Future, Tuple[int, int]] = {}
        replays = [0] * len(payloads)
        serial: List[int] = []

        def submit(index: int) -> None:
            shard, kind, data = payloads[index]
            if not self.degraded:
                try:
                    generation = self.generation(shard)
                    pending[self.submit(shard, kind, data)] = (index, generation)
                    return
                except Exception as exc:
                    self.degrade(f"process pool unavailable ({_describe(exc)})")
            serial.append(index)

        for index in range(len(payloads)):
            submit(index)
        try:
            while pending:
                if self.degraded:
                    # Degrading (in the submit loop, a replay or the
                    # crash ladder) cancels every shard's queued futures,
                    # and wait() never reports a future cancelled that
                    # way as done: claim each queued one for the serial
                    # path first (a running future refuses the cancel
                    # and finishes normally).
                    for future in [f for f in pending if f.cancel()]:
                        serial.append(pending.pop(future)[0])
                    if not pending:
                        break
                timeout = None
                if control is not None and control.remaining() is not None:
                    timeout = max(control.remaining(), 0.0)
                done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)
                if control is not None:
                    control.check()
                for future in done:
                    index, generation = pending.pop(future)
                    try:
                        outs[index] = future.result()
                    except BrokenExecutor as exc:
                        self.note_crash()
                        shard = payloads[index][0]
                        if self.degraded or replays[index] >= self.max_replays:
                            serial.append(index)
                        elif generation == self.generation(shard) and not self.respawn(shard):
                            # (A stale generation means this very crash
                            # already respawned the shard: replay without
                            # spending another respawn.)
                            self.degrade(f"respawn budget exhausted ({_describe(exc)})")
                            serial.append(index)
                        else:
                            replays[index] += 1
                            self.replays += 1
                            submit(index)
                    except Exception as exc:
                        outs[index] = exc
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        return serial

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
                self._pools[shard] = None

    def describe(self) -> dict:
        """JSON-safe pool state for the service's ``stats`` answer."""
        return {
            "shards": self.shards,
            "workers": self.workers,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "crashes": self.crashes,
            "respawns": self.respawns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "degraded" if self.degraded else "pooled"
        return f"ShardPool({self.shards}x{self.workers}, {mode})"
