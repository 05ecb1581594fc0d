"""Content-addressed on-disk cache for simulation results.

A simulation is a pure function of ``(scenario, protocol, settings)``
(see ``docs/architecture.md`` — every random stream derives from
``settings.seed``), so its :class:`~repro.stats.summary.RunResult` can be
cached on disk and replayed on any later invocation with the same
inputs.  Regenerating a table, or re-running a benchmark ablation after
an unrelated code change, then costs one pickle load per cell instead of
one simulation.

Keys are SHA-256 digests of a canonical description of the cell:

- the scenario: every agent's identity, workload distribution
  (:meth:`~repro.workload.distributions.Distribution.spec_key`), loop
  mode and priority mix;
- the protocol name;
- every :class:`~repro.experiments.runner.SimulationSettings` field
  that can influence the result, including the nested bus timing but
  *not* the engine selector (the engines are bit-identical wherever
  both apply, so a cell keys the same however it was executed);
- a cache-format epoch (:data:`CACHE_EPOCH`) plus the package version,
  so results produced by older engine revisions are never replayed
  against newer code.

The description deliberately excludes cosmetic fields (scenario
``notes``) and anything derivable from the above.  One caveat: a cell
whose telemetry asks for a JSONL trace file caches on the *path*, and a
cache hit replays the stored result without re-writing the file — the
trace is a side effect, not part of the result object.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import threading
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple, Union

import repro
from repro.errors import ConfigurationError
from repro.experiments.runner import SimulationSettings
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec

__all__ = ["CACHE_EPOCH", "cache_key", "ResultCache", "default_cache_dir"]

#: Bump when a change anywhere in the engine, protocols, workload or
#: statistics layers alters simulation output for identical inputs.
#: Stale entries are then simply never looked up again.
#: Epoch 2: protocol registry refactor (uniform factory convention).
#: Epoch 3: fault injection + watchdog (new settings fields in the key).
#: Epoch 4: observability layer (telemetry block in the key; RunResult
#: grew events/metrics payloads).
#: Epoch 5: lockstep batch engine (the engine selector joins the key —
#: engines are contractually identical, but a cached payload must name
#: the execution path that produced it so differential checks can
#: exercise both).
#: Epoch 6: heterogeneous lane engine (the engine selector *leaves* the
#: key: the engines are conformance-verified bit-identical on the whole
#: batch domain — faults included — so one payload serves both, and a
#: grid hits the cache regardless of which engine, or which lane
#: packing, produced it; lane packing cannot influence a result, so it
#: never enters the key).
CACHE_EPOCH = 6

_ENV_DIR = "REPRO_CACHE_DIR"

#: Most results one :class:`ResultCache` keeps in memory.
HOT_LIMIT = 256


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-arb``."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-arb"


def _describe_scenario(scenario: ScenarioSpec) -> list:
    return [
        [
            spec.agent_id,
            list(spec.interrequest.spec_key()),
            spec.priority_fraction,
            spec.open_loop,
            spec.max_outstanding,
        ]
        for spec in scenario.agents
    ]


def _describe_settings(settings: SimulationSettings) -> list:
    timing = settings.timing
    return [
        settings.batches,
        settings.batch_size,
        settings.warmup,
        settings.keep_samples,
        settings.keep_order,
        settings.keep_records,
        settings.seed,
        [timing.transaction_time, timing.arbitration_time, timing.clock_period],
        settings.confidence,
        settings.max_events,
        settings.fault_plan.spec_key() if settings.fault_plan is not None else None,
        settings.watchdog.spec_key() if settings.watchdog is not None else None,
        settings.telemetry.spec_key() if settings.telemetry is not None else None,
        # settings.engine is deliberately absent: the engines are
        # bit-identical on the batch domain and fall back identically
        # outside it, so the selector is not part of a cell's identity.
    ]


def cache_key(
    scenario: ScenarioSpec,
    protocol: str,
    settings: SimulationSettings,
) -> str:
    """Stable hex digest identifying one simulation cell."""
    payload = {
        "epoch": CACHE_EPOCH,
        "version": repro.__version__,
        "protocol": protocol,
        "scenario": _describe_scenario(scenario),
        "settings": _describe_settings(settings),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of pickled :class:`RunResult`s, one file per cell key.

    Parameters
    ----------
    directory:
        Where entries live; created on first store.  Defaults to
        :func:`default_cache_dir`.

    Writes are atomic (temp file + rename) so a crashed run can never
    leave a half-written entry for a later run to load.  Unreadable
    (corrupt, truncated or version-incompatible) entries are treated as
    misses: the offending file is *quarantined* — renamed aside with a
    ``.corrupt`` suffix so it can be inspected rather than silently lost
    — and a warning names it.

    **Hot tier.**  The cache keeps the :data:`HOT_LIMIT` most recently
    read results in memory, each with the ``(st_ino, st_size,
    st_mtime_ns)`` of the file it was read from.  A later ``get`` of the
    key costs one ``os.stat``: when the signature still matches, it
    returns the same result object (treat results as read-only, as a
    ``"dedup"`` outcome already shares its first occurrence's); when it
    does not, the entry is dropped and the read goes to disk.  A ``put``
    never fills the hot tier, so the next ``get`` of a freshly written
    key reads the disk.

    **Guarantees when another instance or process changes an entry**
    that is hot here:

    - replaced by another valid pickle (``os.replace``, as every
      ``put`` does): the next ``get`` re-reads and returns the new
      result;
    - overwritten with garbage: the next ``get`` quarantines it, warns
      and misses;
    - quarantined, removed or ``clear()``-ed: the next ``get`` misses;
    - two readers quarantining one corrupt entry both miss, neither
      raises, and one ``<key>.corrupt`` file remains.

    The signature cannot see an in-place rewrite that keeps the inode
    and the size within the filesystem's timestamp granularity; writers
    that go through ``put`` never do that.  Counters and the hot tier
    are safe to use from several threads.
    """

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        if self.directory.exists() and not self.directory.is_dir():
            raise ConfigurationError(
                f"cache path {self.directory} exists and is not a directory"
            )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        #: key -> (file signature, result), least recently used first.
        self._hot: "OrderedDict[str, Tuple[Tuple[int, int, int], RunResult]]" = OrderedDict()
        self._lock = threading.Lock()
        #: ``directory`` as a string prefix: the hot path's ``os.stat``
        #: skips building a ``Path``.
        self._prefix = os.path.join(self.directory, "")

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        The read path never propagates an entry's failure to the
        caller: an ``OSError`` mid-read (EIO, a permissions change, a
        truncated file on a full disk), an unpicklable or truncated
        payload, and even a *successfully* unpickled payload of the
        wrong type (a foreign file dropped into the cache directory)
        are all quarantined as misses, so one bad entry can never fail
        the whole gather that touched it.
        """
        with self._lock:
            entry = self._hot.get(key)
        if entry is not None:
            try:
                stat = os.stat(f"{self._prefix}{key}.pkl")
                current = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
            except OSError:
                current = None
            with self._lock:
                if current == entry[0]:
                    self._hot.move_to_end(key)
                    self.hits += 1
                    return entry[1]
                self._hot.pop(key, None)
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                stat = os.fstat(handle.fileno())
                result = pickle.load(handle)
        except FileNotFoundError:
            self._miss()
            return None
        except Exception as exc:
            # OSError while opening/reading, truncated pickles
            # (EOFError), cross-version payloads (UnpicklingError,
            # AttributeError, ImportError): everything the entry alone
            # can cause quarantines as a miss and the cell re-runs.
            self._quarantine(path, exc)
            self._miss()
            return None
        if not isinstance(result, RunResult):
            self._quarantine(
                path,
                TypeError(
                    f"cached payload is {type(result).__name__}, not RunResult"
                ),
            )
            self._miss()
            return None
        with self._lock:
            self._hot[key] = ((stat.st_ino, stat.st_size, stat.st_mtime_ns), result)
            if len(self._hot) > HOT_LIMIT:
                self._hot.popitem(last=False)
            self.hits += 1
        return result

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt entry aside and warn, instead of raising.

        The quarantined file keeps its content under ``<key>.corrupt``
        so a damaged cache can be diagnosed (truncation from a full
        disk, a partial copy, a cross-version pickle); the lookup is a
        plain miss and the cell re-runs.
        """
        quarantine = path.with_suffix(".corrupt")
        try:
            os.replace(path, quarantine)
            moved = True
        except OSError:
            # Renaming failed (e.g. the file vanished); nothing to keep.
            moved = False
        with self._lock:
            self.quarantined += 1
        location = f"; entry moved to {quarantine}" if moved else ""
        warnings.warn(
            f"corrupt cache entry {path.name} treated as a miss "
            f"({type(exc).__name__}: {exc}){location}",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key`` atomically."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, self._path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise
        with self._lock:
            self.stores += 1

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for __ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        with self._lock:
            self._hot.clear()
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
