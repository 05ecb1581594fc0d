"""Regression tests for cache epoch 6: the engine leaves the key.

Epoch 6 accompanies the heterogeneous lane engine: the engines are
conformance-verified bit-identical across the whole batch domain —
fault plans and watchdog recovery included — so the ``engine`` selector
drops *out* of the content-addressed key and one payload serves both
execution paths.  The epoch bump retires every epoch-5 entry (which
keyed on the engine) without touching its bytes.  These tests pin the
behaviours the bump must preserve:

- entries written under an older epoch are *ignored* (clean miss, file
  left intact) — never replayed, never quarantined;
- the ``.corrupt`` quarantine path still fires on unreadable bytes;
- the engine field no longer separates keys: otherwise-identical cells
  key the same however they are executed, fault-plan cells included,
  and a payload stored by one engine replays for the other;
- lane packing is invisible to the cache: a grid executed as one
  super-batch hits entries stored by per-cell runs, in any order.
"""

from dataclasses import replace

import pytest

import repro.experiments.cache as cache_module
from repro.bus.watchdog import WatchdogPolicy
from repro.experiments.cache import CACHE_EPOCH, ResultCache, cache_key
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultPlan
from repro.session import RunRequest, Session
from repro.workload.scenarios import equal_load

from _utils import run_results

SETTINGS = SimulationSettings(batches=2, batch_size=50, warmup=5, seed=21)


def _scenario():
    return equal_load(4, 1.5)


def _fault_settings(seed=21):
    plan = FaultPlan.generate(
        seed=seed,
        rate=0.3,
        horizon=100.0,
        kinds=tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value)),
        num_agents=4,
        line_span=5,
    )
    return replace(
        SETTINGS, seed=seed, fault_plan=plan, watchdog=WatchdogPolicy()
    )


def _fingerprint(result):
    return (
        result.elapsed,
        result.utilization,
        result.system_throughput().mean,
        result.mean_waiting().mean,
    )


def test_epoch_is_six():
    assert CACHE_EPOCH == 6


def test_engine_field_is_not_part_of_the_key():
    scenario = _scenario()
    event_key = cache_key(scenario, "rr", replace(SETTINGS, engine="event"))
    batch_key = cache_key(scenario, "rr", replace(SETTINGS, engine="batch"))
    assert event_key == batch_key


def test_fault_plan_cells_key_identically_across_engines():
    # Fault plans are in the batch domain now; the plan (and watchdog
    # policy) stays in the key, the engine stays out.
    scenario = _scenario()
    faulty = _fault_settings()
    event_key = cache_key(scenario, "rr", replace(faulty, engine="event"))
    batch_key = cache_key(scenario, "rr", replace(faulty, engine="batch"))
    assert event_key == batch_key
    # The plan itself still separates cells from their fault-free twins.
    assert event_key != cache_key(scenario, "rr", replace(SETTINGS, seed=faulty.seed))


def test_old_epoch_entries_are_ignored_not_corrupted(tmp_path, monkeypatch):
    scenario = _scenario()
    result = run_simulation(scenario, "rr", SETTINGS)
    # Store the result under the previous epoch's key...
    monkeypatch.setattr(cache_module, "CACHE_EPOCH", CACHE_EPOCH - 1)
    old_key = cache_key(scenario, "rr", SETTINGS)
    cache = ResultCache(tmp_path)
    cache.put(old_key, result)
    monkeypatch.undo()
    # ...then look the same cell up under the current epoch: a clean
    # miss, with the stale file untouched (not deleted, not quarantined).
    new_key = cache_key(scenario, "rr", SETTINGS)
    assert new_key != old_key
    assert cache.get(new_key) is None
    assert cache.quarantined == 0
    stale = tmp_path / f"{old_key}.pkl"
    assert stale.exists()
    assert not (tmp_path / f"{old_key}.corrupt").exists()
    # The stale entry is still readable under its own key — the bump
    # retired it, nothing mangled it.
    assert _fingerprint(cache.get(old_key)) == _fingerprint(result)


def test_corrupt_quarantine_still_fires_after_the_bump(tmp_path):
    scenario = _scenario()
    cache = ResultCache(tmp_path)
    key = cache_key(scenario, "rr", SETTINGS)
    cache.put(key, run_simulation(scenario, "rr", SETTINGS))
    (tmp_path / f"{key}.pkl").write_bytes(b"epoch-6 garbage")
    with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
        assert cache.get(key) is None
    assert cache.quarantined == 1
    assert (tmp_path / f"{key}.corrupt").read_bytes() == b"epoch-6 garbage"


def test_payload_stored_by_one_engine_replays_for_the_other(tmp_path):
    # An event-engine result stored under the shared key is a hit for a
    # batch-engine lookup of the same cell (and vice versa) — safe only
    # because the engines are bit-identical on the domain.
    scenario = _scenario()
    cache = ResultCache(tmp_path)
    event_settings = replace(SETTINGS, engine="event")
    event_result = run_simulation(_scenario(), "rr", event_settings)
    cache.put(cache_key(scenario, "rr", event_settings), event_result)
    assert len(cache) == 1
    batch_lookup = cache.get(cache_key(scenario, "rr", replace(SETTINGS, engine="batch")))
    assert batch_lookup is not None
    assert _fingerprint(batch_lookup) == _fingerprint(event_result)
    # And the replayed payload matches what the batch engine computes.
    batch_result = run_simulation(_scenario(), "rr", replace(SETTINGS, engine="batch"))
    assert _fingerprint(batch_result) == _fingerprint(batch_lookup)
    assert batch_result.collector.agent_totals == batch_lookup.collector.agent_totals


def test_lane_packing_order_is_invisible_to_the_cache(tmp_path):
    # Fill the cache with one sweep, then re-run the same grid shuffled:
    # every cell hits, nothing re-executes, and results come back in the
    # new declaration order.
    def grid():
        return [
            RunRequest(equal_load(agents, load), protocol, replace(SETTINGS, seed=seed))
            for agents, load, protocol, seed in (
                (2, 1.0, "rr", 1),
                (6, 3.0, "fcfs", 2),
                (4, 2.0, "rr", 3),
                (4, 2.0, "fixed", 4),
            )
        ]

    warm = Session(jobs=1, cache=ResultCache(tmp_path))
    first = run_results(warm, grid())
    assert warm.stats.cache_hits == 0
    assert warm.stats.executed == len(first)

    replay = Session(jobs=1, cache=ResultCache(tmp_path))
    shuffled = list(reversed(grid()))
    second = run_results(replay, shuffled)
    assert replay.stats.cache_hits == len(shuffled)
    assert replay.stats.executed == 0
    for fresh, cached in zip(first, reversed(second)):
        assert _fingerprint(fresh) == _fingerprint(cached)
