"""Golden-trace regression suite: pinned event streams, byte for byte.

Each file under ``tests/golden/`` is the canonical JSONL encoding of one
short run's full arbitration-event stream (scenarios declared in
:mod:`repro.observability.golden`).  The comparison is *exact* — field
order, float ``repr``, separators — so any engine change that moves an
arbitration, alters settle accounting or touches the schema fails here
with a unified diff of precisely the drifted lines.

Every scenario is replayed on both engines against its one stored
file: the event engine is the reference, and the lane engine is called
directly, so a scenario outside its domain raises instead of falling
back to the event engine.

On an intentional change, regenerate with ``make golden`` (=
``scripts/regen_golden.py``) and commit the new files alongside the
change that caused them.
"""

import difflib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.observability.events import event_from_dict
from repro.observability.golden import GOLDEN_SCENARIOS, golden_names, golden_trace_lines
from repro.session import ENGINES

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def stored_lines(name):
    path = GOLDEN_DIR / f"{name}.jsonl"
    assert path.exists(), (
        f"missing golden trace {path}; generate it with scripts/regen_golden.py"
    )
    return path.read_text(encoding="utf-8").splitlines()


#: Every (scenario, engine) pair.  The event replay's id is the scenario
#: name; any other engine prefixes its own, so ``batch-rr`` is the ``rr``
#: scenario replayed on the lane engine.
GOLDEN_RUNS = [
    pytest.param(name, engine, id=name if engine == "event" else f"{engine}-{name}")
    for engine in ENGINES
    for name in golden_names()
]


@pytest.mark.parametrize("name, engine", GOLDEN_RUNS)
def test_trace_matches_golden_byte_for_byte(name, engine):
    stored = stored_lines(name)
    fresh = golden_trace_lines(name, engine)
    if fresh != stored:
        diff = "\n".join(
            difflib.unified_diff(
                stored,
                fresh,
                fromfile=f"tests/golden/{name}.jsonl (stored)",
                tofile=f"{name} on the {engine} engine (this run)",
                lineterm="",
            )
        )
        pytest.fail(
            f"golden trace {name!r} drifted on the {engine} engine; if "
            f"intentional, regenerate with 'make golden' and commit the diff:\n{diff}"
        )


def test_lane_replay_outside_the_lane_domain_raises(monkeypatch):
    # The lane replay must not fall back to the event engine: a golden
    # the lane engine cannot run is an error, not a silent event run.
    monkeypatch.setitem(
        GOLDEN_SCENARIOS, "rr", replace(GOLDEN_SCENARIOS["rr"], protocol="aap1")
    )
    with pytest.raises(ConfigurationError, match="batch engine cannot run 'aap1'"):
        golden_trace_lines("rr", "batch")


@pytest.mark.parametrize("name", golden_names())
def test_golden_lines_round_trip_through_schema(name):
    # The stored artefacts stay loadable: every line parses, round-trips
    # through event_from_dict, and re-encodes to the identical bytes.
    for line in stored_lines(name):
        event = event_from_dict(json.loads(line))
        assert event.to_json() == line


def test_every_golden_file_has_a_scenario():
    # No orphaned artefacts: each .jsonl under tests/golden/ must map to
    # a declared scenario, or regeneration would silently skip it.
    on_disk = {path.stem for path in GOLDEN_DIR.glob("*.jsonl")}
    assert on_disk == set(golden_names())
