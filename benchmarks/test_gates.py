"""The bench gates, live: every row of ``gates.GATES`` measured and held
to its bar, the same measurement ``scripts/run_benchmarks.py`` records
and ``scripts/check_bench.py`` checks.  Each ratio is printed (run with
``-s``) for the docs' performance tables."""

import gates
import pytest


@pytest.mark.parametrize("gate", gates.GATES, ids=lambda gate: gate.key)
def test_gate(gate):
    ratio = gates.measure(gate)
    print(f"\n{gate.label}: {gate.show(ratio)} (gate {gate.relation} {gate.limit(gate.bar)})")
    assert gate.holds(ratio), f"{gate.label} {gate.show(ratio)} misses its bar: {gate.why}"
