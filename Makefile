# Convenience targets for the repro library.

PYTHON ?= python
SCALE ?= quick

.PHONY: install test lint bench bench-all tables faults trace golden conformance experiments apidocs examples serve soak clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Correctness-only ruff gate (rule selection lives in pyproject.toml).
lint:
	$(PYTHON) -m ruff check src tests scripts benchmarks examples

# Engine micro-benchmarks -> BENCH_engine.json (median timings), plus the
# session sweep wall-clock demos (parallel speedup, warm-cache replay).
bench:
	$(PYTHON) scripts/run_benchmarks.py
	REPRO_SCALE=$(SCALE) PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_sweep_parallel.py -q -s

# The full benchmark suite (ablations and table regenerations included).
bench-all:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

tables:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m repro all

# Robustness grid (fault rate x protocol, watchdog recovery) at smoke
# scale: fast enough for CI, still exercises the §3.1 failure contrast.
faults:
	REPRO_SCALE=smoke PYTHONPATH=src $(PYTHON) -m repro faults

# One run's arbitration-event trace as JSON lines on stdout (see
# docs/observability.md for the schema).
trace:
	REPRO_SCALE=smoke PYTHONPATH=src $(PYTHON) -m repro trace

# Regenerate the golden traces under tests/golden/ after an intentional
# engine change (the diff shows exactly which lines drifted).
golden:
	PYTHONPATH=src $(PYTHON) scripts/regen_golden.py

# Paper-level equivalence/conformance suite plus golden-trace pinning.
conformance:
	PYTHONPATH=src $(PYTHON) -m pytest tests/conformance -q

experiments:
	REPRO_SCALE=paper $(PYTHON) scripts/generate_experiments.py
	$(PYTHON) scripts/append_extension_tables.py

apidocs:
	$(PYTHON) scripts/generate_api_docs.py

# Serve the arbitration service on a local AF_UNIX socket (override the
# path with REPRO_SERVICE_SOCKET or `-- --socket PATH`); submit work
# with `repro submit` or ServiceClient, stop with the shutdown op.
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve

# The service acceptance soak: a 200-job stream with injected worker
# kills and deadline expiries — every job must reach a terminal state
# and every completed job must match a direct session run exactly.
soak:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_service_soak.py -q -s -m slow

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
