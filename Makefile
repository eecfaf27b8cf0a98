# Convenience targets for the AQL_Sched reproduction.

PYTHON ?= python3
JOBS ?= 4

.PHONY: install test lint bench bench-json bench-fleet-json bench-check fleet fleet-fast figures sweep examples resume-demo clean clean-cache

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# static analysis: simlint (always — stdlib only; any finding fails,
# over its default surface src/repro and benchmarks), then ruff and mypy
# when installed (CI installs both; config lives in pyproject.toml so
# local and CI runs agree)
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else echo "lint: ruff not installed, skipping"; fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else echo "lint: mypy not installed, skipping"; fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# full benchmark run; rewrites the tracked BENCH_sim.json baseline
bench-json:
	$(PYTHON) benchmarks/run_bench.py

# full fleet benchmark; rewrites the tracked BENCH_fleet.json baseline
bench-fleet-json:
	$(PYTHON) benchmarks/run_bench.py --suite fleet

# CI smoke: quick runs gated against the committed baselines (25% floor)
bench-check:
	$(PYTHON) benchmarks/run_bench.py --quick --out BENCH_quick.json \
		--compare BENCH_sim.json
	$(PYTHON) benchmarks/run_bench.py --suite fleet --quick \
		--out BENCH_fleet_quick.json --compare BENCH_fleet.json

# the datacenter fleet comparison (64 hosts, >500 VMs at peak);
# `make fleet-fast` runs the 6-host smoke configuration instead
fleet:
	$(PYTHON) -m repro.experiments fleet --jobs $(JOBS)

fleet-fast:
	$(PYTHON) -m repro.experiments fleet --fast --jobs $(JOBS)

figures:
	$(PYTHON) -m repro.experiments all

sweep:
	$(PYTHON) -m repro.experiments all --jobs $(JOBS)

# crash/resume demonstration: SIGKILL a sweep after its 3rd
# checkpointed cell, then resume the run directory and verify the
# folded pickle is byte-identical to an uninterrupted run (the same
# drill CI's engine-smoke job and tests/test_exec_crash_resume.py run)
resume-demo:
	rm -rf .demo-runs ref.pickle resumed.pickle
	PYTHONPATH=src $(PYTHON) -m tests.engine_cells \
		--run-root .demo-runs/ref --cells 8 --jobs 2 --fold-out ref.pickle
	-PYTHONPATH=src REPRO_ENGINE_KILL_AFTER=3 $(PYTHON) -m tests.engine_cells \
		--run-root .demo-runs/crash --cells 8 --jobs 2
	@echo "--- killed after 3 cells; checkpoints in the event log:"
	@grep -c '^{"kind": "checkpoint_written"' .demo-runs/crash/run-*/events.jsonl
	PYTHONPATH=src $(PYTHON) -m tests.engine_cells \
		--run-root .demo-runs/crash --cells 8 --jobs 2 --fold-out resumed.pickle
	cmp ref.pickle resumed.pickle
	PYTHONPATH=src $(PYTHON) -m repro.exec .demo-runs/crash/run-*/events.jsonl
	@echo "resume-demo: resumed fold is byte-identical to the clean run"
	rm -rf .demo-runs ref.pickle resumed.pickle

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/consolidated_cloud.py
	$(PYTHON) examples/calibrate_platform.py
	$(PYTHON) examples/online_recognition.py
	$(PYTHON) examples/schedule_trace.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build *.egg-info

clean-cache:
	rm -rf .repro_cache
