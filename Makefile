# DiversiFi reproduction — common tasks.

PYTHON ?= python

.PHONY: install test lint lint-baseline typecheck sanitize-test bench \
	bench-pytest bench-smoke batch-smoke bench-full obs-smoke sdn-smoke \
	population-smoke examples docs clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ -q

# Static-analysis pipeline, both stages:
#   stage 1 (tools/reprolint)  — per-file determinism lint
#   stage 2 (tools/reproflow)  — project-wide passes on one shared parse:
#                                pass 1 index, pass 2 units/lifecycle/
#                                config, pass 3 interprocedural dataflow
#                                (FLO/PUR/ORD), pass 4 concurrency &
#                                serialization safety (SER/IMP/KEY)
# Each fails on any finding not in its committed baseline; see
# CONTRIBUTING.md for the rule tables and suppression syntax.
lint:
	PYTHONPATH=tools $(PYTHON) -m reprolint src/ tools/ tests/
	PYTHONPATH=tools $(PYTHON) -m reproflow src/ tools/ tests/

# Refreeze the baselines (only for genuinely unfixable legacy findings).
lint-baseline:
	PYTHONPATH=tools $(PYTHON) -m reprolint src/ tools/ tests/ --write-baseline
	PYTHONPATH=tools $(PYTHON) -m reproflow src/ tools/ tests/ --write-baseline

# Strict typing gate for the core package.  mypy is an optional dev
# dependency (CI installs it); skip gracefully where it is absent.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini src/repro; \
	else \
		echo "typecheck: mypy not installed; skipping (pip install mypy)"; \
	fi

# Run the simulator test files with the runtime invariant sanitizer on:
# heap-order assertions, stream-ownership checks, determinism digests.
sanitize-test:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/test_sim_engine.py \
		tests/test_sim_random.py tests/test_client_controller.py \
		tests/test_traffic.py tests/test_event_golden.py \
		tests/test_wifi_phy_mac.py -q

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The repository benchmark (perfbench/README.md): every workload's
# end-to-end metrics as one table.
bench:
	python3 perfbench/report.py

# The pytest-benchmark micro-suite (per-component timings).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s \
		2>&1 | tee bench_output.txt

# Determinism smokes (tools/digest_smoke.py): each artifact runs
# serially, with --jobs 2 and from a warm cache, all with
# REPRO_SANITIZE=1; the digests (obs-smoke: the --metrics-out bytes)
# must be identical and the warm run must execute nothing.
bench-smoke batch-smoke obs-smoke sdn-smoke population-smoke:
	$(PYTHON) tools/digest_smoke.py $@

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s \
		2>&1 | tee bench_output_full.txt

examples:
	for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

docs:
	$(PYTHON) tools/gen_api_docs.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +; \
	rm -rf .pytest_cache .hypothesis build *.egg-info
