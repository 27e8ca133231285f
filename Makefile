.PHONY: install test chaos docs-check fleet-check serve-smoke perfbench-check bench bench-search bench-stacked bench-stream obs-overhead telemetry-smoke trace-demo regen report report-paper examples paper clean

install:
	pip install -e .[dev]

test:
	pytest tests/

# Fault-injection suite (docs/resilience.md): fixed seeds + StepClocks,
# fully deterministic — no timing flakes.
chaos:
	pytest tests/resilience/ -p no:cacheprovider

# Docs integrity gate: intra-doc links resolve, doc code-block imports
# still exist, every docs/*.md is listed in docs/index.md.
docs-check:
	pytest tests/test_docs.py -p no:cacheprovider

# Fleet gate (tier-1): executor (per-layout FIFOs, per-case completion
# callbacks, crash protocol, serving lifecycle), supervisor and store
# suites, the bitwise fleet-vs-serial property test, the bitwise
# carried-engine property test
# (tests/property/test_carried_engine_properties.py: streaming miner and
# 1- and 2-worker fleets vs stateless), and a 2-worker fast-preset smoke.
fleet-check:
	pytest tests/fleet/ tests/property/test_fleet_properties.py tests/property/test_carried_engine_properties.py -p no:cacheprovider

# Serving gate (tier-1): protocol/admission/server suites, the request
# codec's case columns (data/io.py), a 2,000-request soak of the binary
# plane (tests/serving/test_soak.py: fds, threads and traced memory stay
# flat, run bare and again under the ring-only collector `repro serve`
# installs) and the end-to-end smoke — boot `repro serve` in a child
# process, submit cases over HTTP and raw-column binary frames, refuse a
# protocol-1 frame, assert bit-identical answers vs an in-process run,
# scrape /metrics off the same port, SIGINT-drain clean.
serve-smoke:
	pytest tests/serving/ tests/property/test_serving_properties.py tests/data/test_io.py tests/property/test_data_properties.py -p no:cacheprovider

# perfbench's own suite: metric units, workload smoke runs, and the
# tracer, which fails when a call it wraps (StackedCaseEngine.__init__ /
# attribute_deletions, DeltaSession.begin_tick,
# AggregationEngine.layer_scan, ...) no longer exists.  Tier-1 collects
# tests/ only, so this suite needs its own gate.
perfbench-check:
	PYTHONPATH=src python3 -m pytest perfbench/tests -p no:cacheprovider

bench:
	pytest benchmarks/ --benchmark-only

# Engine vs. naive search speedup; writes BENCH_search.json at the repo root.
bench-search:
	pytest benchmarks/test_engine_speedup.py::test_engine_speedup_report -p no:cacheprovider

# Serial vs. case-stacked vectorized batch kernel (RAPMiner.run_batch);
# writes BENCH_stacked.json at the repo root and enforces the >=2x floor.
bench-stacked:
	pytest benchmarks/test_stacked_throughput.py::test_stacked_throughput_report -p no:cacheprovider

# Streaming delta vs cold re-aggregation on a replayed multi-tick trace;
# writes BENCH_stream.json at the repo root and enforces the >=3x floor
# with bit-identical candidates asserted on every tick.
bench-stream:
	pytest benchmarks/test_stream_delta.py::test_stream_delta_report -p no:cacheprovider

# "Off = free" guard: per-op ceilings on the disabled obs primitives plus
# a macro stability check of the obs-disabled hot path; writes
# BENCH_obs.json at the repo root.
obs-overhead:
	pytest benchmarks/test_obs_overhead.py::test_obs_overhead_report -p no:cacheprovider

# Live telemetry smoke (tier-1): starts the exposition server on an
# ephemeral port, scrapes /metrics + /healthz + /debug/* during a short
# replay, and validates the Prometheus text parses.
telemetry-smoke:
	pytest tests/obs/test_server.py -p no:cacheprovider

# Small localization under --trace: asserts the JSONL trace parses and
# carries the expected span names / engine counters (tier-1 test).
trace-demo:
	pytest tests/test_cli.py -k trace -p no:cacheprovider

# Regenerate every table/figure with printed output (fast preset).
regen:
	pytest benchmarks/

report:
	python -m repro.experiments.report_builder --scale fast --out report.md

report-paper:
	python -m repro.experiments.report_builder --scale paper --extensions --out report.md

examples:
	python examples/quickstart.py
	python examples/cdn_incident_localization.py
	python examples/online_monitoring.py
	python examples/custom_dataset.py
	python examples/threshold_diagnostics.py
	python examples/method_comparison.py
	python examples/parameter_tuning.py

paper:
	python examples/method_comparison.py --paper-scale
	python examples/parameter_tuning.py --paper-scale

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
