# Convenience targets for the bit-pushing reproduction.

.PHONY: install test lint selfcheck bench bench-gate bench-scale report-demo health-demo serve-demo serve-trace-demo figures experiments examples clean

install:
	pip install -e .[dev]

test:
	pytest tests/

lint:
	ruff check .
	ruff format --check src/repro/observability scripts \
		tests/test_observability.py tests/test_observability_integration.py \
		tests/test_wire_roundtrip.py
	python scripts/lint_rng.py src/repro

# Statistical invariants + plaintext-oracle differential tests (quick tier).
# `make selfcheck DEEP=1` runs the full deep tier (~3 s).
selfcheck:
	python -m repro.cli selfcheck $(if $(DEEP),--deep)

# The repository benchmark: every workload of BENCHMARK.json, with each
# end-to-end metric printed by name and unit (see bench/README.md).
bench:
	python3 bench/run.py

# Perf regression gate: the benchmark for HEAD and for the working tree,
# interleaved on this machine; fails when bench/compare.py reads "worse".
bench-gate:
	scripts/bench_gate.sh HEAD

# Scale studies at full size: the columnar client plane (10**5..10**7
# clients -- clients/sec per population size, and a tracemalloc peak that
# must stay under 150 B/client), the secure-aggregation hierarchy
# (vectorized masking at least 5x the per-client submit loop at 10**4
# clients), and the wire-served round (loopback TCP reports/sec, single
# and concurrent campaigns, bit-identical to the in-process twin).
bench-scale:
	REPRO_SCALE_CLIENTS=100000,1000000,10000000 \
		pytest benchmarks/bench_scale.py -k "columnar or secure or served" --benchmark-only -s

# Record one deterministic flight-recorder run and render its report --
# the quickest way to see the whole observability surface end to end.
report-demo:
	python -m repro.cli trace 1a --quick --seed 7 --sim-clock --record out/report-demo
	python -m repro.cli report out/report-demo

# Scripted chaos campaigns: the retry-storm alert must fire during the
# fault burst and resolve over the clean tail, and the secure campaign's
# shard blackout must degrade (not abort) its round with the shard-failure
# alert firing and resolving -- or the target fails.
health-demo:
	python scripts/health_demo.py --assert-retry-storm --assert-shard-failure

# Served-round smoke: a lossless loopback round must be bit-identical to
# the in-process FederatedMeanQuery twin, and a lossy round with
# adversarial clients must match its in-process estimate with every bad
# uplink rejected and accounted for -- or the target fails.
serve-demo:
	python scripts/serve_demo.py

# Distributed-tracing smoke: a served round under simulated clocks must
# ingest telemetry from every fleet client, merge all remote spans under
# the server's deterministic round trace id, and export a valid Chrome
# trace-event timeline (out/serve_trace_demo/trace.json) -- or the target
# fails.  Open the JSON in Perfetto / chrome://tracing to browse it.
serve-trace-demo:
	python scripts/serve_trace_demo.py

# Reproduce every paper figure at full scale (tables to stdout).
figures:
	@for panel in 1a 1b 1c 2a 2b 2c 3a 3b 4a 4b 4c; do \
		python -m repro.cli figure $$panel; \
	done

# Rebuild EXPERIMENTS.md (paper-vs-measured, full scale; a few minutes).
experiments:
	python -m repro.experiments.generate

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; python $$script; \
	done

clean:
	rm -rf .pytest_cache benchmarks/results src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
