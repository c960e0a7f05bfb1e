# Developer entry points. `make check` is the full local gate: it must be
# green before every push (the same bar CI holds).

CARGO ?= cargo

.PHONY: check build test clippy doc golden bless scenarios serve-metrics fleet tune bench-smoke trace profile bench reproduce clean

## Full gate: release build, tests, warning-free clippy, warning-free
## rustdoc, the golden-trace regression suite (plus the examples it ships
## with), the four-scenario smoke run, the live-/metrics endpoint smoke,
## the fleet and tuning determinism smokes, and the benchmark self-test.
check: build test clippy doc golden scenarios serve-metrics fleet tune bench-smoke

## `--locked`: a manifest edit that would rewrite Cargo.lock fails here
## instead of silently changing the lock.
build:
	$(CARGO) build --release --locked

test:
	$(CARGO) test -q

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

## Warning-free rustdoc: an intra-doc link to a deleted, renamed or
## private item fails here, where neither clippy nor the tests look.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --offline --no-deps --workspace

## Golden-trace regression suite: every v1.0 suite cell locked at 0 ULPs
## against tests/golden/, and every example still builds.
golden:
	$(CARGO) test --release --test golden_suite
	$(CARGO) build --examples

## Re-bless the goldens after an intentional scoring change.
bless:
	BLESS=1 $(CARGO) test --release --test golden_suite

## Smoke-run all four LoadGen scenarios (single-stream, offline, server,
## multi-stream) end to end through the reproduce CLI with tracing on, and
## check the trace file holds one traced run per flagship cell. The
## untraced CLI path is covered by serve-metrics.
scenarios: build
	@rm -rf out/scenarios
	target/release/reproduce scenarios --trace out/scenarios
	@runs=$$(target/release/reproduce explain out/scenarios/scenarios.json | grep -c '^== profile: '); \
	[ "$$runs" = 4 ] || { echo "scenarios: expected 4 traced runs in out/scenarios/scenarios.json, found $$runs"; exit 1; }; \
	echo "scenarios: out/scenarios/scenarios.json holds 4 traced runs"

## Smoke the live observability endpoint: run the scenario artifact with
## the HTTP server on an ephemeral port, then curl /healthz and /metrics
## and assert the run and pool metric families are being exported.
serve-metrics: build
	@rm -rf out/obs && mkdir -p out/obs
	@target/release/reproduce scenarios \
		--serve 127.0.0.1:0 --serve-addr-file out/obs/addr \
		--serve-hold-ms 5000 & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s out/obs/addr ] && break; sleep 0.1; done; \
	if ! [ -s out/obs/addr ]; then echo "serve-metrics: endpoint never bound"; kill $$pid 2>/dev/null; exit 1; fi; \
	addr=$$(cat out/obs/addr); \
	health=$$(curl -fsS --max-time 5 "http://$$addr/healthz") || { echo "serve-metrics: /healthz failed"; kill $$pid 2>/dev/null; exit 1; }; \
	[ "$$health" = "ok" ] || { echo "serve-metrics: unexpected /healthz body: $$health"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -fsS --max-time 5 "http://$$addr/metrics" > out/obs/metrics.prom || { echo "serve-metrics: /metrics failed"; kill $$pid 2>/dev/null; exit 1; }; \
	for family in mlperf_runs_completed_total mlperf_queries_issued_total mlperf_pool_par_map_calls_total mlperf_run_wall_ns mlperf_obs_requests_total; do \
		grep -q "^# TYPE $$family " out/obs/metrics.prom || { echo "serve-metrics: family $$family missing from /metrics"; kill $$pid 2>/dev/null; exit 1; }; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	echo "serve-metrics: /healthz + /metrics OK ($$addr)"

## Fleet determinism smoke: run the field-population sweep artifact once
## on one worker and once on the full pool, and hold the bit-reproducibility
## contract as a byte diff — same seed, same report, any worker count —
## then hold the release build to tests/golden/reproduce_fleet.txt, the
## text the debug-build `reproduce_golden` test pins.
fleet: build
	@rm -rf out/fleet && mkdir -p out/fleet
	@MLPERF_WORKERS=1 target/release/reproduce fleet > out/fleet/report-w1.txt
	@MLPERF_WORKERS=7 target/release/reproduce fleet > out/fleet/report-w7.txt
	@cmp out/fleet/report-w1.txt out/fleet/report-w7.txt || { echo "fleet: report differs across worker counts"; exit 1; }
	@cmp out/fleet/report-w1.txt tests/golden/reproduce_fleet.txt || { echo "fleet: report differs from tests/golden/reproduce_fleet.txt"; exit 1; }
	@echo "fleet: report byte-identical across MLPERF_WORKERS=1 and 7, and to its golden"

## Tuning determinism smoke: run the heuristic-vs-optimal gap-table
## artifact once on one worker and once on the full pool, and hold the
## bit-reproducibility contract as a byte diff — every cell is a pure
## function of (chip, backend, model, tuner config).
tune: build
	@rm -rf out/tune && mkdir -p out/tune
	@MLPERF_WORKERS=1 target/release/reproduce tuning > out/tune/report-w1.txt
	@MLPERF_WORKERS=7 target/release/reproduce tuning > out/tune/report-w7.txt
	@cmp out/tune/report-w1.txt out/tune/report-w7.txt || { echo "tune: report differs across worker counts"; exit 1; }
	@echo "tune: report byte-identical across MLPERF_WORKERS=1 and 7"

## Build the repo benchmark (perfbench/, a package outside the
## workspace, so nothing above compiles it) and run its self-test: tiny
## inputs through every workload, every metric and every output check.
## `--locked` fails on a dependency edit that would rewrite the
## benchmark's perfbench/Cargo.lock.
bench-smoke:
	$(CARGO) test --release --offline --locked --manifest-path perfbench/Cargo.toml

## Regenerate every artifact with per-query tracing; one JSON trace per
## artifact lands in out/trace/.
trace:
	$(CARGO) run --release -p mlperf-bench --bin reproduce -- all --trace out/trace

## Tracing plus analysis: per artifact, a Perfetto timeline
## (out/profile/<artifact>.perfetto.json — open in ui.perfetto.dev) and a
## profile report (engine utilization, DVFS residency, energy split).
profile:
	$(CARGO) run --release -p mlperf-bench --bin reproduce -- all --profile out/profile

## Performance: the repo benchmark (every perfbench workload end to
## end; BENCHMARK.json names the metrics and bounds), then criterion
## microbenches of the five layers its traced runs show are hot: the
## query hot loop and accuracy mode (`submission`), the LoadGen searches
## (`scenarios`), batched lanes (`fleet`) and the tuner search (`tune`).
bench:
	$(CARGO) run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- --workload all
	$(CARGO) bench -p mlperf-bench --bench query_hot_loop
	$(CARGO) bench -p mlperf-bench --bench harness_accuracy
	$(CARGO) bench -p mlperf-bench --bench loadgen_search
	$(CARGO) bench -p mlperf-bench --bench batch_lanes
	$(CARGO) bench -p mlperf-bench --bench tune_search

## Regenerate every paper artifact (`make trace` also records each
## artifact's wall-clock and cache counters).
reproduce:
	$(CARGO) run --release -p mlperf-bench --bin reproduce

clean:
	$(CARGO) clean
