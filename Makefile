GO ?= go

.PHONY: all check fmt vet build inline-check test race bench bench-smoke cover metrics-smoke trace-smoke series-smoke fuzz-smoke scenario-smoke shard-smoke emu-smoke stbench clean

# Per-target budget for the fuzz smoke (CI passes a longer one).
FUZZTIME ?= 30s

all: check

# The full gate: everything CI runs.
check: fmt vet build inline-check test race

# Fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench/ is its own Go module, out of the root's ./... pattern; vet it in
# place too.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .

build:
	$(GO) build ./...

# Hot-path inlining guard. Each function below is written to be inlined
# into its hot callers: the histogram's Add (one store and a test per
# trigger state), the hashed wheel's due check and earliest bound (the
# paper's per-trigger check), and the engine heap's push-side sift. A
# change that takes one over the compiler's inlining budget fails here,
# not only as a slower benchmark.
INLINED = '(*Histogram).Add' '(*Wheel).Due' '(*Wheel).Earliest' 'leaderHeap.siftUp'
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/stats ./internal/timerwheel ./internal/sim 2>&1) || { echo "$$out"; exit 1; }; \
	for f in $(INLINED); do \
		echo "$$out" | grep -qF "can inline $$f" || { echo "inline-check: $$f no longer inlines"; exit 1; }; \
		echo "inline-check: $$f inlines"; \
	done

test: metrics-smoke trace-smoke series-smoke emu-smoke bench-smoke
	$(GO) test -shuffle=on ./...

# Repository-benchmark smoke: bench/ is a Go module of its own, so the
# root's `go test ./...` does not reach its tests; run them in place.
bench-smoke:
	cd bench && $(GO) test .

# The emulation clock's cross-goroutine injection, the emulation bridge's
# socket goroutines and the parallel experiment runner (whose rows run
# topology and httpserv rigs side by side) are the concurrency-sensitive
# code; run their packages under the race detector.
race:
	$(GO) test -race ./internal/sim ./internal/experiments ./internal/topology ./internal/httpserv ./internal/netstack ./internal/timerwheel ./internal/emu

# Engine, metrics, timer-wheel, facility-check, packet and HTTP request
# hot-path microbenchmarks (allocation counts included). The zero-alloc guards run
# first — the two-host packet path must stay at 0 allocs/op both bare
# (TestTestbedPacketZeroAlloc) and with the flowtrace hop sites wired but
# sampling off (TestTestbedPacketZeroAllocTracingOff), and across two
# shards (TestCrossShardPacketZeroAlloc: freed packets go home to the arena
# that carved them and the courier recycles its hand-off records), and so
# must the engine, the sparse timer-wheel firing cycle, the facility's
# trigger-state check and a warm HTTP server's request path
# (TestHTTPRequestZeroAlloc) — so a pooling or tracing regression fails
# the target before any numbers are printed. Beside them, TestBuildAllocsPerHost caps topology.Build's
# allocations per host, so per-counter registration cannot come back;
# TestFleetSnapshotAllocs caps Topology.Snapshot's at one per host, so an
# allocation per snapshot key cannot come back;
# TestLoneWheelAllocs holds a wheel that never has two timers pending to
# New's one allocation, so eager slot arrays cannot come back; and
# TestMultiPacerFireAllocs keeps a multi-flow pacer's firing from
# allocating. The engine, wheel, facility, multi-pacer and cross-shard
# guards count every allocation of one measured run; the two-host and
# HTTP guards read a per-run mean rounded down (ROADMAP, bench gate).
bench:
	$(GO) test -run 'TestTestbedPacketZeroAlloc|TestCrossShardPacketZeroAlloc' -count=1 ./internal/topology
	$(GO) test -run 'TestHTTPRequestZeroAlloc' -count=1 ./internal/httpserv
	$(GO) test -run 'TestEngineZeroAlloc' -count=1 ./internal/sim
	$(GO) test -run 'TestSparseFireZeroAlloc|TestLoneWheelAllocs' -count=1 ./internal/timerwheel
	$(GO) test -run 'TestFacilityCheckZeroAlloc|TestMultiPacerFireAllocs' -count=1 ./internal/core
	$(GO) test -run 'TestBuildAllocsPerHost|TestFleetSnapshotAllocs' -count=1 ./internal/topology
	$(GO) test -bench 'BenchmarkEngine|BenchmarkShardRound' -benchmem -run '^$$' ./internal/sim
	$(GO) test -bench 'BenchmarkMetrics|BenchmarkFleetSnapshot' -benchmem -run '^$$' ./internal/metrics
	$(GO) test -bench 'BenchmarkWheelSparseFire|BenchmarkHashedDueCheckIdle' -benchmem -run '^$$' ./internal/timerwheel
	$(GO) test -bench 'BenchmarkFacilityCheck|BenchmarkFacilityColdHosts' -benchmem -run '^$$' ./internal/core
	$(GO) test -bench 'BenchmarkKernelTrigger' -benchmem -run '^$$' ./internal/kernel
	$(GO) test -bench 'BenchmarkTestbedPacket|BenchmarkCrossShardPacket|BenchmarkSwitchForward|BenchmarkFleetBuild' -benchmem -run '^$$' ./internal/topology
	$(GO) test -bench 'BenchmarkHTTPRequest' -benchmem -run '^$$' ./internal/httpserv
	$(GO) test -bench 'BenchmarkFleetSharded' -benchmem -run '^$$' ./internal/experiments

# Statement coverage across all packages, with a per-function summary.
cover:
	$(GO) test -coverprofile=/tmp/softtimers-cover.out -covermode=atomic ./...
	$(GO) tool cover -func=/tmp/softtimers-cover.out | tail -n 1

# End-to-end telemetry smoke: dump real experiments' metrics snapshots and
# schema-check them: fig2's rows merged into one snapshot, and a fleet's
# per-host histograms, whose buckets a snapshot shares with the live ones.
metrics-smoke:
	$(GO) run ./cmd/stbench -exp fig2 -metrics /tmp/stbench-metrics-smoke.json >/dev/null
	$(GO) run ./cmd/metricscheck /tmp/stbench-metrics-smoke.json
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -metrics /tmp/stbench-metrics-fleet.json >/dev/null
	$(GO) run ./cmd/metricscheck /tmp/stbench-metrics-fleet.json

# End-to-end trace smoke: export a Chrome trace and verify it parses as the
# trace-event format (the golden test covers the exact bytes; this covers
# the full workload -> tracer -> exporter pipeline), then export the traced
# fleet's multi-host trace with flow arrows and verify the flow events pair
# up (ph "s"/"f" exactly once per binding id, finish after start).
trace-smoke:
	$(GO) run ./cmd/sttrace -workload ST-nfs -mode chrome -n 20000 > /tmp/sttrace-smoke.trace.json
	$(GO) run ./cmd/tracecheck /tmp/sttrace-smoke.trace.json
	$(GO) run ./cmd/sttrace -mode flows-chrome -clients 4 > /tmp/sttrace-flows-smoke.trace.json
	$(GO) run ./cmd/tracecheck /tmp/sttrace-flows-smoke.trace.json

# Virtual-time series smoke: dump the fleet-trace experiment's series and
# schema-check them (monotone grid timestamps, capacity, alignment), then
# re-dump fully parallel — the files must be byte-identical (downsampling
# determinism at -parallel 1 vs 8).
series-smoke:
	$(GO) run ./cmd/stbench -exp fleet-trace -scale smoke -parallel 1 -series /tmp/stbench-series1.json >/dev/null
	$(GO) run ./cmd/metricscheck -series /tmp/stbench-series1.json
	$(GO) run ./cmd/stbench -exp fleet-trace -scale smoke -parallel 8 -series /tmp/stbench-series8.json >/dev/null
	diff /tmp/stbench-series1.json /tmp/stbench-series8.json

# Native-fuzz smoke: run each fuzz target for FUZZTIME beyond its checked-in
# corpus. Corpus-only regression replay happens in plain `make test`. Go
# minimizes every input that finds new coverage before fuzzing on, for up to
# 60 s each by default, and the progress lines read 0 execs/sec meanwhile;
# -fuzzminimizetime bounds each minimization so the budget goes to fuzzing.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzKindRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzChromeWriter$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEventQueueOps$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/timerwheel -run '^$$' -fuzz '^FuzzWheelOps$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzFacilityOps$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzHistogramOps$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# Degradation smoke: the fault-injection summary under the nastiest named
# scenario, exercising the -scenario path end to end.
scenario-smoke:
	$(GO) run ./cmd/stbench -scenario hostile >/dev/null

# Sharded-execution smoke: the flat, hierarchical (leaf-spine) and traced
# fleet sweeps on 2 and 8 conservative-sync engines must dump telemetry —
# and, for fleet-trace, virtual-time series — byte-identical to the
# one-shard run (the sharding determinism contract, end to end through
# stbench).
shard-smoke:
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 1 -metrics /tmp/stbench-scale1.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 2 -metrics /tmp/stbench-scale2.json >/dev/null
	diff /tmp/stbench-scale1.json /tmp/stbench-scale2.json
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 8 -metrics /tmp/stbench-scale8.json >/dev/null
	diff /tmp/stbench-scale1.json /tmp/stbench-scale8.json
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -shards 1 -metrics /tmp/stbench-hier1.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -shards 2 -metrics /tmp/stbench-hier2.json >/dev/null
	diff /tmp/stbench-hier1.json /tmp/stbench-hier2.json
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -shards 8 -metrics /tmp/stbench-hier8.json >/dev/null
	diff /tmp/stbench-hier1.json /tmp/stbench-hier8.json
	$(GO) run ./cmd/stbench -exp fleet-trace -scale smoke -shards 1 -metrics /tmp/stbench-trace1.json -series /tmp/stbench-tseries1.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-trace -scale smoke -shards 2 -metrics /tmp/stbench-trace2.json -series /tmp/stbench-tseries2.json >/dev/null
	diff /tmp/stbench-trace1.json /tmp/stbench-trace2.json
	diff /tmp/stbench-tseries1.json /tmp/stbench-tseries2.json
	$(GO) run ./cmd/stbench -exp fleet-trace -scale smoke -shards 8 -metrics /tmp/stbench-trace8.json -series /tmp/stbench-tseries8.json >/dev/null
	diff /tmp/stbench-trace1.json /tmp/stbench-trace8.json
	diff /tmp/stbench-tseries1.json /tmp/stbench-tseries8.json

# Emulation smoke: stserve's self-test serves real HTTP over loopback for
# ~2 s, its engine paced by the wall clock, and asserts at least one
# pacer-clocked response plus a non-empty engine-lag histogram; then the
# emu-trigger-interval experiment measures real trigger intervals for both
# server models. Each prints SKIP (and exits 0) on runners where loopback
# sockets are unavailable.
emu-smoke:
	$(GO) run ./cmd/stserve -selftest
	$(GO) run ./cmd/stbench -exp emu-trigger-interval -scale smoke

stbench:
	$(GO) build -o stbench ./cmd/stbench

clean:
	rm -f stbench
