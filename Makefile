GO ?= go

.PHONY: all check vet build test race bench bench-smoke cover metrics-smoke trace-smoke series-smoke fuzz-smoke scenario-smoke shard-smoke queue-smoke emu-smoke stbench clean

# Per-target budget for the fuzz smoke (CI passes a longer one).
FUZZTIME ?= 30s

all: check

# The full gate: everything CI runs.
check: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test: metrics-smoke trace-smoke series-smoke queue-smoke emu-smoke bench-smoke
	$(GO) test -shuffle=on ./...

# Repository-benchmark smoke: bench/ is a Go module of its own, so the
# root's `go test ./...` does not reach its tests; run them in place.
bench-smoke:
	cd bench && $(GO) test .

# The engine pool, the parallel experiment runner, and the sharded
# executor (plus the topology/httpserv rigs that run on it) are the
# concurrency-sensitive packages; run them under the race detector.
race:
	$(GO) test -race ./internal/sim ./internal/experiments ./internal/topology ./internal/httpserv ./internal/netstack ./internal/timerwheel ./internal/emu

# Engine, metrics, timer-wheel, facility-check, packet and HTTP request
# hot-path microbenchmarks (allocation counts included). The zero-alloc guards run
# first — the two-host packet path must stay at 0 allocs/op both bare
# (TestTestbedPacketZeroAlloc) and with the flowtrace hop sites wired but
# sampling off (TestTestbedPacketZeroAllocTracingOff), and so must the
# engine, the sparse timer-wheel firing cycle, the facility's trigger-state
# check and a warm HTTP server's request path (TestHTTPRequestZeroAlloc) —
# so a pooling or tracing regression fails the target before any numbers
# are printed.
bench:
	$(GO) test -run 'TestTestbedPacketZeroAlloc' -count=1 ./internal/topology
	$(GO) test -run 'TestHTTPRequestZeroAlloc' -count=1 ./internal/httpserv
	$(GO) test -run 'TestEngineZeroAlloc' -count=1 ./internal/sim
	$(GO) test -run 'TestSparseFireZeroAlloc' -count=1 ./internal/timerwheel
	$(GO) test -run 'TestFacilityCheckZeroAlloc' -count=1 ./internal/core
	$(GO) test -bench 'BenchmarkEngine|BenchmarkReschedule|BenchmarkQueueChurn|BenchmarkShardRound' -benchmem -run '^$$' ./internal/sim
	$(GO) test -bench 'BenchmarkMetrics' -benchmem -run '^$$' ./internal/metrics
	$(GO) test -bench 'BenchmarkWheelSparseFire|BenchmarkHashedDueCheckIdle' -benchmem -run '^$$' ./internal/timerwheel
	$(GO) test -bench 'BenchmarkFacilityCheck' -benchmem -run '^$$' ./internal/core
	$(GO) test -bench 'BenchmarkTestbedPacket|BenchmarkSwitchForward' -benchmem -run '^$$' ./internal/topology
	$(GO) test -bench 'BenchmarkHTTPRequest' -benchmem -run '^$$' ./internal/httpserv
	$(GO) test -bench 'BenchmarkTCPSegment|BenchmarkTCPAck' -benchmem -run '^$$' ./internal/tcp
	$(GO) test -bench 'BenchmarkFleetSharded' -benchmem -run '^$$' ./internal/experiments

# Statement coverage across all packages, with a per-function summary.
cover:
	$(GO) test -coverprofile=/tmp/softtimers-cover.out -covermode=atomic ./...
	$(GO) tool cover -func=/tmp/softtimers-cover.out | tail -n 1

# End-to-end telemetry smoke: dump a real experiment's metrics snapshot and
# schema-check it.
metrics-smoke:
	$(GO) run ./cmd/stbench -exp fig2 -metrics /tmp/stbench-metrics-smoke.json >/dev/null
	$(GO) run ./cmd/metricscheck /tmp/stbench-metrics-smoke.json

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
# corpus. Corpus-only regression replay happens in plain `make test`.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzKindRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzChromeWriter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEventQueueOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/timerwheel -run '^$$' -fuzz '^FuzzWheelOps$$' -fuzztime $(FUZZTIME)

# Degradation smoke: the fault-injection summary under the nastiest named
# scenario, exercising the -scenario path end to end.
scenario-smoke:
	$(GO) run ./cmd/stbench -scenario hostile >/dev/null

# Sharded-execution smoke: the fleet-scale and hierarchical (leaf-spine)
# fleet sweeps on 1 vs 4/8 conservative-sync engines must dump
# byte-identical telemetry (the sharding determinism contract, end to end
# through stbench), with lookahead mining on or off and under static or
# traffic-profiled placement. The sync.* grant telemetry varies with those
# knobs by design, but must itself be deterministic across -parallel.
shard-smoke:
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 1 -metrics /tmp/stbench-shard1.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 4 -metrics /tmp/stbench-shard4.json >/dev/null
	diff /tmp/stbench-shard1.json /tmp/stbench-shard4.json
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 8 -metrics /tmp/stbench-shard8.json >/dev/null
	diff /tmp/stbench-shard1.json /tmp/stbench-shard8.json
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 4 -mining=false -metrics /tmp/stbench-shard4nm.json >/dev/null
	diff /tmp/stbench-shard1.json /tmp/stbench-shard4nm.json
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 4 -placement auto -metrics /tmp/stbench-shard4ap.json >/dev/null
	diff /tmp/stbench-shard1.json /tmp/stbench-shard4ap.json
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 8 -placement auto -mining=false -metrics /tmp/stbench-shard8apnm.json >/dev/null
	diff /tmp/stbench-shard1.json /tmp/stbench-shard8apnm.json
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 4 -parallel 1 -sync /tmp/stbench-sync-p1.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-scale -scale smoke -shards 4 -parallel 8 -sync /tmp/stbench-sync-p8.json >/dev/null
	diff /tmp/stbench-sync-p1.json /tmp/stbench-sync-p8.json
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -shards 1 -metrics /tmp/stbench-hier1.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -shards 4 -metrics /tmp/stbench-hier4.json >/dev/null
	diff /tmp/stbench-hier1.json /tmp/stbench-hier4.json
	$(GO) run ./cmd/stbench -exp fleet-trace -scale smoke -shards 1 -metrics /tmp/stbench-trace1.json -series /tmp/stbench-tseries1.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-trace -scale smoke -shards 4 -metrics /tmp/stbench-trace4.json -series /tmp/stbench-tseries4.json >/dev/null
	diff /tmp/stbench-trace1.json /tmp/stbench-trace4.json
	diff /tmp/stbench-tseries1.json /tmp/stbench-tseries4.json

# Queue-backend smoke: the churn-heavy hierarchical fleet must dump
# byte-identical telemetry on every engine event-queue backend (the
# differential contract, end to end through stbench -queue; the heap run
# is the reference).
queue-smoke:
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -queue heap -metrics /tmp/stbench-queue-heap.json >/dev/null
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -queue wheel -metrics /tmp/stbench-queue-wheel.json >/dev/null
	diff /tmp/stbench-queue-heap.json /tmp/stbench-queue-wheel.json
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -queue hier -metrics /tmp/stbench-queue-hier.json >/dev/null
	diff /tmp/stbench-queue-heap.json /tmp/stbench-queue-hier.json
	$(GO) run ./cmd/stbench -exp fleet-hier -scale smoke -queue ffs -metrics /tmp/stbench-queue-ffs.json >/dev/null
	diff /tmp/stbench-queue-heap.json /tmp/stbench-queue-ffs.json

# Emulation smoke: stserve's self-test serves real HTTP over loopback for
# ~2 s under the RealTimeClock driver and asserts at least one pacer-clocked
# response plus a non-empty engine-lag histogram. Prints SKIP (and exits 0)
# on runners where loopback sockets are unavailable.
emu-smoke:
	$(GO) run ./cmd/stserve -selftest

stbench:
	$(GO) build -o stbench ./cmd/stbench

clean:
	rm -f stbench
