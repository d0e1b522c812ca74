package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"softtimers/internal/sim"
)

// The fleet sharding contract, end to end: one fleet row produces the same
// measurements, the same merged telemetry snapshot, and the same merged
// Chrome trace whether it runs on the legacy shared engine, a one-shard
// group, or split across several shards — serially or with a worker pool.
func TestFleetShardedMatchesLegacy(t *testing.T) {
	const n, salt, traceCap = 6, 777, 4096
	run := func(shards, workers int) (FleetRow, []byte, []byte) {
		sc := tinyScale()
		sc.Shards = shards
		sc.Workers = workers
		row, snap, chrome := runFleetOpts(sc, salt, n, traceCap)
		row.WallMS = 0 // real time, the one legitimately mode-dependent field
		sj, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return row, sj, chrome
	}
	refRow, refSnap, refChrome := run(0, 0)
	if refRow.Probes == 0 || refRow.Completed == 0 {
		t.Fatalf("reference row is degenerate: %+v", refRow)
	}
	for _, c := range []struct {
		name            string
		shards, workers int
	}{
		{"shards=1", 1, 0},
		{"shards=2", 2, 0},
		{"shards=4", 4, 0},
		{"shards=4/workers=4", 4, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			row, snap, chrome := run(c.shards, c.workers)
			if row != refRow {
				t.Errorf("row diverged from legacy:\n got %+v\nwant %+v", row, refRow)
			}
			if !bytes.Equal(snap, refSnap) {
				t.Errorf("merged telemetry diverged from legacy (%d vs %d bytes)", len(snap), len(refSnap))
			}
			if !bytes.Equal(chrome, refChrome) {
				t.Errorf("merged Chrome trace diverged from legacy (%d vs %d bytes)", len(chrome), len(refChrome))
			}
		})
	}
}

// The equivalence contract at a scale where same-instant arrivals are
// routine: 64 clients behind one switch share the default 30 µs link
// delay, so the saturated server constantly sees several packets — and
// its own timers — due at the same nanosecond. Small fleets (the n=6 case
// above) essentially never collide, and an executor that orders
// same-instant cross-shard arrivals differently from the single-engine
// path passes there while diverging here; this pins the arrival-band fix.
func TestFleetShardedMatchesLegacyAtSaturation(t *testing.T) {
	run := func(shards int) (FleetRow, []byte) {
		sc := tinyScale()
		sc.Shards = shards
		row, snap, _ := runFleetOpts(sc, 306, 64, 0)
		row.WallMS = 0
		sj, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return row, sj
	}
	refRow, refSnap := run(0)
	if refRow.Probes == 0 || refRow.Completed == 0 {
		t.Fatalf("reference row is degenerate: %+v", refRow)
	}
	row, snap := run(4)
	if row != refRow {
		t.Errorf("64-host row diverged from legacy:\n got %+v\nwant %+v", row, refRow)
	}
	if !bytes.Equal(snap, refSnap) {
		t.Errorf("64-host merged telemetry diverged from legacy (%d vs %d bytes)", len(snap), len(refSnap))
	}
}

// The §3 delay bound at a scale only sharding makes affordable: 1024 client
// kernels, each probed, each individually under hardclock period + 1 tick.
func TestFleetDelayBound1024Hosts(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host fleet in -short mode")
	}
	sc := tinyScale()
	sc.Warmup = 200 * sim.Millisecond // quartered inside runFleet
	sc.Measure = 400 * sim.Millisecond
	sc.Shards = 4
	row, snap := runFleet(sc, 901, 1024)
	if row.Probes == 0 {
		t.Fatal("no probes fired")
	}
	if !row.BoundOK || row.WorstDelay > row.BoundUS {
		t.Fatalf("worst probe delay %.0fus exceeds bound %.0fus", row.WorstDelay, row.BoundUS)
	}
	if row.Completed == 0 {
		t.Fatal("no responses completed")
	}
	for _, name := range []string{"host.server", "host.client00", "host.client1023"} {
		if snap.Counters[name+".softtimer.fired"] == 0 {
			t.Fatalf("%s facility fired no events", name)
		}
	}
}

// BenchmarkFleetSharded times one 64-host fleet row per shard count: what
// inline shard rounds cost over one engine.
func BenchmarkFleetSharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(map[int]string{1: "shards=1", 4: "shards=4"}[shards], func(b *testing.B) {
			sc := tinyScale()
			sc.Shards = shards
			for i := 0; i < b.N; i++ {
				runFleet(sc, 955, 64)
			}
		})
	}
}
