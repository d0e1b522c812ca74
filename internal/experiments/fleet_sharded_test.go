package experiments

import (
	"testing"

	"softtimers/internal/sim"
)

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
	row, m := fleetScaleRow(sc, 901, 1024, "", 0)
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
		if m.snap.Counters[name+".softtimer.fired"] == 0 {
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
				fleetScaleRow(sc, 955, 64, "", 0)
			}
		})
	}
}

// BenchmarkFleetSharded1024 times the 1024-host fleet row per shard
// count: what eight inline shards cost over one engine at fleet scale.
func BenchmarkFleetSharded1024(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(map[int]string{1: "shards=1", 8: "shards=8"}[shards], func(b *testing.B) {
			sc := tinyScale()
			sc.Warmup = 200 * sim.Millisecond
			sc.Measure = 400 * sim.Millisecond
			sc.Shards = shards
			for i := 0; i < b.N; i++ {
				fleetScaleRow(sc, 901, 1024, "", 0)
			}
		})
	}
}
