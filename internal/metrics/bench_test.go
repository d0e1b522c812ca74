package metrics

import (
	"fmt"
	"math/rand"
	"testing"
)

// Telemetry hot-path microbenchmarks. The registry's promise is that
// instrumented code pays a pointer increment per update and zero
// allocations, with the instrument's cache line warm; these benchmarks are
// the proof (and the regression guard for every later change that adds
// instruments).

func BenchmarkMetricsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsCounterIncNil(b *testing.B) {
	// The disabled-instrument path: a nil counter must cost only the nil
	// check.
	var c *Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsGaugeSet(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench.gauge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkMetricsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.hist", 1, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 2500)) // mix of in-range and overflow
	}
}

func BenchmarkMetricsSnapshot(b *testing.B) {
	// Snapshot cost at a realistic registry size (the full instrumented
	// kernel registers a few dozen instruments).
	r := NewRegistry()
	for i := 0; i < 32; i++ {
		r.Counter(string(rune('a'+i)) + ".counter").Add(int64(i))
	}
	for i := 0; i < 8; i++ {
		h := r.Histogram(string(rune('a'+i))+".hist", 1, 2000)
		for j := 0; j < 100; j++ {
			h.Observe(float64(j * 17 % 2000))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

// BenchmarkFleetSnapshot snapshots a fleet-1024 topology's worth of host
// registries (a server and 1,024 clients) the way topology.Snapshot does:
// each host's Snapshot, Prefixed under its name, merged into one. Each
// registry holds a fleet host's three histograms at their end-of-run
// occupancy: the facility's delay histogram over buckets 0–1000, the
// kernel's trigger meter with ~97% of its mass at bucket 1000 plus ~80
// other buckets, and a NIC's batch sizes at 1–3. Counters are left out;
// they cost the same whatever the histograms' layout.
func BenchmarkFleetSnapshot(b *testing.B) {
	const hosts = 1025
	rng := rand.New(rand.NewSource(1))
	regs := make([]*Registry, hosts)
	prefixes := make([]string, hosts)
	for i := range regs {
		r := NewRegistry()
		delay := r.Histogram("softtimer.delay_us", 1, 2000)
		for v := 0; v <= 1000; v++ {
			delay.Observe(float64(v) + rng.Float64())
		}
		trig := r.Histogram("kernel.trigger_interval_us", 1, 2000)
		for j := 0; j < 3000; j++ {
			trig.Observe(1000 + rng.Float64())
		}
		for j := 0; j < 80; j++ {
			trig.Observe(float64(rng.Intn(1000)) + rng.Float64())
		}
		batch := r.Histogram("nic.eth0.batch_size", 1, 256)
		for j := 0; j < 100; j++ {
			batch.Observe(float64(1 + rng.Intn(3)))
		}
		regs[i] = r
		prefixes[i] = fmt.Sprintf("host.client%04d.", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewSnapshot()
		for h, r := range regs {
			out.Merge(r.Snapshot().Prefixed(prefixes[h]))
		}
	}
}
