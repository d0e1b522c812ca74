package metrics

import "testing"

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
