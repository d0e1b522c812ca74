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
		r.Counter(string(rune('a'+i)) + ".counter").v += int64(i)
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

// fleetHost stands in for one fleet-1024 host's reporters, writing what
// they write: the kernel's 44 counters and its engine's three sim.* values
// (which a fleet snapshot skips), the facility's 13 counters and pending
// gauge, the NIC's seven counters under nic.eth0. and each of two links'
// six counters and queue gauge under link.<name>..
type fleetHost struct {
	up, down string
	v        int64
}

var (
	kernelNames    = benchNames("kernel.c", 44)
	softtimerNames = benchNames("softtimer.c", 13)
	nicNames       = benchNames("c", 7)
	linkNames      = benchNames("c", 6)
)

func benchNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return names
}

func (h *fleetHost) Report(w Writer) {
	w.Counter("sim.events_fired", h.v)
	w.Gauge("sim.events_pending", h.v)
	w.Gauge("sim.heap_depth_hwm", h.v)
	for _, n := range kernelNames {
		w.Counter(n, h.v)
	}
	for _, n := range softtimerNames {
		w.Counter(n, h.v)
	}
	w.Gauge("softtimer.pending", h.v)
	nic := w.In("nic.eth0.")
	for _, n := range nicNames {
		nic.Counter(n, h.v)
	}
	for _, name := range []string{h.up, h.down} {
		l := w.In("link." + name + ".")
		for _, n := range linkNames {
			l.Counter(n, h.v)
		}
		l.Gauge("queue_hwm", h.v)
	}
}

// BenchmarkFleetSnapshot takes a fleet-1024 topology's snapshot the way
// topology.Snapshot does: each of 1,025 host registries (a server and
// 1,024 clients) writes straight into one snapshot under host.<name>.,
// leaving out sim.*, whose maps are sized from the first host's snapshot. Each registry holds a fleet host's reporters
// (fleetHost), its two direct gauges and its three histograms at their
// end-of-run occupancy: the facility's delay histogram over buckets
// 0–1000, the kernel's trigger meter with ~97% of its mass at bucket 1000
// plus ~80 other buckets, and a NIC's batch sizes at 1–3.
func BenchmarkFleetSnapshot(b *testing.B) {
	const hosts = 1025
	rng := rand.New(rand.NewSource(1))
	regs := make([]*Registry, hosts)
	prefixes := make([]string, hosts)
	for i := range regs {
		r := NewRegistry()
		name := fmt.Sprintf("client%04d", i)
		r.Register(&fleetHost{up: "lan." + name + ".up", down: "lan." + name + ".down", v: int64(i)})
		r.Gauge("softtimer.overshoot_max_us").SetMax(1000)
		r.Gauge("nic.eth0.poll_interval_ns").Set(40_000)
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
		prefixes[i] = "host." + name + "."
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one := regs[0].Snapshot()
		out := NewSnapshotSized(hosts*len(one.Counters), hosts*len(one.Gauges), hosts*len(one.Histograms))
		for h, r := range regs {
			r.SnapshotInto(out, prefixes[h], "sim.")
		}
	}
}
