package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"softtimers/internal/stats"
)

// Telemetry microbenchmarks: a reporter's values cost nothing until a
// snapshot, so what is left to time is the histograms components keep and
// the snapshot itself.

// BenchmarkMetricsHistogramObserve times one add to a reported histogram
// (stats.Histogram.Add), 1 µs buckets up to 2,000, like the kernel's and
// the facility's.
func BenchmarkMetricsHistogramObserve(b *testing.B) {
	h := stats.NewHistogram(1, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 2500)) // mix of in-range and overflow
	}
}

func BenchmarkMetricsSnapshot(b *testing.B) {
	// Snapshot cost at a realistic registry size (the full instrumented
	// kernel reports a few dozen values).
	counters := benchNames("c", 32)
	hists := make([]*stats.Histogram, 8)
	for i := range hists {
		hists[i] = stats.NewHistogram(1, 2000)
		for j := 0; j < 100; j++ {
			hists[i].Add(float64(j * 17 % 2000))
		}
	}
	histNames := benchNames("h", len(hists))
	r := registryOf(func(w Writer) {
		for i, n := range counters {
			w.Counter(n, int64(i))
		}
		for i, h := range hists {
			w.Histogram(histNames[i], h)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

// fleetHost stands in for one fleet-1024 host's reporters, writing what
// they write: the kernel's 44 counters, its engine's three sim.* values
// (which a fleet snapshot skips) and its trigger-interval histogram, the
// facility's 13 counters, pending gauge, overshoot gauge and delay
// histogram, the NIC's seven counters, poll-interval gauge and batch-size
// histogram under nic.eth0., and each of two links' six counters and
// queue gauge under link.<name>..
type fleetHost struct {
	up, down           string
	v                  int64
	delay, trig, batch *stats.Histogram
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
	w.Histogram("kernel.trigger_interval_us", h.trig)
	w.Gauge("softtimer.pending", h.v)
	w.GaugeMax("softtimer.overshoot_max_us", 0, 1000)
	w.Histogram("softtimer.delay_us", h.delay)
	nic := w.In("nic.eth0.")
	for _, n := range nicNames {
		nic.Counter(n, h.v)
	}
	nic.Gauge("poll_interval_ns", 40_000)
	nic.Histogram("batch_size", h.batch)
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
// leaving out sim.*, whose maps are sized from the first host's Sizes.
// Each registry holds a fleet host's reporter (fleetHost), with its three
// histograms at their end-of-run occupancy: the facility's delay histogram
// over buckets 0–1000, the kernel's trigger meter with ~97% of its mass
// at bucket 1000 plus ~80 other buckets, and a NIC's batch sizes at 1–3.
func BenchmarkFleetSnapshot(b *testing.B) {
	const hosts = 1025
	rng := rand.New(rand.NewSource(1))
	regs := make([]*Registry, hosts)
	prefixes := make([]string, hosts)
	for i := range regs {
		name := fmt.Sprintf("client%04d", i)
		h := &fleetHost{
			up: "lan." + name + ".up", down: "lan." + name + ".down", v: int64(i),
			delay: stats.NewHistogram(1, 2000),
			trig:  stats.NewHistogram(1, 2000),
			batch: stats.NewHistogram(1, 256),
		}
		for v := 0; v <= 1000; v++ {
			h.delay.Add(float64(v) + rng.Float64())
		}
		for j := 0; j < 3000; j++ {
			h.trig.Add(1000 + rng.Float64())
		}
		for j := 0; j < 80; j++ {
			h.trig.Add(float64(rng.Intn(1000)) + rng.Float64())
		}
		for j := 0; j < 100; j++ {
			h.batch.Add(float64(1 + rng.Intn(3)))
		}
		regs[i] = NewRegistry()
		regs[i].Register(h)
		prefixes[i] = "host." + name + "."
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc, ng, nh := regs[0].Sizes()
		out := NewSnapshotSized(hosts*nc, hosts*ng, hosts*nh)
		for h, r := range regs {
			r.SnapshotInto(out, prefixes[h], "sim.")
		}
	}
}
