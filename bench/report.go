package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two catalogs below are the
// benchmark's whole output vocabulary: BENCHMARK.json lists exactly these
// names, and every workload prints every one of them (zero marks a layer
// the workload bypasses).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the untraced run's metrics, the ones regressions are judged
// on. README.md says what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"live_heap_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"peak_rps", "1/s"},
}

// paperDrivers are the paper-full workload's drivers, in call order.
var paperDrivers = []string{"fig2", "sec52", "table1", "fig5", "table2", "fig6",
	"table3", "table4", "table5", "table6", "table7", "table8", "delaydist", "sec510"}

// selfPkgs are the buckets the traced run's CPU profile is folded into.
var selfPkgs = []string{"sim", "timerwheel", "core", "kernel", "nic", "netstack",
	"topology", "httpserv", "tcp", "workloads", "metrics", "stats", "emu",
	"runtime", "other"}

// perLayer are the traced run's metrics, grouped by the module they
// describe.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.speed", "s/s"},
		{"sim.pending_end", "count"},
		{"sim.rounds", "count"},
		{"sim.messages", "count"},
		{"sim.round_us", "us"},
		{"core.trigger_calls", "count"},
		{"core.trigger_ns", "ns"},
		{"core.trigger_frac", "ratio"},
		{"core.fired", "count"},
		{"core.scheduled", "count"},
		{"core.canceled", "count"},
		{"core.hit_ratio", "ratio"},
		{"core.delay_max_us", "us"},
		{"core.bound_exceeded", "count"},
		{"kernel.triggers", "count"},
		{"kernel.hardclock_ticks", "count"},
		{"kernel.interrupts", "count"},
		{"kernel.idle_halts", "count"},
		{"nic.rx_packets", "count"},
		{"nic.rx_dropped", "count"},
		{"netstack.link_sent", "count"},
		{"netstack.link_dropped", "count"},
		{"netstack.link_queue_hwm", "count"},
		{"topology.switch_forwarded", "count"},
		{"topology.switch_misses", "count"},
		{"topology.live_bytes_per_host", "B"},
		{"setup.build_s", "s"},
		{"setup.wire_s", "s"},
		{"setup.start_s", "s"},
		{"httpserv.completed", "count"},
		{"httpserv.client_responses", "count"},
		{"httpserv.churns", "count"},
		{"metrics.snapshot_s", "s"},
		{"metrics.instruments", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.cpu_s", "s"},
	}
	for _, d := range paperDrivers {
		defs = append(defs, metricDef{"exp." + d + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"emu.latency_p99_ms", "ms"},
		metricDef{"emu.connect_ms_p50", "ms"},
		metricDef{"emu.ttfb_ms_p50", "ms"},
		metricDef{"emu.body_ms_p50", "ms"},
		metricDef{"emu.trigger_interval_p50_us", "us"},
		metricDef{"emu.trigger_interval_p99_us", "us"},
		metricDef{"emu.clock_lag_p99_us", "us"},
		metricDef{"emu.clock_bursts", "count"},
		metricDef{"emu.clock_waits", "count"},
		metricDef{"emu.injected", "count"},
		metricDef{"emu.completed", "count"},
		metricDef{"emu.gen_late_max_ms", "ms"},
	)
	for _, p := range selfPkgs {
		defs = append(defs, metricDef{"self." + p + "_frac", "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "ratio"})
}()

// result is what one workload run measured.
type result struct {
	// Attempted and Failed count the workload's operations: hosts held to
	// the §4 delay bound, driver calls, or HTTP requests.
	Attempted, Failed int
	// Problems lists failed correctness checks beyond the failure count.
	Problems []string
	// Digest is the sha256 of the simulated telemetry or rendered tables
	// (empty for emu-http, whose results depend on the machine).
	Digest string
	// Values holds every measured metric by name.
	Values map[string]float64
}

func newResult() *result { return &result{Values: map[string]float64{}} }

// problemf records a failed correctness check.
func (r *result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// correct reports whether the run passed every check.
func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// failedFrac is the share of attempted operations that failed.
func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// jsonMetric is one metric in the final JSON line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine is the final line of standard output.
type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes "name value unit" lines: every metric of the catalog that
// matches the run's mode (per-layer when traced), with 0 for a layer the
// workload bypasses, and whatever else the run measured. Then come the
// failure accounting, the digest, and the JSON line holding that catalog.
func (r *result) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, cat := range []struct {
		defs []metricDef
		all  bool
	}{{endToEnd, !traced}, {perLayer, traced}} {
		for _, d := range cat.defs {
			if v, ok := r.Values[d.Name]; ok || cat.all {
				fmt.Fprintf(w, "%-32s %.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%-32s %.6g ratio (%d of %d)\n", "failed_frac", r.failedFrac(), r.Failed, r.Attempted)
	if r.Digest != "" {
		fmt.Fprintf(w, "%-32s %s\n", "telemetry_sha256", r.Digest)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	line := jsonLine{
		Correct:   r.correct(),
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.Name] = jsonMetric{Value: r.Values[d.Name], Unit: d.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// median returns the median of vs (0 for none). vs is not modified.
func median(vs []float64) float64 {
	return percentile(vs, 50)
}

// percentile returns the p-th percentile (0–100) of vs, interpolating
// linearly between the closest ranks; 0 for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quartiles returns the first and third quartiles of vs by the method of
// Python's statistics.quantiles(vs, n=4) ("exclusive"), so spreads quoted
// from -repeat match that tool's. vs needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
