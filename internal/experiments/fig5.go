package experiments

import (
	"softtimers/internal/cpu"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
	"softtimers/internal/workloads"
)

// Fig5Result holds the windowed trigger-interval medians of Figure 5:
// medians computed over 1 ms and over 10 ms windows for 10 seconds of the
// ST-Apache-compute workload.
type Fig5Result struct {
	// Starts1ms/Medians1ms and Starts10ms/Medians10ms are the series.
	Starts1ms, Medians1ms   []float64
	Starts10ms, Medians10ms []float64
	// Band statistics the paper quotes.
	Frac1msAbove40 float64 // fraction of 1 ms medians above 40 µs (paper: <1.13%)
	Min10, Max10   float64 // range of the 10 ms medians (paper: ~17–19 µs)
}

// RunFig5 reproduces Figure 5 (Section 5.4): the trigger-interval median
// is noisy over 1 ms windows but almost constant over 10 ms windows (one
// FreeBSD timeslice).
func RunFig5(sc Scale) *Fig5Result {
	d, err := workloads.ByName("ST-Apache-compute")
	if err != nil {
		panic(err)
	}
	rig := d.Make(sc.Seed, cpu.PentiumII300())
	// Reach steady state first; the paper's plot is a slice of the
	// running workload, not its startup transient.
	rig.Eng.RunFor(sc.Warmup)
	w1 := stats.NewWindowedMedians(1) // fed times in ms
	w10 := stats.NewWindowedMedians(10)
	rig.K.Meter().Trace = func(now, iv sim.Time, _ kernel.Source) {
		us := iv.Micros()
		w1.Add(now.Millis(), us)
		w10.Add(now.Millis(), us)
	}
	dur := 10 * sim.Second
	if sc.Samples < 1_000_000 { // quick scale: shorter trace
		dur = 2 * sim.Second
	}
	rig.Eng.RunFor(dur)
	w1.Flush()
	w10.Flush()

	res := &Fig5Result{
		Starts1ms: w1.Starts, Medians1ms: w1.Medians,
		Starts10ms: w10.Starts, Medians10ms: w10.Medians,
	}
	above := 0
	for _, m := range w1.Medians {
		if m > 40 {
			above++
		}
	}
	if len(w1.Medians) > 0 {
		res.Frac1msAbove40 = float64(above) / float64(len(w1.Medians))
	}
	if len(w10.Medians) > 0 {
		res.Min10, res.Max10 = w10.Medians[0], w10.Medians[0]
		for _, m := range w10.Medians {
			if m < res.Min10 {
				res.Min10 = m
			}
			if m > res.Max10 {
				res.Max10 = m
			}
		}
	}
	return res
}

// Table renders the Figure 5 summary statistics.
func (r *Fig5Result) Table() *Table {
	return &Table{
		Title: "Figure 5 — trigger interval medians over 1ms and 10ms windows (ST-Apache-compute)",
		Columns: []string{"windows(1ms)", "1ms medians >40us", "windows(10ms)",
			"10ms median min", "10ms median max"},
		Rows: [][]string{{
			f0(float64(len(r.Medians1ms))), pct(r.Frac1msAbove40),
			f0(float64(len(r.Medians10ms))), f1(r.Min10), f1(r.Max10),
		}},
		Notes: []string{
			"paper: 1ms medians mostly 14-26us with <1.13% above 40us; 10ms medians in a narrow 17-19us band",
		},
		Metrics: map[string]float64{
			"frac_1ms_medians_above_40us": r.Frac1msAbove40,
			"10ms_median_spread_us":       r.Max10 - r.Min10,
		},
	}
}
