package experiments

import (
	"softtimers/internal/cpu"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
	"softtimers/internal/workloads"
)

// DelayDistResult reproduces Section 3/5.3's characterization of the soft
// timer delay variable d = actual latency − T: with a conventional timer d
// is uniform over [0, X+1] (mean ~500 µs at 1 kHz); with soft timers its
// distribution follows the trigger-interval residuals — for the worst
// measured workload, mean 31.6 µs, median 18 µs, heavily skewed low.
type DelayDistResult struct {
	MeanUS        float64
	MedianUS      float64
	P99US         float64
	MaxUS         float64
	CDF           []stats.CDFPoint
	N             int64
	UniformMeanUS float64 // the conventional-timer comparison point
}

// RunDelayDist schedules events with random latencies at random times over
// the busy Apache workload (the worst-case trigger stream) and measures d.
func RunDelayDist(sc Scale) *DelayDistResult {
	d, err := workloads.ByName("ST-Apache")
	if err != nil {
		panic(err)
	}
	rig := d.Make(sc.Seed, cpu.PentiumII300())
	rig.Eng.RunFor(sc.Warmup)
	rng := rig.Eng.Rand().Fork()
	n := sc.Samples / 40
	if n < 500 {
		n = 500
	}
	// Schedule one event at a time at a random offset with a random T,
	// so samples are independent draws of d.
	var scheduleNext func()
	remaining := n
	fired := func(now sim.Time) sim.Time {
		scheduleNext()
		return 0
	}
	arm := func() { rig.F.ScheduleSoftEventFree(uint64(rng.Intn(400)), fired) }
	scheduleNext = func() {
		if remaining == 0 {
			return
		}
		remaining--
		rig.Eng.After(rng.ExpTime(200*sim.Microsecond), arm)
	}
	scheduleNext()
	deadline := rig.Eng.Now() + 600*sim.Second
	for rig.F.DelayHist.N() < n && rig.Eng.Now() < deadline {
		rig.Eng.RunFor(50 * sim.Millisecond)
	}
	h := rig.F.DelayHist
	return &DelayDistResult{
		MeanUS:   h.Mean(),
		MedianUS: h.Quantile(0.5),
		P99US:    h.Quantile(0.99),
		MaxUS:    h.Quantile(1),
		CDF:      h.CDF(200),
		N:        h.N(),
		// Conventional timer at the same 1 kHz backup: d uniform over
		// [0, 1 ms], mean 500 µs.
		UniformMeanUS: 500,
	}
}

// Table renders the delay distribution summary.
func (r *DelayDistResult) Table() *Table {
	return &Table{
		Title: "Section 3/5.3 — soft-timer delay d beyond scheduled latency (ST-Apache, random events)",
		Columns: []string{"samples", "mean (us)", "median (us)", "p99 (us)", "max (us)",
			"conventional-timer mean"},
		Rows: [][]string{{
			f0(float64(r.N)), f2(r.MeanUS), f1(r.MedianUS), f0(r.P99US), f0(r.MaxUS),
			f0(r.UniformMeanUS),
		}},
		Notes: []string{
			"paper: worst-case d has mean 31.6us, median 18us, heavily skewed low;",
			"a conventional 1kHz timer facility would give d uniform on [0,1ms], mean ~500us",
		},
		Metrics: map[string]float64{
			"delay_mean_us":   r.MeanUS,
			"delay_median_us": r.MedianUS,
		},
	}
}
