package experiments

import (
	"softtimers/internal/httpserv"
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
)

// Fig2Row is one frequency point of Figures 2 and 3.
type Fig2Row struct {
	FreqKHz    int
	Throughput float64 // conn/s (Figure 2)
	Overhead   float64 // fractional throughput reduction (Figure 3)
	PerIntrUS  float64 // implied cost per interrupt in µs
}

// Fig2Result holds the hardware-timer overhead sweep.
type Fig2Result struct {
	Rows []Fig2Row
	// Base is the no-extra-timer throughput.
	Base float64
	// Telemetry is the merged per-testbed metrics snapshot.
	Telemetry *metrics.Snapshot
}

// RunFig2 measures Apache throughput while an additional hardware interval
// timer with a null handler interrupts at increasing frequency (Section
// 5.1, Figures 2 and 3). The paper finds overhead linear in frequency,
// ~4.45 µs per interrupt, 45% at 100 kHz.
func RunFig2(sc Scale) *Fig2Result {
	step := sc.FreqStepKHz
	if step <= 0 {
		step = 10
	}
	var freqs []int
	for khz := 0; khz <= 100; khz += step {
		freqs = append(freqs, khz)
	}
	// Each frequency point is an independent testbed; fan them across
	// sc.Workers goroutines and derive the overhead columns from the
	// khz=0 baseline afterwards.
	res := &Fig2Result{Rows: make([]Fig2Row, len(freqs))}
	snaps := make([]*metrics.Snapshot, len(freqs))
	forEach(sc.Workers, len(freqs), func(i int) {
		khz := freqs[i]
		tb := httpserv.NewTestbed(httpserv.TestbedConfig{
			Seed:   sc.Seed,
			Server: httpserv.Config{Kind: httpserv.Apache},
		})
		if khz > 0 {
			period := sim.Second / sim.Time(khz*1000)
			pit := tb.K.NewPIT(period, 0, nil) // null handler
			tb.Start()
			pit.Start()
		}
		r := tb.Run(sc.Warmup, sc.Measure)
		res.Rows[i] = Fig2Row{FreqKHz: khz, Throughput: r.Throughput}
		snaps[i] = tb.Metrics()
	})
	res.Telemetry = mergeTelemetry(snaps)
	res.Base = res.Rows[0].Throughput // freqs[0] is always 0 kHz
	for i := range res.Rows {
		row := &res.Rows[i]
		if row.FreqKHz > 0 && res.Base > 0 {
			row.Overhead = 1 - row.Throughput/res.Base
			row.PerIntrUS = row.Overhead / float64(row.FreqKHz*1000) * 1e6
		}
	}
	return res
}

// Table renders Figures 2 and 3 as one table.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:   "Figures 2 & 3 — Apache throughput vs. hardware timer interrupt frequency",
		Columns: []string{"freq (KHz)", "xput (conn/s)", "overhead", "us/interrupt"},
		Notes: []string{
			"paper: overhead grows linearly, ~4.45us per interrupt, ~45% at 100 KHz",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f0(float64(row.FreqKHz)), f0(row.Throughput), pct(row.Overhead), f2(row.PerIntrUS),
		})
	}
	if last := r.Rows[len(r.Rows)-1]; last.FreqKHz > 0 {
		t.Metrics = map[string]float64{
			"base_conn_per_s":     r.Base,
			"overhead_at_top_khz": last.Overhead,
			"us_per_interrupt":    last.PerIntrUS,
		}
	}
	t.Telemetry = r.Telemetry
	return t
}

// Sec52Result is the soft-timer base-overhead experiment (Section 5.2).
type Sec52Result struct {
	BaseThroughput float64
	SoftThroughput float64
	Overhead       float64 // fractional
	MeanFireUS     float64 // mean interval between soft event firings
	Fired          int64
	// Telemetry merges the baseline and soft-timer testbeds' snapshots.
	Telemetry *metrics.Snapshot
}

// RunSec52 schedules a maximal-frequency soft-timer event with a null
// handler on the busy Apache server. The paper: "The soft timer handler
// invocations caused no observable difference in the Web server's
// throughput... the event handler was called every 31.5 µs on average."
func RunSec52(sc Scale) *Sec52Result {
	var base, soft httpserv.Result
	var fired int64
	var firstFire, lastFire sim.Time
	// The baseline and soft-timer testbeds are independent machines; run
	// them concurrently when workers allow.
	snaps := make([]*metrics.Snapshot, 2)
	tasks := []func(){
		func() {
			tb := httpserv.NewTestbed(httpserv.TestbedConfig{
				Seed:   sc.Seed,
				Server: httpserv.Config{Kind: httpserv.Apache},
			})
			base = tb.Run(sc.Warmup, sc.Measure)
			snaps[0] = tb.Metrics()
		},
		func() {
			tb := httpserv.NewTestbed(httpserv.TestbedConfig{
				Seed:   sc.Seed,
				Server: httpserv.Config{Kind: httpserv.Apache},
			})
			var handler func(now sim.Time) sim.Time
			handler = func(now sim.Time) sim.Time {
				fired++
				if firstFire == 0 {
					firstFire = now
				}
				lastFire = now
				tb.F.ScheduleSoftEventFree(0, handler) // maximal frequency: due at once
				return 0                               // null handler
			}
			tb.F.ScheduleSoftEventFree(0, handler)
			soft = tb.Run(sc.Warmup, sc.Measure)
			snaps[1] = tb.Metrics()
		},
	}
	forEach(sc.Workers, len(tasks), func(i int) { tasks[i]() })

	res := &Sec52Result{
		BaseThroughput: base.Throughput,
		SoftThroughput: soft.Throughput,
		Overhead:       1 - soft.Throughput/base.Throughput,
		Fired:          fired,
		Telemetry:      mergeTelemetry(snaps),
	}
	if fired > 1 {
		res.MeanFireUS = (lastFire - firstFire).Micros() / float64(fired-1)
	}
	return res
}

// Table renders the Section 5.2 result.
func (r *Sec52Result) Table() *Table {
	return &Table{
		Title:   "Section 5.2 — soft timer base overhead (max-rate null event on busy Apache)",
		Columns: []string{"base xput", "soft-timer xput", "overhead", "mean fire interval (us)"},
		Rows: [][]string{{
			f0(r.BaseThroughput), f0(r.SoftThroughput), pct(r.Overhead), f1(r.MeanFireUS),
		}},
		Notes: []string{
			"paper: no observable throughput difference; handler called every 31.5us on average",
		},
		Metrics: map[string]float64{
			"overhead":              r.Overhead,
			"mean_fire_interval_us": r.MeanFireUS,
		},
		Telemetry: r.Telemetry,
	}
}
