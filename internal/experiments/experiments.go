// Package experiments contains one driver per figure and table of the
// paper's evaluation (Section 5). Each driver assembles the relevant
// workload on the simulated substrate, runs it, and returns a typed result
// that renders as a paper-style table annotated with the paper's reported
// values, so paper-vs-measured comparison is immediate.
//
// Drivers take a Scale: FullScale reproduces the paper's sample counts and
// run lengths; QuickScale runs the same experiments at reduced size for
// tests and quick iteration.
package experiments

import (
	"fmt"
	"strings"

	"softtimers/internal/metrics"
	"softtimers/internal/sim"
)

// Scale controls experiment size.
type Scale struct {
	// Seed makes every run deterministic.
	Seed uint64
	// Samples is the trigger-interval sample count for the distribution
	// experiments (the paper took 2 million per workload).
	Samples int64
	// Warmup and Measure bound the throughput experiments.
	Warmup, Measure sim.Time
	// PacerTrain is the packet-train length for the transmission-process
	// statistics (Tables 4 and 5).
	PacerTrain int64
	// WANTransfers are the transfer sizes, in 1448-byte packets, for the
	// WAN experiments (Tables 6 and 7).
	WANTransfers []int64
	// FreqStepKHz is the frequency step for Figures 2 and 3.
	FreqStepKHz int
	// Workers bounds row-level parallelism inside drivers: independent
	// sweep rows (frequency points, workloads, transfer sizes, quota
	// settings) run on up to Workers goroutines, each with its own
	// engine. 0 or 1 runs rows serially. Results are assembled in index
	// order, so output is identical at any setting.
	Workers int
	// Shards is the engine count of each fleet row's conservative-sync
	// shard group: at least 1 (zero means 1), clamped to the row's host
	// count (leaf count on fabrics). The group runs its rounds on the
	// row's own goroutine. Merged telemetry, tables and traces are
	// identical at any setting — sharding is purely a wall-clock knob.
	Shards int
	// FleetCounts overrides the fleet-scale client-count sweep (nil uses
	// the default 1..64 doubling).
	FleetCounts []int
	// Progress, when non-nil, receives periodic callbacks from
	// long-running drivers: a row label, the row's virtual clock, and
	// engine events fired so far. Drivers chunk their measurement runs to
	// report it; chunking never changes results (RunFor composes), so
	// telemetry and tables are byte-identical with Progress on or off.
	// Never serialized (stbench keeps it out of -json output).
	Progress func(label string, virtual sim.Time, fired uint64) `json:"-"`
}

// FullScale reproduces the paper's experiment sizes, and pushes the fleet
// sweep past them (256- and 1024-host rows) to exercise scales only the
// sharded engine makes affordable.
func FullScale() Scale {
	return Scale{
		Seed:         1,
		Samples:      2_000_000,
		Warmup:       2 * sim.Second,
		Measure:      10 * sim.Second,
		PacerTrain:   100_000,
		WANTransfers: []int64{5, 100, 1000, 10000, 100000},
		FreqStepKHz:  10,
		FleetCounts:  []int{1, 2, 4, 8, 16, 32, 64, 256, 1024},
	}
}

// QuickScale shrinks everything for fast tests; shapes still hold.
func QuickScale() Scale {
	return Scale{
		Seed:         1,
		Samples:      150_000,
		Warmup:       sim.Second,
		Measure:      2 * sim.Second,
		PacerTrain:   20_000,
		WANTransfers: []int64{5, 100, 1000},
		FreqStepKHz:  25,
	}
}

// SmokeScale is the CI smoke size: a minimal fleet sweep whose telemetry
// the shard-smoke target diffs across shard counts in seconds. The
// 64-host row matters: it saturates the server so same-instant arrivals
// are routine, the regime where a broken same-instant ordering rule
// diverges (tiny fleets pass by luck).
func SmokeScale() Scale {
	sc := QuickScale()
	sc.Warmup = sc.Warmup / 2
	sc.Measure = sc.Measure / 2
	sc.FleetCounts = []int{1, 8, 64}
	return sc
}

// Table is a generic rendered result: a title, column headers, and rows.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries paper-comparison remarks.
	Notes []string
	// Metrics carries the experiment's headline quantities in
	// machine-readable form for the -json perf-trajectory record. Keys
	// are stable snake_case names; not rendered in the text table.
	Metrics map[string]float64
	// Telemetry, when non-nil, is the experiment's full metrics snapshot:
	// every row's per-simulation registry snapshot merged in row-index
	// order, so it is identical at any Workers setting. Dumped by
	// stbench -metrics; not rendered in the text table.
	Telemetry *metrics.Snapshot
	// Series, when non-nil, carries virtual-time series snapshots under
	// stable keys (e.g. "clients08.fleet"). Dumped by stbench -series; not
	// rendered in the text table.
	Series map[string]*metrics.SeriesSnapshot
}

// mergeTelemetry folds per-row registry snapshots in slice (row-index)
// order into one experiment-wide snapshot. Nil rows are skipped, and a nil
// result means no row produced telemetry.
func mergeTelemetry(snaps []*metrics.Snapshot) *metrics.Snapshot {
	var out *metrics.Snapshot
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if out == nil {
			out = metrics.NewSnapshot()
		}
		out.Merge(s)
	}
	return out
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f1 formats a float with one decimal; f2 with two; f0 as integer.
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
