// Command stbench runs the paper-reproduction experiments and prints each
// figure/table in the layout of the paper, annotated with the published
// values for comparison.
//
// Usage:
//
//	stbench -exp table1            # one experiment at quick scale
//	stbench -exp all -scale full   # the whole evaluation at paper scale
//	stbench -exp all -parallel 8   # fan independent experiments/rows
//	                               # across 8 workers (output unchanged)
//	stbench -exp all -json out.json  # machine-readable perf record
//	stbench -exp fig2 -metrics m.json  # full telemetry snapshot dump
//	stbench -exp fig2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	stbench -scenario hostile      # degradation summary under a named
//	                               # fault-injection scenario
//	stbench -exp fleet-scale -shards 4  # fleet rows on 4 conservative-sync
//	                                    # engines (tables/telemetry unchanged)
//	stbench -exp fleet-trace -series s.json  # virtual-time series dump
//	stbench -exp fleet-hier -progress  # periodic progress lines on stderr
//
// Experiments: fig2, fig3 (alias of fig2), sec52, table1 (incl. figure 4),
// fig5, table2, fig6, table3, table4, table5, table6, table7, table8,
// delaydist (§3's d distribution), sec510 (useful-range analysis),
// ablation-wheel, ablation-idle, ablation-pollution, degradation-starve,
// degradation-loss, fleet-scale, fleet-hier, fleet-trace, all (those 22),
// and emu-trigger-interval (real sockets and the wall clock, so not in
// all).
//
// An experiment that panics is reported on stderr and the process exits
// non-zero, after the remaining experiments have completed and printed.
//
// Every experiment builds its own simulation engine per measurement, so
// -parallel N fans them (and the sweep rows inside them) across N
// goroutines; results are reassembled in deterministic order and the
// printed tables are byte-identical at any -parallel setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"softtimers/internal/experiments"
	"softtimers/internal/faults"
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
)

// jsonRecord is the -json output: one BENCH_results.json-style record
// tracking the perf trajectory of the reproduction across PRs.
type jsonRecord struct {
	Scale       string           `json:"scale"`
	Parallel    int              `json:"parallel"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	TotalWallMS float64          `json:"total_wall_ms"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	Name    string             `json:"name"`
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig2, sec52, table1, fig5, table2, fig6, table3..table8, all)")
	scale := flag.String("scale", "quick", "experiment scale: quick or full (paper-size)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker count for independent experiments and sweep rows (1 = fully serial)")
	shards := flag.Int("shards", 1,
		"engines per fleet row under conservative-sync sharding, at least 1 (output unchanged)")
	jsonPath := flag.String("json", "", "also write a machine-readable results record to this file")
	metricsPath := flag.String("metrics", "",
		"write each experiment's full telemetry snapshot (JSON, deterministic at any -parallel) to this file")
	seriesPath := flag.String("series", "",
		"write each experiment's virtual-time series snapshots (JSON, deterministic at any -parallel/-shards) to this file")
	progress := flag.Bool("progress", false,
		"print a single-line progress report to stderr as long sweeps advance")
	scenario := flag.String("scenario", "",
		"run the degradation summary under this named fault scenario instead of -exp ("+
			strings.Join(faults.ScenarioNames(), ", ")+")")
	list := flag.Bool("list", false,
		"list registered experiments and fault scenarios with descriptions, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
	flag.Parse()

	if *list {
		fmt.Println("experiments (stbench -exp <name>):")
		for _, e := range experiments.List() {
			fmt.Printf("  %-20s %s\n", e[0], e[1])
		}
		fmt.Println("\nfault scenarios (stbench -scenario <name>):")
		for _, name := range faults.ScenarioNames() {
			fmt.Printf("  %-20s %s\n", name, faults.DescribeScenario(name))
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	case "smoke":
		sc = experiments.SmokeScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick, full or smoke)\n", *scale)
		os.Exit(2)
	}
	sc.Seed = *seed
	sc.Workers = *parallel
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "invalid -shards %d (want at least 1)\n", *shards)
		os.Exit(2)
	}
	sc.Shards = *shards
	if *progress {
		sc.Progress = progressPrinter(*jsonPath != "")
	}

	var names []string
	if *scenario != "" {
		if _, ok := faults.LookupScenario(*scenario); !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q; known: %s\n",
				*scenario, strings.Join(faults.ScenarioNames(), ", "))
			os.Exit(2)
		}
	} else {
		name := strings.ToLower(*exp)
		if name == "fig3" || name == "fig4" {
			// Figure 3 is derived from Figure 2's data; Figure 4 from Table 1's.
			alias := map[string]string{"fig3": "fig2", "fig4": "table1"}
			name = alias[name]
		}
		if name == "all" {
			names = experiments.Order
		} else if _, ok := experiments.Lookup(name); ok {
			names = []string{name}
		} else {
			known := experiments.Names()
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s, all\n", *exp, strings.Join(known, ", "))
			os.Exit(2)
		}
	}

	start := time.Now()
	var results []experiments.Result
	if *scenario != "" {
		results = []experiments.Result{{Name: "scenario-" + *scenario}}
		results[0].Table = experiments.RunScenario(sc, *scenario)
		results[0].Wall = time.Since(start)
	} else {
		results = experiments.RunParallel(sc, names, *parallel)
	}
	total := time.Since(start)

	failed := false
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "stbench: %v\n", r.Err)
			failed = true
			continue
		}
		fmt.Println(r.Table.Render())
		fmt.Printf("(%s completed in %v)\n\n", r.Name, r.Wall.Round(time.Millisecond))
	}
	fmt.Printf("total: %d experiment(s) in %v (parallel=%d)\n",
		len(results), total.Round(time.Millisecond), *parallel)

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *scale, *parallel, total, results); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: writing %s: %v\n", *metricsPath, err)
			os.Exit(1)
		}
	}
	if *seriesPath != "" {
		if err := writeSeries(*seriesPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: writing %s: %v\n", *seriesPath, err)
			os.Exit(1)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: writing heap profile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if failed {
		os.Exit(1)
	}
}

// writeMetrics dumps each experiment's telemetry snapshot keyed by
// experiment name. Snapshots are per-simulation registries merged in row
// order and JSON map keys sort, so the file is byte-identical at any
// -parallel setting. Experiments without telemetry are omitted.
func writeMetrics(path string, results []experiments.Result) error {
	out := map[string]*metrics.Snapshot{}
	for _, r := range results {
		if r.Table != nil && r.Table.Telemetry != nil {
			out[r.Name] = r.Table.Telemetry
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeSeries dumps each experiment's virtual-time series snapshots keyed
// "experiment.rowkey.scope". Series are sampled on virtual-time cadences
// and JSON map keys sort, so the file is byte-identical at any -parallel
// or -shards setting. Experiments without series are omitted.
func writeSeries(path string, results []experiments.Result) error {
	out := map[string]*metrics.SeriesSnapshot{}
	for _, r := range results {
		if r.Table == nil {
			continue
		}
		for key, s := range r.Table.Series {
			out[r.Name+"."+key] = s
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// progressPrinter builds the -progress callback: one line per report on
// stderr, serialized across workers. Virtual time and events fired are
// simulation facts — deterministic at any -parallel/-shards — while wall
// time is not, so it is suppressed when a -json record is being written
// (keeping every emitted value reproducible).
func progressPrinter(deterministic bool) func(label string, virtual sim.Time, fired uint64) {
	var mu sync.Mutex
	start := time.Now()
	return func(label string, virtual sim.Time, fired uint64) {
		mu.Lock()
		defer mu.Unlock()
		if deterministic {
			fmt.Fprintf(os.Stderr, "progress: %s virtual=%.1fms events=%d\n",
				label, virtual.Micros()/1000, fired)
			return
		}
		fmt.Fprintf(os.Stderr, "progress: %s virtual=%.1fms wall=%s events=%d\n",
			label, virtual.Micros()/1000, time.Since(start).Round(time.Millisecond), fired)
	}
}

func writeJSON(path, scale string, parallel int, total time.Duration, results []experiments.Result) error {
	rec := jsonRecord{
		Scale:       scale,
		Parallel:    parallel,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		TotalWallMS: float64(total.Microseconds()) / 1000,
	}
	for _, r := range results {
		e := jsonExperiment{
			Name:   r.Name,
			WallMS: float64(r.Wall.Microseconds()) / 1000,
		}
		if r.Table != nil {
			e.Metrics = r.Table.Metrics
		}
		if r.Err != nil {
			e.Error = r.Err.Error()
		}
		rec.Experiments = append(rec.Experiments, e)
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
