// Command sttrace runs one of the paper's workloads on the simulated
// kernel and dumps trigger-state data: the interval CDF (Figure 4 style) as
// CSV, the per-source counts (Table 2 style) as CSV, a raw CSV trace of
// (time, interval, source) samples, or a full execution trace in Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
//
// Two network modes drive the traced hierarchical fleet instead of a
// single-kernel workload: "flows" dumps the sampled per-packet flow spans
// (per-hop virtual timestamps) as JSON, and "flows-chrome" the merged
// multi-host Chrome trace with flow arrows overlaid between host rows.
//
// Usage:
//
//	sttrace -workload ST-Apache -mode cdf      > apache_cdf.csv
//	sttrace -workload ST-nfs    -mode sources  > nfs_sources.csv
//	sttrace -workload ST-Flash  -mode trace -n 10000 > flash_trace.csv
//	sttrace -workload ST-Apache -mode chrome -n 20000 > apache.trace.json
//	sttrace -mode flows -clients 8 > flows.json
//	sttrace -mode flows-chrome -clients 8 > fleet.trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"softtimers/internal/cpu"
	"softtimers/internal/experiments"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
	"softtimers/internal/trace"
	"softtimers/internal/workloads"
)

func main() {
	wl := flag.String("workload", "ST-Apache", "workload name (ST-Apache, ST-Apache-compute, ST-Flash, ST-real-audio, ST-nfs, ST-kernel-build)")
	mode := flag.String("mode", "cdf", "output: cdf, sources, trace, chrome, flows, or flows-chrome")
	n := flag.Int64("n", 500000, "number of trigger-interval samples (chrome: retained trace events)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	clients := flag.Int("clients", 8, "client-host count for the flows/flows-chrome fleet")
	xeon := flag.Bool("xeon", false, "use the 500 MHz Pentium III profile instead of the P-II 300")
	flag.Parse()
	if err := checkCounts(*n, *clients); err != nil {
		fmt.Fprintf(os.Stderr, "sttrace: %v\n", err)
		os.Exit(2)
	}

	// The fleet-driven modes need no workload rig; handle them first.
	switch *mode {
	case "flows", "flows-chrome":
		sc := experiments.QuickScale()
		sc.Seed = *seed
		spans, chrome := experiments.FleetTraceExport(sc, *clients, *mode == "flows-chrome")
		if *mode == "flows-chrome" {
			if _, err := os.Stdout.Write(chrome); err != nil {
				fmt.Fprintf(os.Stderr, "sttrace: %v\n", err)
				os.Exit(1)
			}
			return
		}
		buf, err := json.MarshalIndent(spans, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sttrace: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(buf, '\n'))
		return
	}

	def, err := workloads.ByName(*wl)
	if err != nil {
		names := make([]string, 0, 6)
		for _, d := range workloads.All() {
			names = append(names, d.Name)
		}
		fmt.Fprintf(os.Stderr, "%v (known: %s)\n", err, strings.Join(names, ", "))
		os.Exit(2)
	}
	prof := cpu.PentiumII300()
	if *xeon {
		prof = cpu.PentiumIII500()
	}
	rig := def.Make(*seed, prof)

	switch *mode {
	case "trace":
		fmt.Println("time_us,interval_us,source")
		count := int64(0)
		rig.K.Meter().Trace = func(now sim.Time, iv sim.Time, src kernel.Source) {
			if count < *n {
				fmt.Printf("%.3f,%.3f,%s\n", now.Micros(), iv.Micros(), src)
			}
			count++
		}
		rig.Collect(*n, sim.Second, 600*sim.Second)
	case "cdf":
		rig.Collect(*n, sim.Second, 600*sim.Second)
		fmt.Println("interval_us,cumulative_fraction")
		for _, p := range rig.K.Meter().Hist.CDF(200) {
			fmt.Printf("%.0f,%.6f\n", p.X, p.Frac)
		}
	case "sources":
		rig.Collect(*n, sim.Second, 600*sim.Second)
		fmt.Println("source,count,fraction")
		m := rig.K.Meter()
		var total int64
		for s := 0; s < kernel.NumSources; s++ {
			total += m.BySource[s]
		}
		for s := 0; s < kernel.NumSources; s++ {
			if m.BySource[s] == 0 {
				continue
			}
			fmt.Printf("%s,%d,%.6f\n", kernel.Source(s), m.BySource[s],
				float64(m.BySource[s])/float64(total))
		}
	case "chrome":
		// Record the kernel's execution trace (context switches, idle
		// periods, interrupts, trigger states) and export the retained
		// window — the ring keeps the last n events — as trace-event JSON.
		buf := trace.New(int(*n))
		rig.K.SetTracer(buf)
		rig.Collect(*n, sim.Second, 600*sim.Second)
		if err := buf.WriteChrome(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sttrace: %v\n", err)
			os.Exit(1)
		}
		if d := buf.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "sttrace: ring retained last %d events (%d earlier dropped; raise -n for more)\n",
				buf.Len(), d)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want cdf, sources, trace, chrome, flows, or flows-chrome)\n", *mode)
		os.Exit(2)
	}
}

// checkCounts rejects count flags no run can use: -n samples and -clients
// client hosts must each be at least 1.
func checkCounts(n int64, clients int) error {
	if n < 1 {
		return fmt.Errorf("-n %d: need at least 1 sample", n)
	}
	if clients < 1 {
		return fmt.Errorf("-clients %d: need at least 1 client", clients)
	}
	return nil
}
