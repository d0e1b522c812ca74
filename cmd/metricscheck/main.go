// Command metricscheck validates a telemetry dump produced by
// `stbench -metrics <file>` — the top-level shape (experiment name →
// snapshot), instrument naming, and internal consistency of every
// snapshot — or, with -series, a virtual-time series dump produced by
// `stbench -series <file>`: monotone virtual timestamps on the sampling
// grid, ring-buffer capacity respected, and column/timestamp alignment.
// It is the schema checker behind `make metrics-smoke` and
// `make series-smoke`.
//
// Usage:
//
//	stbench -exp fig2 -metrics m.json && metricscheck m.json
//	stbench -exp fleet-trace -series s.json && metricscheck -series s.json
//
// Exit status 0 means the dump is well-formed; any violation is reported
// on stderr and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"softtimers/internal/metrics"
)

func main() {
	series := flag.Bool("series", false, "validate a stbench -series dump instead of a -metrics one")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-series] <dump.json>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: %v\n", err)
		os.Exit(1)
	}
	if *series {
		checkSeries(path, data)
		return
	}

	var dump map[string]*metrics.Snapshot
	if err := json.Unmarshal(data, &dump); err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: not a metrics dump: %v\n", err)
		os.Exit(1)
	}
	if len(dump) == 0 {
		fmt.Fprintln(os.Stderr, "metricscheck: dump contains no experiments")
		os.Exit(1)
	}

	var problems []string
	report := func(exp, format string, args ...any) {
		problems = append(problems, exp+": "+fmt.Sprintf(format, args...))
	}

	exps := make([]string, 0, len(dump))
	for name := range dump {
		exps = append(exps, name)
	}
	sort.Strings(exps)

	for _, exp := range exps {
		s := dump[exp]
		if s == nil {
			report(exp, "null snapshot")
			continue
		}
		if len(s.Counters) == 0 {
			report(exp, "snapshot has no counters")
		}
		for name, v := range s.Counters {
			checkName(report, exp, name)
			// Counters are monotonic counts or accumulated ns; both are
			// non-negative.
			if v < 0 {
				report(exp, "counter %s is negative: %d", name, v)
			}
		}
		for name, g := range s.Gauges {
			checkName(report, exp, name)
			if g.Max < g.Value {
				report(exp, "gauge %s: high-water mark %d below value %d", name, g.Max, g.Value)
			}
		}
		for name, h := range s.Histograms {
			checkName(report, exp, name)
			if h.Width <= 0 {
				report(exp, "histogram %s: non-positive bucket width %v", name, h.Width)
			}
			// Decoding already rejected indices out of order or negative and
			// counts that are not positive.
			var inBuckets int64
			for i := range h.Buckets.Len() {
				inBuckets += h.Buckets.At(i)
			}
			if h.Overflow < 0 {
				report(exp, "histogram %s: negative overflow %d", name, h.Overflow)
			}
			if got := inBuckets + h.Overflow; got != h.Count {
				report(exp, "histogram %s: buckets(%d) + overflow(%d) = %d, but count = %d",
					name, inBuckets, h.Overflow, got, h.Count)
			}
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "metricscheck: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("metricscheck: %s ok (%d experiment(s))\n", path, len(dump))
}

// checkSeries validates a stbench -series dump: name → SeriesSnapshot.
func checkSeries(path string, data []byte) {
	var dump map[string]*metrics.SeriesSnapshot
	if err := json.Unmarshal(data, &dump); err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: not a series dump: %v\n", err)
		os.Exit(1)
	}
	if len(dump) == 0 {
		fmt.Fprintln(os.Stderr, "metricscheck: series dump contains no snapshots")
		os.Exit(1)
	}

	var problems []string
	report := func(key, format string, args ...any) {
		problems = append(problems, key+": "+fmt.Sprintf(format, args...))
	}

	keys := make([]string, 0, len(dump))
	for k := range dump {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, key := range keys {
		s := dump[key]
		if s == nil {
			report(key, "null snapshot")
			continue
		}
		if s.IntervalNS <= 0 {
			report(key, "non-positive sampling interval %d ns", s.IntervalNS)
		}
		if s.Capacity < 2 || s.Capacity%2 != 0 {
			report(key, "capacity %d (want even and >= 2)", s.Capacity)
		}
		if s.Stride < 1 || s.Stride&(s.Stride-1) != 0 {
			report(key, "stride %d (want a power of two >= 1)", s.Stride)
		}
		if len(s.TimesNS) > s.Capacity {
			report(key, "%d retained points exceed ring capacity %d", len(s.TimesNS), s.Capacity)
		}
		// Retained points sit on the decimation grid: strictly ascending,
		// exactly stride*interval apart.
		step := s.Stride * s.IntervalNS
		for i := 1; i < len(s.TimesNS); i++ {
			if s.TimesNS[i] <= s.TimesNS[i-1] {
				report(key, "timestamp %d (%d ns) not after %d ns", i, s.TimesNS[i], s.TimesNS[i-1])
			} else if step > 0 && s.TimesNS[i]-s.TimesNS[i-1] != step {
				report(key, "timestamp %d: spacing %d ns off the stride grid (want %d)",
					i, s.TimesNS[i]-s.TimesNS[i-1], step)
			}
		}
		if len(s.Series) == 0 {
			report(key, "snapshot has no columns")
		}
		for name, col := range s.Series {
			switch col.Merge {
			case metrics.MergeSum, metrics.MergeMax, metrics.MergeMin:
			default:
				report(key, "column %q has unknown merge kind %q", name, col.Merge)
			}
			if len(col.Vals) != len(s.TimesNS) {
				report(key, "column %q has %d values for %d timestamps", name, len(col.Vals), len(s.TimesNS))
			}
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "metricscheck: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("metricscheck: %s ok (%d series snapshot(s))\n", path, len(dump))
}

// checkName enforces the instrument naming convention: dot-separated
// lower-case snake_case segments, e.g. "kernel.intr_ns.hardclock".
func checkName(report func(string, string, ...any), exp, name string) {
	if name == "" {
		report(exp, "empty instrument name")
		return
	}
	for _, seg := range strings.Split(name, ".") {
		if seg == "" {
			report(exp, "instrument %q has an empty name segment", name)
			return
		}
		for _, r := range seg {
			ok := r == '_' || r == '+' || r == '-' ||
				(r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
			if !ok {
				report(exp, "instrument %q: character %q outside [a-z0-9_+-.]", name, r)
				return
			}
		}
	}
}
