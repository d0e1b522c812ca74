package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"softtimers/internal/experiments"
	"softtimers/internal/sim"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkFile keeps BENCHMARK.json and the metric
// catalogs the program prints from in step.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if !slices.Equal(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", bf.EndToEnd, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's catalog")
	}
}

// printed runs a workload and returns its "name value unit" lines, keyed
// by name, and its final JSON line.
func printed(t *testing.T, cfg config) (map[string][]string, jsonLine) {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	var out bytes.Buffer
	if err := res.print(&out, cfg.Trace); err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s: %s", cfg.Workload, p)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: failed %d of %d, want 0 of >0", cfg.Workload, res.Failed, res.Attempted)
	}
	lines := map[string][]string{}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 3 {
			lines[f[0]] = f[1:]
		}
	}
	var line jsonLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("%s: last line %q is not the result JSON: %v", cfg.Workload, last, err)
	}
	if !line.Correct || line.Failed != 0 {
		t.Errorf("%s: result line %s", cfg.Workload, last)
	}
	if f := lines["failed_frac"]; len(f) < 2 || f[0] != "0" || f[1] != "ratio" {
		t.Errorf("%s: failed_frac printed as %q, want 0 ratio", cfg.Workload, f)
	}
	return lines, line
}

// checkPrinted asserts every metric of defs is printed with its unit and
// present in the JSON line.
func checkPrinted(t *testing.T, workload string, defs []metricDef, lines map[string][]string, line jsonLine) {
	t.Helper()
	for _, d := range defs {
		if f := lines[d.Name]; len(f) != 2 || f[1] != d.Unit {
			t.Errorf("%s: %s printed as %q, want a value in %s", workload, d.Name, f, d.Unit)
		}
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: JSON line lacks %s in %s", workload, d.Name, d.Unit)
		}
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: JSON line has %d metrics, want %d", workload, len(line.Metrics), len(defs))
	}
}

// smokeConfig is a workload at toy size: fleets of 8 clients for 50 ms
// virtual, paper-full's fig2 and table1 at SmokeScale, emu-http for 1 s.
func smokeConfig(workload string) config {
	sc := experiments.SmokeScale()
	return config{
		Workload: workload, Seed: 7, Seconds: 1,
		Size: size{Clients: 8, Measure: 50 * sim.Millisecond, Setups: 1,
			Scale: &sc, Drivers: []string{"fig2", "table1"}},
	}
}

// TestSmoke runs every workload at toy size, untraced, and checks that
// every end-to-end metric is printed with its unit and nothing failed.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "emu-http" {
				if err := loopbackOK(); err != nil {
					t.Skipf("no loopback sockets: %v", err)
				}
			}
			lines, line := printed(t, smokeConfig(w.Name))
			checkPrinted(t, w.Name, bf.EndToEnd, lines, line)
			for _, d := range bf.EndToEnd {
				if line.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, line.Metrics[d.Name].Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced path on a small sharded fleet: every
// per-layer metric is printed, the timing sink leaves the telemetry
// digest unchanged (a mismatch is reported as a problem), and the profile
// fold covers every sample.
func TestSmokeTraced(t *testing.T) {
	bf := loadBenchmarkFile(t)
	cfg := smokeConfig("fleet-hier-2shard")
	cfg.Trace, cfg.TraceDir = true, t.TempDir()
	cfg.Size.Clients, cfg.Size.Measure = 32, 2*sim.Second
	lines, line := printed(t, cfg)
	checkPrinted(t, cfg.Workload, bf.PerLayer, lines, line)
	var sum float64
	for _, p := range selfPkgs {
		sum += line.Metrics["self."+p+"_frac"].Value
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("self.*_frac sum to %v, want 1 ± 0.01", sum)
	}
	if line.Metrics["core.trigger_frac"].Value <= 0 {
		t.Errorf("core.trigger_frac not measured")
	}
	if _, err := os.Stat(filepath.Join(cfg.TraceDir, "spans.json")); err != nil {
		t.Errorf("spans.json not written: %v", err)
	}
}

func TestBoundFailures(t *testing.T) {
	// One host over the §4 bound, one exactly at it, one well inside.
	if got := boundFailures([]int64{boundUS + 1, boundUS, 12}, boundUS); got != 1 {
		t.Errorf("boundFailures = %d, want 1", got)
	}
}

func TestShortBodyFails(t *testing.T) {
	resp := "HTTP/1.0 200 OK\r\nContent-Length: 6144\r\nConnection: close\r\n\r\n" + strings.Repeat("a", 6000)
	err := readResponse(bufio.NewReader(strings.NewReader(resp)), 6144)
	if err == nil || !strings.Contains(err.Error(), "short body") {
		t.Fatalf("readResponse on a short body = %v, want a short-body error", err)
	}
	full := resp + strings.Repeat("a", 144)
	if err := readResponse(bufio.NewReader(strings.NewReader(full)), 6144); err != nil {
		t.Fatalf("readResponse on a full body = %v", err)
	}
	attempted, failed := emuFailures([]request{{}, {err: err}, {err: fmt.Errorf("dial: refused")}})
	if attempted != 3 || failed != 2 {
		t.Errorf("emuFailures = %d of %d, want 2 of 3", failed, attempted)
	}
}

func TestDriverFailures(t *testing.T) {
	sc := experiments.SmokeScale()
	if _, err := runDriver(func(experiments.Scale) *experiments.Table { panic("boom") }, sc); err == nil {
		t.Error("a panicking driver did not fail")
	}
	if _, err := runDriver(func(experiments.Scale) *experiments.Table { return &experiments.Table{} }, sc); err == nil {
		t.Error("a driver returning no rows did not fail")
	}
	ok := func(experiments.Scale) *experiments.Table { return &experiments.Table{Rows: [][]string{{"x"}}} }
	if _, err := runDriver(ok, sc); err != nil {
		t.Errorf("a good driver failed: %v", err)
	}
}

const topSample = `File: stbenchmark
Type: cpu
Duration: 2s, Total samples = 1.50s (75.00%)
Showing nodes accounting for 1.50s, 100% of 1.50s total
      flat  flat%   sum%        cum   cum%
     0.60s 40.00% 40.00%      0.60s 40.00%  softtimers/internal/timerwheel.(*Wheel).Due
     0.30s 20.00% 60.00%      0.90s 60.00%  softtimers/internal/core.(*Facility).Trigger
     0.30s 20.00% 80.00%      0.30s 20.00%  runtime.mallocgc
   200ms 13.33% 93.33%      0.20s 13.33%  softtimers/internal/experiments.RunFig2
    0.10s  6.67%   100%      1.50s   100%  main.main
`

func TestFoldTop(t *testing.T) {
	f, err := foldTop(topSample)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"timerwheel": 0.4, "core": 0.2, "runtime": 0.2, "other": 0.2}
	for _, p := range selfPkgs {
		if d := f.Self[p] - want[p]; d > 1e-9 || d < -1e-9 {
			t.Errorf("self.%s = %v, want %v", p, f.Self[p], want[p])
		}
	}
	if d := f.TriggerCum - 0.6; d > 1e-9 || d < -1e-9 {
		t.Errorf("TriggerCum = %v, want 0.6", f.TriggerCum)
	}
	// A listing that misses samples fails the coverage check.
	if _, err := foldTop(strings.Replace(topSample, "100% of 1.50s total", "100% of 3s total", 1)); err == nil {
		t.Error("foldTop accepted rows covering half the samples")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
