// Command stbenchmark is the repository benchmark: it drives one workload
// through the layers' public functions, prints every end-to-end and
// per-layer metric by name with its unit, checks that the outputs are
// correct, and ends with one JSON line. See README.md.
//
//	go run . -workload fleet-1024 -seed 1 -seconds 30 -trace 0
//	go run . -workload emu-http -seed 3 -repeat 5
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"softtimers/internal/experiments"
	"softtimers/internal/sim"
)

// config is one run's settings.
type config struct {
	Workload string
	Seed     uint64
	// Seconds sets emu-http's wall-clock load duration; the simulated
	// workloads run fixed virtual durations.
	Seconds  float64
	Trace    bool
	TraceDir string
	Size     size
}

// size overrides a workload's committed size; zero fields keep it. The
// smoke test runs every workload at a toy size through it.
type size struct {
	Clients int      // fleet client hosts
	Measure sim.Time // fleet measured virtual time
	Setups  int      // set-ups per run, the median of which is setup_s
	// Scale and Drivers replace paper-full's FullScale and driver list.
	Scale   *experiments.Scale
	Drivers []string
}

// workloads maps each workload name to its runner. A runner returns an
// error only when the environment cannot run the workload at all.
var workloads = map[string]func(config) (*result, error){
	"paper-full":        runPaper,
	"fleet-1024":        func(c config) (*result, error) { return runFleet(c, fleetShapes["fleet-1024"]) },
	"fleet-hier-2shard": func(c config) (*result, error) { return runFleet(c, fleetShapes["fleet-hier-2shard"]) },
	"emu-http":          runEmu,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stbenchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper-full, fleet-1024, fleet-hier-2shard or emu-http")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "emu-http load duration in wall seconds (2/3 open loop, 1/3 closed loop)")
	trace := fs.Int("trace", 0, "1 makes this the traced run: spans, timing trigger sink, CPU profile, per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where the traced run writes <workload>/spans.json and cpu.pprof")
	repeat := fs.Int("repeat", 0, "run the workload this many times, each in a fresh process, and print median and IQR per metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "stbenchmark: unknown workload %q (want paper-full, fleet-1024, fleet-hier-2shard or emu-http)\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "stbenchmark: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "stbenchmark: -seconds must be positive\n")
		return 2
	}
	if *repeat > 0 {
		child := func(i int) []string {
			return []string{"-workload", *workload, "-seed", strconv.FormatUint(*seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(*trace), "-trace-dir", *traceDir}
		}
		return repeatRuns(*repeat, child, stdout, stderr)
	}
	cfg := config{
		Workload: *workload, Seed: *seed, Seconds: *seconds,
		Trace: *trace == 1, TraceDir: filepath.Join(*traceDir, *workload),
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", cfg.Workload, cfg.Seed, cfg.Seconds, *trace)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "stbenchmark: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := res.print(stdout, cfg.Trace); err != nil {
		fmt.Fprintf(stderr, "stbenchmark: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runWorkload runs one workload. A panic inside it fails every operation
// the run attempted rather than crashing without a result.
func runWorkload(cfg config) (res *result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = newResult(), nil
			res.Attempted, res.Failed = 1, 1
			res.problemf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if cfg.Trace {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, err
		}
	}
	return workloads[cfg.Workload](cfg)
}

// setups returns how many times a run sets up, the median of which is
// setup_s.
func (c config) setups(def int) int {
	if c.Size.Setups > 0 {
		return c.Size.Setups
	}
	return def
}

// phase brackets a measured phase: wall time, process CPU time and the Go
// runtime's GC and allocation counters.
type phase struct {
	wall time.Time
	cpu  float64
	rt   []metrics.Sample
}

// phaseStats is what a phase cost.
type phaseStats struct {
	Wall, CPU         float64 // seconds
	GCCycles          float64
	AllocMB           float64
	GCCPU, TotalCPUrt float64 // runtime/metrics CPU-class estimates, seconds
}

var phaseMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(phaseMetrics))
	for i, name := range phaseMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func rtFloat(v metrics.Value) float64 {
	if v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	return v.Float64()
}

func startPhase() phase {
	return phase{wall: time.Now(), cpu: processCPU(), rt: readRuntime()}
}

func (p phase) end() phaseStats {
	wall := time.Since(p.wall).Seconds()
	cpu := processCPU() - p.cpu
	rt := readRuntime()
	d := func(i int) float64 { return rtFloat(rt[i].Value) - rtFloat(p.rt[i].Value) }
	return phaseStats{
		Wall: wall, CPU: cpu,
		GCCycles: d(0), AllocMB: d(1) / 1e6, GCCPU: d(2), TotalCPUrt: d(3),
	}
}

// record stores the phase's runtime metrics.
func (s phaseStats) record(r *result) {
	r.Values["runtime.cpu_s"] = s.CPU
	r.Values["runtime.gc_cycles"] = s.GCCycles
	r.Values["runtime.alloc_mb"] = s.AllocMB
	if s.TotalCPUrt > 0 {
		r.Values["runtime.gc_cpu_frac"] = s.GCCPU / s.TotalCPUrt
	}
}

// processCPU returns the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// profiler is the traced run's CPU profile.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(dir string) (*profiler, error) {
	p := &profiler{path: filepath.Join(dir, "cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	return p, nil
}

// stop ends the profile, folds it into the self.<pkg>_frac metrics and
// returns the fold; a fold that fails its checks is recorded as a problem.
func (p *profiler) stop(r *result) *profileFold {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		r.problemf("writing %s: %v", p.path, err)
		return nil
	}
	fold, err := foldProfileFile(p.path)
	if err != nil {
		r.problemf("profile fold: %v", err)
	}
	if fold != nil {
		for pkg, v := range fold.Self {
			r.Values["self."+pkg+"_frac"] = v
		}
	}
	return fold
}

// repeatRuns runs the workload n times, run i in a fresh process with the
// flags child(i) (seed + i, so a set spans inputs as well as machine
// noise), and prints each metric's median and interquartile range as a share of
// the median, the quartiles taken as Python's statistics.quantiles does.
func repeatRuns(n int, child func(int) []string, stdout, stderr io.Writer) int {
	values := map[string][]float64{}
	all := jsonLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for i := 0; i < n; i++ {
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], child(i)...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		err := cmd.Run()
		line, perr := lastJSON(out.Bytes())
		if perr != nil {
			fmt.Fprintf(stderr, "stbenchmark: run %d: %v (%v)\n", i+1, perr, err)
			return 1
		}
		all.Correct = all.Correct && line.Correct && err == nil
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for name, m := range line.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(stdout, "run %d of %d: seed %s correct %v\n", i+1, n, child(i)[3], line.Correct)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			vs, ok := values[d.Name]
			if !ok {
				continue
			}
			med := median(vs)
			spread := 0.0
			if len(vs) >= 2 && med != 0 {
				q1, q3 := quartiles(vs)
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(stdout, "%-32s median %.6g %s  iqr/median %.4f  n %d\n", d.Name, med, d.Unit, spread, len(vs))
			all.Metrics[d.Name] = jsonMetric{Value: med, Unit: d.Unit}
		}
	}
	buf, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "stbenchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	if !all.Correct {
		return 1
	}
	return 0
}

// lastJSON parses the final non-empty line of a run's output.
func lastJSON(out []byte) (*jsonLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := sc.Text(); t != "" {
			last = t
		}
	}
	var line jsonLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("last output line is not the result JSON: %s", strconv.Quote(last))
	}
	return &line, nil
}
