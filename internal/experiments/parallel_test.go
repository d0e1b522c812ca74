package experiments

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
)

// tinyScale keeps the determinism tests fast while still running real
// multi-row experiments end to end.
func tinyScale() Scale {
	sc := QuickScale()
	sc.Samples = 30_000
	sc.Warmup = sc.Warmup / 2
	sc.Measure = sc.Measure / 2
	sc.WANTransfers = []int64{5, 100}
	sc.FreqStepKHz = 50
	return sc
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		counts := make([]atomic.Int32, n)
		forEach(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
	ran := false
	forEach(4, 1, func(i int) { ran = true }) // n==1 runs inline
	if !ran {
		t.Fatal("forEach skipped a single-element range")
	}
	forEach(4, 0, func(i int) { t.Fatal("forEach ran a task for n=0") })
}

// The acceptance bar for the parallel runner: rendered experiment tables
// must be byte-identical between a fully serial run and a fanned-out run
// with the same seed, for both the top-level experiment fan-out and the
// row-level splits inside fig2 and table1.
func TestParallelRunMatchesSerialByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full multi-experiment sweeps")
	}
	names := []string{"fig2", "table1"}

	serialSc := tinyScale()
	serialSc.Workers = 1
	serial := RunParallel(serialSc, names, 1)

	parSc := tinyScale()
	parSc.Workers = 4 // row-level fan-out inside each driver
	par := RunParallel(parSc, names, 2)

	if len(serial) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i].Name != par[i].Name {
			t.Fatalf("result %d: name %q (serial) vs %q (parallel): order not preserved",
				i, serial[i].Name, par[i].Name)
		}
		s, p := serial[i].Table.Render(), par[i].Table.Render()
		if s != p {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].Name, s, p)
		}
	}
}

// The -metrics acceptance bar: an experiment's merged telemetry snapshot
// must serialize byte-identically whether its rows ran serially or fanned
// across workers. Per-row registries are deterministic given the seed and
// mergeTelemetry folds them in index order, so worker count must not leak
// into the dump.
func TestTelemetrySnapshotDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiment sweeps")
	}
	for _, name := range []string{"sec52", "fig2", "table6"} {
		run, _ := Lookup(name)

		serialSc := tinyScale()
		serialSc.Workers = 1
		serial := run(serialSc).Telemetry
		if serial == nil {
			t.Fatalf("%s: no telemetry snapshot", name)
		}

		parSc := tinyScale()
		parSc.Workers = 4
		par := run(parSc).Telemetry

		var sb, pb bytes.Buffer
		if err := serial.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if err := par.WriteJSON(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			t.Errorf("%s: telemetry differs between Workers=1 and Workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, sb.Bytes(), pb.Bytes())
		}
		if len(serial.Counters) == 0 {
			t.Errorf("%s: snapshot has no counters", name)
		}
	}
}

func TestRunParallelPreservesNameOrder(t *testing.T) {
	sc := tinyScale()
	sc.Samples = 5_000
	names := []string{"ablation-idle", "sec510"}
	results := RunParallel(sc, names, 2)
	for i, r := range results {
		if r.Name != names[i] {
			t.Fatalf("result %d = %q, want %q", i, r.Name, names[i])
		}
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Fatalf("%s: empty table", r.Name)
		}
		if r.Wall <= 0 {
			t.Fatalf("%s: non-positive wall time %v", r.Name, r.Wall)
		}
	}
}

// A panicking experiment must surface as Result.Err — in order, with the
// other experiments' tables intact — not crash the process from a worker
// goroutine. This is what lets stbench exit non-zero cleanly.
func TestRunParallelCapturesWorkerPanic(t *testing.T) {
	registry["panicky"] = entry{run: func(sc Scale) *Table { panic("deliberate test panic") }, desc: "test-only"}
	defer delete(registry, "panicky")

	sc := tinyScale()
	sc.Samples = 5_000
	names := []string{"ablation-idle", "panicky", "sec510"}
	for _, workers := range []int{1, 3} {
		results := RunParallel(sc, names, workers)
		for i, r := range results {
			if r.Name != names[i] {
				t.Fatalf("workers=%d: result %d = %q, want %q", workers, i, r.Name, names[i])
			}
		}
		if results[1].Err == nil || results[1].Table != nil {
			t.Fatalf("workers=%d: panicking experiment: err=%v table=%v",
				workers, results[1].Err, results[1].Table)
		}
		for _, i := range []int{0, 2} {
			if results[i].Err != nil || results[i].Table == nil {
				t.Fatalf("workers=%d: healthy experiment %s: err=%v table=%v",
					workers, results[i].Name, results[i].Err, results[i].Table)
			}
		}
	}
}

// forEach itself re-raises the lowest-index panic after every task has run,
// so row-level sweeps inside a driver fail the same way at any worker count.
func TestForEachReRaisesLowestPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 20
		var ran atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			forEach(workers, n, func(i int) {
				ran.Add(1)
				if i == 3 || i == 11 {
					panic(i)
				}
			})
			return nil
		}()
		if got != 3 {
			t.Fatalf("workers=%d: re-raised panic %v, want 3 (lowest index)", workers, got)
		}
		if ran.Load() != n {
			t.Fatalf("workers=%d: %d tasks ran before re-raise, want all %d", workers, ran.Load(), n)
		}
	}
}

func TestRegistryCoversOrder(t *testing.T) {
	// Order lists every deterministic experiment ("all" must stay
	// reproducible); the wall-clock experiments are registered but
	// excluded.
	wallClock := []string{"emu-trigger-interval"}
	if len(Names()) != len(Order)+len(wallClock) {
		t.Fatalf("registry has %d entries, Order lists %d (+%d wall-clock)",
			len(Names()), len(Order), len(wallClock))
	}
	for _, n := range Order {
		if _, ok := Lookup(n); !ok {
			t.Fatalf("Order entry %q missing from registry", n)
		}
		if slices.Contains(wallClock, n) {
			t.Fatalf("Order entry %q runs on the wall clock; \"all\" must stay deterministic", n)
		}
	}
	for _, name := range wallClock {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("wall-clock experiment %q missing from registry", name)
		}
	}
	listed := map[string]int{}
	for _, e := range List() {
		listed[e[0]]++
	}
	for _, n := range Order {
		if listed[n] != 1 {
			t.Errorf("List names %q %d times, want once", n, listed[n])
		}
	}
}
