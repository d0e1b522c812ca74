package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"

	"softtimers/internal/experiments"
	"softtimers/internal/sim"
)

// paperSetups is how many warm-up passes a paper-full run makes.
const paperSetups = 3

// warmScale is the size of paper-full's set-up pass: every driver at a
// toy size, so rig construction and first-use initialisation are paid
// before the timed calls.
func warmScale(seed uint64) experiments.Scale {
	sc := experiments.SmokeScale()
	sc.Seed, sc.Workers = seed, 1
	sc.Samples = 20_000
	sc.Warmup, sc.Measure = 50*sim.Millisecond, 100*sim.Millisecond
	sc.PacerTrain = 1_000
	sc.WANTransfers = []int64{5, 100}
	sc.FreqStepKHz = 100
	return sc
}

// runDriver calls one registered driver. A panic or a table without rows
// is a failed call.
func runDriver(run experiments.Runner, sc experiments.Scale) (t *experiments.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			t, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	t = run(sc)
	if t == nil || len(t.Rows) == 0 {
		return t, fmt.Errorf("returned no rows")
	}
	return t, nil
}

// paperPass is one timed call of every driver.
type paperPass struct {
	phase  phaseStats
	calls  []float64 // wall seconds per driver call
	tables []*experiments.Table
	failed []string
	digest string
}

// paperRun calls every driver once, each inside an exp/<name> span, and
// digests the rendered tables and their telemetry.
func paperRun(rec *recorder, drivers []string, sc experiments.Scale) paperPass {
	var p paperPass
	h := sha256.New()
	ph := startPhase()
	rec.do("run", func() {
		for _, name := range drivers {
			run, _ := experiments.Lookup(name)
			var t *experiments.Table
			var err error
			p.calls = append(p.calls, rec.do("exp/"+name, func() { t, err = runDriver(run, sc) }))
			if err != nil {
				p.failed = append(p.failed, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			p.tables = append(p.tables, t)
			digestTable(h, name, t)
		}
	})
	p.phase = ph.end()
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// digestTable feeds a driver's deterministic output into h: the rendered
// table and, when the driver attaches one, its telemetry snapshot.
func digestTable(h hash.Hash, name string, t *experiments.Table) {
	io.WriteString(h, name+"\n"+t.Render())
	if t.Telemetry != nil {
		if err := t.Telemetry.WriteJSON(h); err != nil {
			panic(err) // maps of numbers always marshal
		}
	}
}

// runPaper runs the paper-full workload: the 14 paper drivers at
// FullScale with one worker, each timed per Lookup(name)(sc) call. Its
// set-up is a warm-up pass of the same drivers at a toy size. The traced
// run first makes an untraced reference pass, then a profiled one.
func runPaper(cfg config) (*result, error) {
	drivers := paperDrivers
	if cfg.Size.Drivers != nil {
		drivers = cfg.Size.Drivers
	}
	for _, name := range drivers {
		if _, ok := experiments.Lookup(name); !ok {
			return nil, fmt.Errorf("no driver %q registered", name)
		}
	}
	sc := experiments.FullScale()
	if cfg.Size.Scale != nil {
		sc = *cfg.Size.Scale
	}
	sc.Seed, sc.Workers = cfg.Seed, 1

	res := newResult()
	rec := newRecorder(cfg.Workload)
	warm := warmScale(cfg.Seed)
	for i := 0; i < cfg.setups(paperSetups); i++ {
		runtime.GC()
		rec.do("setup", func() {
			for _, name := range drivers {
				run, _ := experiments.Lookup(name)
				if _, err := runDriver(run, warm); err != nil {
					res.problemf("warm-up %s: %v", name, err)
				}
			}
		})
	}
	res.Values["setup_s"] = median(rec.seconds("setup"))

	var prof *profiler
	refRec := newRecorder(cfg.Workload)
	var ref paperPass
	if cfg.Trace {
		runtime.GC()
		ref = paperRun(refRec, drivers, sc)
		ref.tables = nil
		var err error
		if prof, err = startProfile(cfg.TraceDir); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	pass := paperRun(rec, drivers, sc)
	var fold *profileFold
	if prof != nil {
		fold = prof.stop(res)
	}

	runS := rec.total("run")
	res.Digest = pass.digest
	res.Attempted, res.Failed = len(drivers), len(pass.failed)
	for _, f := range pass.failed {
		res.problemf("driver %s", f)
	}
	res.Values["run_s"] = runS
	pass.phase.record(res)
	// The tables are the workload's output, so they stay live while the
	// heap is measured.
	res.Values["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(pass.tables)
	res.Values["latency_p50_ms"] = percentile(pass.calls, 50) * 1e3
	res.Values["peak_rps"] = float64(len(drivers)) / runS
	for _, name := range drivers {
		res.Values["exp."+name+"_s"] = rec.total("exp/" + name)
	}
	if cfg.Trace {
		res.Values["trace.overhead_frac"] = runS/refRec.total("run") - 1
		if ref.digest != pass.digest {
			res.problemf("traced telemetry_sha256 %s differs from the untraced %s", pass.digest, ref.digest)
		}
		if fold != nil {
			// The drivers build their rigs inside the call, so no sink can
			// be interposed: the facility check's share comes from the
			// profile instead.
			res.Values["core.trigger_frac"] = fold.TriggerCum
		}
		if err := rec.write(cfg.TraceDir, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}
