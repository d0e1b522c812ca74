package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

func TestPacerValidation(t *testing.T) {
	_, _, f := newRig(kernel.Options{}, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("zero target did not panic")
		}
	}()
	NewPacer(f, 0, 0, nil)
}

// TestSecondPacerPanicsAtSnapshot: a pacer reports under fixed names, so
// a second one on the same kernel panics at the snapshot, naming the
// duplicate.
func TestSecondPacerPanicsAtSnapshot(t *testing.T) {
	_, k, f := newRig(kernel.Options{}, Options{})
	NewPacer(f, 40*sim.Microsecond, 12*sim.Microsecond, nil)
	k.Metrics().Snapshot()
	NewPacer(f, 40*sim.Microsecond, 12*sim.Microsecond, nil)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, `"pacer.fires"`) {
			t.Fatalf("panic %q, want one naming pacer.fires", msg)
		}
	}()
	k.Metrics().Snapshot()
}

func TestPacerClampsMinToTarget(t *testing.T) {
	_, _, f := newRig(kernel.Options{}, Options{})
	p := NewPacer(f, 40*sim.Microsecond, 60*sim.Microsecond, nil)
	if p.MinInterval != 40*sim.Microsecond {
		t.Fatalf("MinInterval = %v, want clamped to target", p.MinInterval)
	}
}

func TestPacerAchievesTargetRateUnderFineTriggers(t *testing.T) {
	// With the idle loop polling every 2us, trigger states are plentiful
	// and the pacer should hold the target interval almost exactly.
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	const n = 1000
	sent := 0
	p := NewPacer(f, 40*sim.Microsecond, 12*sim.Microsecond,
		func(now sim.Time) (sim.Time, bool) {
			sent++
			return sim.Microsecond, sent < n
		})
	p.Intervals = &stats.Online{}
	p.Start()
	eng.RunFor(100 * sim.Millisecond)
	if sent != n {
		t.Fatalf("sent %d of %d", sent, n)
	}
	if p.Running() {
		t.Fatal("pacer still running after train end")
	}
	mean := p.Intervals.Mean()
	if math.Abs(mean-40) > 3 {
		t.Fatalf("mean interval = %v us, want ~40", mean)
	}
}

func TestPacerOnePacketPerTriggerWhenStarved(t *testing.T) {
	// Sparse trigger states (compute-bound process, no idle loop, 100us
	// syscall cadence): the paper's algorithm deliberately transmits at
	// most ONE packet per soft-timer event ("transmitting multiple
	// packets per timer event would lead to bursty packet transmissions
	// and defeat the purpose of rate-based clocking"), so the achieved
	// interval degrades to the trigger cadence — never below it — and
	// the burst interval merely makes every trigger state eligible.
	eng := sim.NewEngine(9)
	k := kernel.New(eng, cpu.PentiumII300(), kernel.Options{IdleLoop: false})
	f := New(k, Options{})
	k.Spawn("busy", func(p *kernel.Proc) {
		var loop func()
		loop = func() {
			p.Compute(95*sim.Microsecond, func() {
				p.Syscall("s", 5*sim.Microsecond, loop)
			})
		}
		loop()
	})
	k.Start()
	const n = 500
	sent := 0
	var start, end sim.Time
	var gaps []float64 // µs between consecutive transmissions
	p := NewPacer(f, 40*sim.Microsecond, 12*sim.Microsecond,
		func(now sim.Time) (sim.Time, bool) {
			if sent == 0 {
				start = now
			} else {
				gaps = append(gaps, (now - end).Micros())
			}
			sent++
			end = now
			return 500, sent < n
		})
	p.Start()
	eng.RunFor(sim.Second)
	if sent != n {
		t.Fatalf("sent %d of %d", sent, n)
	}
	// One packet per ~100us trigger: the whole train takes ~n*100us.
	total := (end - start).Micros()
	perTrigger := float64(n) * 100
	if total < perTrigger*0.8 {
		t.Fatalf("train took %.0fus — faster than one packet per trigger state (%0.fus), "+
			"so multiple packets fired per event", total, perTrigger)
	}
	if total > perTrigger*1.2 {
		t.Fatalf("train took %.0fus, want ~%.0fus (every trigger state used when behind)", total, perTrigger)
	}
	// Because the pacer is perpetually behind target, every interval
	// should be scheduled at burst eligibility: min interval < observed
	// interval ≈ trigger cadence.
	slices.Sort(gaps)
	if med := gaps[len(gaps)/2]; med < 95 || med > 115 {
		t.Fatalf("median interval = %vus, want ~100 (trigger cadence)", med)
	}
}

func TestPacerStartIsIdempotent(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	sent := 0
	p := NewPacer(f, 100*sim.Microsecond, 10*sim.Microsecond,
		func(now sim.Time) (sim.Time, bool) { sent++; return 0, sent < 5 })
	p.Start()
	p.Start() // no double train
	eng.RunFor(2 * sim.Millisecond)
	if sent != 5 {
		t.Fatalf("sent = %d, want 5", sent)
	}
	if got := p.sent; got != 5 {
		t.Fatalf("sent = %d", got)
	}
}
