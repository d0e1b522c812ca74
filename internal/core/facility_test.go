package core

import (
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
)

func newRig(opts kernel.Options, fopts Options) (*sim.Engine, *kernel.Kernel, *Facility) {
	eng := sim.NewEngine(7)
	k := kernel.New(eng, cpu.PentiumII300(), opts)
	f := New(k, fopts)
	return eng, k, f
}

func TestResolutions(t *testing.T) {
	_, _, f := newRig(kernel.Options{Hz: 1000}, Options{})
	if f.MeasureResolution() != 1_000_000 {
		t.Fatalf("MeasureResolution = %d, want 1MHz default", f.MeasureResolution())
	}
	if f.InterruptClockResolution() != 1000 {
		t.Fatalf("InterruptClockResolution = %d, want 1000", f.InterruptClockResolution())
	}
	// Paper Section 3: "With typical values ... of 1 MHz and 1 KHz,
	// respectively, X is 1000".
	if f.X() != 1000 {
		t.Fatalf("X = %d, want 1000", f.X())
	}
}

func TestMeasureTimeAdvances(t *testing.T) {
	eng, _, f := newRig(kernel.Options{}, Options{})
	if f.MeasureTime() != 0 {
		t.Fatal("MeasureTime should start at 0")
	}
	eng.RunUntil(5500 * sim.Microsecond)
	if got := f.MeasureTime(); got != 5500 {
		t.Fatalf("MeasureTime = %d ticks, want 5500 (1us ticks)", got)
	}
}

func TestEventFiringBounds(t *testing.T) {
	// With the idle loop on (2us polls), an event scheduled for T ticks
	// must fire within (T, T+X+1] ticks, and in practice within a few
	// idle polls of its deadline.
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	var firedAt sim.Time
	k.Start()
	const T = 100 // 100us
	schedAt := eng.Now()
	f.ScheduleSoftEvent(T, func(now sim.Time) sim.Time {
		firedAt = now
		return sim.Microsecond
	})
	eng.RunFor(10 * sim.Millisecond)
	if firedAt == 0 {
		t.Fatal("event never fired")
	}
	latency := firedAt - schedAt
	if latency <= T*sim.Microsecond {
		t.Fatalf("fired after %v, bound requires > %dus", latency, T)
	}
	if latency > (T+10)*sim.Microsecond {
		t.Fatalf("fired after %v — idle loop should have caught it near %dus", latency, T)
	}
}

func TestHardclockBackupBoundsDelay(t *testing.T) {
	// A compute-bound process with no syscalls: the ONLY trigger states
	// are hardclock ticks, so the event fires at the next tick after its
	// deadline — the paper's upper bound T + X + 1.
	eng, k, f := newRig(kernel.Options{IdleLoop: false}, Options{})
	k.Spawn("spin", func(p *kernel.Proc) {
		var loop func()
		loop = func() { p.Compute(sim.Second, loop) }
		loop()
	})
	k.Start()
	var firedAt sim.Time
	eng.RunUntil(100 * sim.Microsecond) // let the proc start
	sched := eng.Now()
	f.ScheduleSoftEvent(100, func(now sim.Time) sim.Time { // due at ~200us
		firedAt = now
		return 0
	})
	eng.RunFor(20 * sim.Millisecond)
	if firedAt == 0 {
		t.Fatal("event never fired — hardclock backup broken")
	}
	latency := firedAt - sched
	if latency < 100*sim.Microsecond {
		t.Fatalf("fired too early: %v", latency)
	}
	// Must fire at the first hardclock tick after the deadline (1ms
	// boundary plus handler time), never beyond two ticks.
	if latency > 2*sim.Millisecond {
		t.Fatalf("fired after %v, beyond the interrupt-clock bound", latency)
	}
}

func TestDelayDistributionRecorded(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	var reschedule func(now sim.Time) sim.Time
	n := 0
	reschedule = func(now sim.Time) sim.Time {
		n++
		if n < 100 {
			f.ScheduleSoftEvent(20, reschedule)
		}
		return 500 // 0.5us handler
	}
	f.ScheduleSoftEvent(20, reschedule)
	eng.RunFor(50 * sim.Millisecond)
	if n != 100 {
		t.Fatalf("fired %d times, want 100", n)
	}
	if f.DelayHist.N() != 100 {
		t.Fatalf("delay samples = %d", f.DelayHist.N())
	}
	// Delays should be small (idle loop polls every 2us).
	if mean := f.DelayHist.Mean(); mean > 10 {
		t.Fatalf("mean delay = %vus, want small under idle polling", mean)
	}
	st := f.Stats()
	if st.Fired != 100 || st.Scheduled != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Checks == 0 || st.CheckOverhead == 0 {
		t.Fatal("checks not counted")
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	fired := false
	ev := f.ScheduleSoftEvent(50, func(sim.Time) sim.Time { fired = true; return 0 })
	if !ev.Pending() {
		t.Fatal("event not pending")
	}
	if !ev.Cancel() {
		t.Fatal("cancel failed")
	}
	if ev.Cancel() {
		t.Fatal("double cancel succeeded")
	}
	eng.RunFor(10 * sim.Millisecond)
	if fired {
		t.Fatal("canceled event fired")
	}
	if f.Stats().Canceled != 1 {
		t.Fatalf("canceled count = %d", f.Stats().Canceled)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	_, _, f := newRig(kernel.Options{}, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	f.ScheduleSoftEvent(10, nil)
}

func TestHandlerCostChargedToKernel(t *testing.T) {
	// Handler cost (SoftCall + returned work) must appear in the
	// kernel's SoftTimer accounting.
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	f.ScheduleSoftEvent(10, func(sim.Time) sim.Time { return 5 * sim.Microsecond })
	eng.RunFor(5 * sim.Millisecond)
	want := cpu.PentiumII300().SoftCall + 5*sim.Microsecond
	if got := k.Accounting().SoftTimer; got != want {
		t.Fatalf("SoftTimer accounting = %v, want %v", got, want)
	}
}

func TestFiresBySource(t *testing.T) {
	// With only the idle loop producing triggers, fires attribute to the
	// idle source.
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	f.ScheduleSoftEvent(5, func(sim.Time) sim.Time { return 0 })
	eng.RunFor(sim.Millisecond) // fires from idle well before hardclock
	if f.FiresBySource[kernel.SrcIdle] != 1 {
		t.Fatalf("FiresBySource = %v, want 1 idle fire", f.FiresBySource)
	}
}

func TestHierarchicalVariant(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{Hierarchical: true})
	k.Start()
	fired := 0
	for i := uint64(1); i <= 10; i++ {
		f.ScheduleSoftEvent(i*30, func(sim.Time) sim.Time { fired++; return 0 })
	}
	eng.RunFor(10 * sim.Millisecond)
	if fired != 10 {
		t.Fatalf("hierarchical wheel fired %d of 10", fired)
	}
}

func TestHandlerSchedulingMoreEvents(t *testing.T) {
	// The canonical usage: each handler schedules the next event (the
	// pacing pattern). The immediately-due reschedule must not fire
	// within the same trigger state.
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	var times []sim.Time
	var h Handler
	h = func(now sim.Time) sim.Time {
		times = append(times, now)
		if len(times) < 5 {
			f.ScheduleSoftEvent(0, h) // due ASAP
		}
		return 0
	}
	f.ScheduleSoftEvent(10, h)
	eng.RunFor(5 * sim.Millisecond)
	if len(times) != 5 {
		t.Fatalf("fired %d of 5 chained events", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("chained events fired at non-increasing times: %v", times)
		}
	}
}

// checkRig returns one trigger-state check on a hashed-wheel facility whose
// measurement clock the check itself advances. hit: every check finds the
// lone pooled probe due, fires it, and its handler re-arms it 999 ticks
// out — the idle fleet host, where each 1 ms hardclock tick fires one
// sparse probe. miss: one event pends far in the future and the clock
// moves 1 µs per check, so no check finds anything due.
func checkRig(hit bool) (f *Facility, check func()) {
	var clock sim.Time
	k := kernel.New(sim.NewEngine(7), cpu.PentiumII300(), kernel.Options{Hz: 1000})
	f = New(k, Options{TimeSource: func() sim.Time { return clock }})
	if !hit {
		f.ScheduleSoftEvent(1<<40, func(sim.Time) sim.Time { return 0 })
		return f, func() {
			clock += sim.Microsecond
			f.Trigger(kernel.SrcSyscall, clock)
		}
	}
	var probe Handler
	probe = func(sim.Time) sim.Time {
		f.ScheduleSoftEventFree(999, probe)
		return 0
	}
	f.ScheduleSoftEventFree(999, probe)
	return f, func() {
		clock += sim.Millisecond
		f.Trigger(kernel.SrcHardClock, clock)
	}
}

// TestFacilityCheckZeroAlloc guards the per-trigger-state check, firing
// and re-arming included, at 0 allocs.
func TestFacilityCheckZeroAlloc(t *testing.T) {
	for _, hit := range []bool{false, true} {
		f, check := checkRig(hit)
		check()
		if allocs := testing.AllocsPerRun(1000, check); allocs != 0 {
			t.Errorf("hit=%v: %.1f allocs per check, want 0", hit, allocs)
		}
		if fired := f.Stats().Fired; hit && fired != 1002 {
			t.Errorf("fired %d of 1002 checks", fired)
		}
	}
}

// BenchmarkFacilityCheck measures the per-trigger-state check the paper
// prices at one clock read and one comparison, on checkRig's miss and hit
// patterns.
func BenchmarkFacilityCheck(b *testing.B) {
	for _, c := range []struct {
		name string
		hit  bool
	}{{"miss", false}, {"hit", true}} {
		b.Run(c.name, func(b *testing.B) {
			_, check := checkRig(c.hit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check()
			}
		})
	}
}
