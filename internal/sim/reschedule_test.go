// Regression tests for in-place event rescheduling: the FIFO tie-break
// contract (a reschedule draws a fresh sequence number, exactly like
// cancel+insert), the past-time and arrival-band panics, stale-handle
// inertness, and op-for-op fire-order equivalence between Reschedule and
// the cancel+insert baseline.
package sim_test

import (
	"fmt"
	"testing"

	"softtimers/internal/sim"
)

// onHeap runs f on a fresh engine in a subtest named for its heap queue.
func onHeap(t *testing.T, f func(t *testing.T, eng *sim.Engine)) {
	t.Run("heap", func(t *testing.T) { f(t, sim.NewEngine(7)) })
}

// A rescheduled event must order after events already queued at the same
// instant — it draws a new sequence number, exactly as cancel+insert
// would, even when its time does not change at all.
func TestRescheduleFIFOTieBreak(t *testing.T) {
	onHeap(t, func(t *testing.T, eng *sim.Engine) {
		var order []string
		rec := func(name string) func() { return func() { order = append(order, name) } }
		a := eng.At(100, rec("a"))
		eng.At(100, rec("b"))
		eng.At(100, rec("c"))
		if !a.Reschedule(100) {
			t.Fatal("reschedule of pending event returned false")
		}
		eng.Run()
		if got := fmt.Sprint(order); got != "[b c a]" {
			t.Fatalf("fire order %v, want [b c a] (reschedule must draw a fresh seq)", got)
		}
	})
}

// Rescheduling to an earlier time still fires at the new time, ahead of
// later events — the decrease-key direction (a heap sift-up).
func TestRescheduleDecreaseKey(t *testing.T) {
	onHeap(t, func(t *testing.T, eng *sim.Engine) {
		var order []string
		rec := func(name string) func() { return func() { order = append(order, name) } }
		late := eng.At(900, rec("late"))
		eng.At(500, rec("mid"))
		if !late.Reschedule(100) {
			t.Fatal("reschedule returned false")
		}
		if late.At() != 100 {
			t.Fatalf("At() = %v after reschedule to 100", late.At())
		}
		eng.Run()
		if got := fmt.Sprint(order); got != "[late mid]" {
			t.Fatalf("fire order %v, want [late mid]", got)
		}
		if eng.Now() != 500 {
			t.Fatalf("clock ended at %v, want 500", eng.Now())
		}
	})
}

// Rescheduling into the past panics, like scheduling into the past does.
func TestReschedulePastPanics(t *testing.T) {
	onHeap(t, func(t *testing.T, eng *sim.Engine) {
		ev := eng.At(500, func() {})
		eng.RunFor(200) // clock at 200, event still pending
		defer func() {
			if recover() == nil {
				t.Fatal("reschedule into the past did not panic")
			}
		}()
		ev.Reschedule(100)
	})
}

// Arrival-band events carry caller-owned (conduit, seq) keys — the sharded
// executor's cross-engine ordering contract — so rescheduling one panics
// rather than silently replacing the key with an engine-local seq.
func TestRescheduleArrivalBandPanics(t *testing.T) {
	onHeap(t, func(t *testing.T, eng *sim.Engine) {
		ev := eng.AtArrival(100, 3, 1, "arr", func() {})
		defer func() {
			if recover() == nil {
				t.Fatal("reschedule of an arrival-band event did not panic")
			}
		}()
		ev.Reschedule(200)
	})
}

// Fired, canceled, and zero handles must all refuse Reschedule and
// RescheduleAfter — the same inertness contract Cancel carries.
func TestRescheduleStaleHandlesInert(t *testing.T) {
	onHeap(t, func(t *testing.T, eng *sim.Engine) {
		fired := eng.At(10, func() {})
		canceled := eng.At(20, func() {})
		canceled.Cancel()
		eng.Run()
		var zero sim.Event
		for name, ev := range map[string]sim.Event{"fired": fired, "canceled": canceled, "zero": zero} {
			if ev.Reschedule(eng.Now() + 100) {
				t.Fatalf("%s handle accepted Reschedule", name)
			}
			if ev.RescheduleAfter(100) {
				t.Fatalf("%s handle accepted RescheduleAfter", name)
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events pending after stale reschedules", eng.Pending())
		}
	})
}

// RescheduleAfter is Reschedule relative to now.
func TestRescheduleAfter(t *testing.T) {
	onHeap(t, func(t *testing.T, eng *sim.Engine) {
		ev := eng.At(50, func() {})
		eng.RunFor(30)
		if !ev.RescheduleAfter(400) {
			t.Fatal("RescheduleAfter returned false")
		}
		if ev.At() != 430 {
			t.Fatalf("At() = %v, want now(30)+400 = 430", ev.At())
		}
		eng.Run()
		if eng.Now() != 430 {
			t.Fatalf("clock ended at %v, want 430", eng.Now())
		}
	})
}

// Reschedule must be observably identical to cancel+insert: the same
// randomized stream of schedules and rearms replayed both ways produces the
// same fire log. This is the property the facility's
// Event.Rearm and the pacers lean on.
func TestRescheduleMatchesCancelInsert(t *testing.T) {
	type rearm func(eng *sim.Engine, ev *sim.Event, at sim.Time, fn func())
	inPlace := func(eng *sim.Engine, ev *sim.Event, at sim.Time, fn func()) {
		if !ev.Reschedule(at) {
			panic("reschedule of live event returned false")
		}
	}
	twoStep := func(eng *sim.Engine, ev *sim.Event, at sim.Time, fn func()) {
		ev.Cancel()
		*ev = eng.At(at, fn)
	}
	t.Run("heap", func(t *testing.T) {
		run := func(how rearm) []fireRec {
			eng := sim.NewEngine(11)
			rng := sim.NewRNG(0xdead)
			var log []fireRec
			events := make([]sim.Event, 48)
			fns := make([]func(), 48)
			for i := range events {
				i := i
				fns[i] = func() { log = append(log, fireRec{id: i, at: eng.Now()}) }
				events[i] = eng.After(sim.Time(rng.Intn(400)), fns[i])
			}
			for op := 0; op < 600; op++ {
				i := rng.Intn(len(events))
				var d sim.Time
				if rng.Float64() >= 0.25 {
					d = sim.Time(rng.Intn(400))
				}
				if events[i].Pending() {
					how(eng, &events[i], eng.Now()+d, fns[i])
				} else {
					events[i] = eng.At(eng.Now()+d, fns[i])
				}
				if rng.Float64() < 0.4 {
					eng.RunFor(sim.Time(rng.Intn(300)))
				}
			}
			eng.Run()
			return log
		}
		a, b := run(inPlace), run(twoStep)
		if len(a) == 0 {
			t.Fatal("degenerate run: no fires")
		}
		if len(a) != len(b) {
			t.Fatalf("in-place fired %d, cancel+insert fired %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("fire #%d: in-place %+v, cancel+insert %+v", i, a[i], b[i])
			}
		}
	})
}
